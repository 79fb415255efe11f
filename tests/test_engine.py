import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import support
from conftest import MIXED_SEED
from bilevel_exact import (ATTAINED, DEFAULT_CONFIG, INFEASIBLE, UNATTAINED,
                           GeneralizedProblem, InfeasibleProblemError,
                           InfeasibleRelaxationError, Instance, InternalInvariantError,
                           QVector, Telemetry, bilevel_feasible, bisect_decision, decide_eq,
                           decide_le, denominator_cap, disagreement, eps_point, infimum,
                           lex_extract, objective_bounds, random_instance, rational_reconstruct,
                           reference_oracle, row_le, solve_mixed, solve_pure)

CFG = DEFAULT_CONFIG


def make_flipped():
    """The bundled example with leader objective x + z: attained at (0,0)."""
    return Instance(
        n=1, d=1,
        A=[[-1], [1], [-1]], B=[[-1], [0], [0]],
        C=[[0], [1], [-1]], D=[[1], [0], [0]],
        c=[1], e=[1], psi=[1], u=[0, 1, 0], p=[1, 1, 0],
    )


def halvings_needed(width, target):
    k = 0
    while width >= target:
        width = width / 2
        k += 1
    return k


# ------------------------------------------------------------------- bounds


def test_objective_bounds_examples(example1):
    assert objective_bounds(example1, CFG) == (-1, 1)
    flat = GeneralizedProblem(base=example1, objective=QVector([0, 0]))
    assert objective_bounds(flat, CFG) == (0, 0)
    with pytest.raises(InfeasibleRelaxationError):
        objective_bounds(support.make_infeasible_upper(), CFG)


def test_denominator_cap_examples(example1):
    assert denominator_cap(example1) == 2
    wide = GeneralizedProblem(base=example1, extra_rows=(row_le([0, 3], 10),))
    assert denominator_cap(wide) == 4
    # fractional extras are scaled to integers first: -z <= -1/2 becomes -2z <= -1
    half = GeneralizedProblem(base=example1, extra_rows=(row_le([0, -1], Fraction(-1, 2)),))
    assert denominator_cap(half) == 3


def test_denominator_cap_unit_only():
    # B and the z-column of D contribute 1 and nothing else: cap stays 1
    inst = Instance(
        n=1, d=1,
        A=[[1], [-1]], B=[[0], [0]],
        C=[[0], [1], [-1]], D=[[1], [0], [0]],
        c=[1], e=[1], psi=[1], u=[1, 0], p=[1, 1, 0],
    )
    assert denominator_cap(inst) == 1


# ------------------------------------------------------------ reconstruction


def test_rational_reconstruct_examples():
    assert rational_reconstruct(Fraction(21, 50), Fraction(43, 100), 10) == Fraction(3, 7)
    assert rational_reconstruct(Fraction(1, 3), Fraction(1, 3), 3) == Fraction(1, 3)
    assert rational_reconstruct(Fraction(-101, 100), Fraction(-99, 100), 2) == -1


def test_rational_reconstruct_none_in_range():
    with pytest.raises(InternalInvariantError):
        rational_reconstruct(Fraction(7, 20), Fraction(39, 100), 2)


@settings(max_examples=100)
@given(st.integers(1, 40), st.integers(0, 10**6))
def test_rational_reconstruct_recovers_hidden(cap, seed):
    rng = random.Random(seed)
    q = rng.randint(1, cap)
    p = rng.randint(-3 * q, 3 * q)
    hidden = Fraction(p, q)
    width = Fraction(1, 2 * cap * cap)
    lo = hidden - width * Fraction(rng.randint(0, 7), 8)
    hi = lo + width * Fraction(rng.randint(4, 7), 8)
    hi = max(hi, hidden)
    got = rational_reconstruct(lo, hi, cap, None)
    assert got == hidden
    # independent uniqueness check by denominator scan
    assert support.simplest_in_interval_scan(lo, hi, cap) == [hidden]


def test_bisect_decision_brackets():
    hidden = Fraction(5, 7)
    tel = Telemetry()
    calls = []
    def dec(a):
        calls.append(a)
        return hidden <= a
    lo, hi = bisect_decision(dec, Fraction(0), Fraction(1), Fraction(1, 128), tel)
    assert lo < hidden <= hi
    assert hi - lo < Fraction(1, 128)
    assert tel.bisection_steps == halvings_needed(Fraction(1), Fraction(1, 128))
    assert len(calls) == tel.bisection_steps
    with pytest.raises(ValueError):
        bisect_decision(dec, Fraction(1), Fraction(1), Fraction(1, 2), tel)


# ----------------------------------------------------------------- infimum


def test_infimum_examples(example1):
    assert infimum(example1, CFG) == -1
    assert infimum(make_flipped(), CFG) == 0
    shifted = GeneralizedProblem(base=example1, objective=QVector([-1, 2]),
                                 extra_rows=(row_le([0, -1], Fraction(-1, 2)),))
    assert infimum(shifted, CFG) == 0


def test_infimum_infeasible_bilevel():
    # relaxation nonempty but no bilevel-feasible point at all
    inst = support.make_empty_follower_pure()
    with pytest.raises(InfeasibleProblemError):
        infimum(inst, CFG)


@settings(max_examples=20)
@given(st.integers(0, 10**6))
def test_infimum_telemetry_bound(seed):
    inst = random_instance(random.Random(seed))
    try:
        v_lo, v_hi = objective_bounds(inst, CFG)
    except InfeasibleRelaxationError:
        return
    tel = Telemetry()
    try:
        v = infimum(inst, CFG, tel)
    except InfeasibleProblemError:
        return
    cap = denominator_cap(inst)
    assert v.denominator <= cap
    target = Fraction(1, 2 * cap * cap)
    # the engine widens the bracket to [v_lo - 1, v_hi] so decide(lo) is false
    # even when v* = v_lo is attained; one extra query probes feasibility
    assert tel.decision_queries <= halvings_needed(v_hi - v_lo + 1, target) + 3


@settings(max_examples=20)
@given(st.integers(0, 10**6))
def test_infimum_boundary_probes(seed):
    inst = random_instance(random.Random(seed))
    rep = solve_mixed(inst, config=CFG)
    if rep.status == INFEASIBLE:
        return
    gamma = Fraction(1, 2 * denominator_cap(inst) ** 2)
    assert decide_le(inst, rep.infimum + gamma, CFG)
    assert not decide_le(inst, rep.infimum - gamma, CFG)


# ------------------------------------------------------------- lex extraction


def test_lex_extract_single_point_cell(example1):
    prob = GeneralizedProblem(base=example1, objective=QVector([1, 1]))
    trace = lex_extract(prob, Fraction(0), CFG)
    assert trace.x_star == (0,)
    assert trace.rho == (0, 1, 0)
    assert trace.r == (0, 1, 0)
    assert trace.k == 1
    assert trace.z_star.entries == (0,)
    assert trace.delta_denominator == 1


def test_lex_extract_with_extras(example1):
    prob = GeneralizedProblem(base=example1, extra_rows=(row_le([0, -1], Fraction(-1, 2)),))
    trace = lex_extract(prob, Fraction(-1, 2), CFG)
    assert trace.x_star == (1,)
    # the closure of the value-slice pins z = 1/2, so rho_1 = -z = -1/2
    assert trace.rho[0] == Fraction(-1, 2)
    assert trace.r == (-1, 1, 0)
    assert trace.z_star.entries == (Fraction(1, 2),)
    assert trace.delta_denominator == 2


@settings(max_examples=25)
@given(st.integers(0, 10**6))
def test_lex_trace_postconditions(seed):
    inst = random_instance(random.Random(seed))
    rep = solve_mixed(inst, config=CFG)
    if rep.status != ATTAINED:
        return
    trace = rep.lex_trace
    assert trace is not None
    assert all(ri <= rho_i < ri + 1 for ri, rho_i in zip(trace.r, trace.rho))
    for row in trace.q_system.rows:
        assert row.satisfied_by(trace.z_star)
    x, z = rep.solution
    assert x == trace.x_star and z.entries == trace.z_star.entries
    assert bilevel_feasible(inst, x, z, CFG)
    val = inst.objective_vector().dot(QVector(list(x) + list(z.entries)))
    assert val == rep.infimum


# ------------------------------------------------------------------ epsilon


def test_eps_point_examples(example1):
    sol = eps_point(example1, Fraction(-1), Fraction(1, 8), CFG)
    assert sol.value <= Fraction(-7, 8)
    assert sol.x == (1,)
    assert bilevel_feasible(example1, sol.x, sol.z, CFG)
    wide = eps_point(example1, Fraction(-1), Fraction(2), CFG)
    assert wide.value <= 1
    assert bilevel_feasible(example1, wide.x, wide.z, CFG)
    attained = eps_point(make_flipped(), Fraction(0), Fraction(1), CFG)
    assert attained.value <= 1
    assert bilevel_feasible(make_flipped(), attained.x, attained.z, CFG)


# ------------------------------------------------------------------- solves


def test_solve_mixed_unattained(example1):
    rep = solve_mixed(example1, eps=Fraction(1, 8), config=CFG)
    assert rep.status == UNATTAINED
    assert rep.infimum == -1
    assert rep.solution is None
    assert rep.eps_solution is not None and rep.eps_solution.value <= Fraction(-7, 8)
    assert decide_eq(example1, rep.infimum, CFG) is None


def test_solve_mixed_attained():
    rep = solve_mixed(make_flipped(), config=CFG)
    assert rep.status == ATTAINED
    assert rep.infimum == 0
    x, z = rep.solution
    assert (x, z.entries) == ((0,), (0,))
    assert rep.eps_solution is None


def test_solve_mixed_infeasible():
    rep = solve_mixed(support.make_infeasible_upper(), config=CFG)
    assert rep.status == INFEASIBLE
    assert rep.infimum is None and rep.solution is None


def test_solve_pure_examples(example1):
    rep = solve_pure(example1, config=CFG)
    assert rep.status == ATTAINED and rep.infimum == 0
    x, z = rep.solution
    assert (x, z.entries) == ((0,), (0,))
    rep2 = solve_pure(make_flipped(), config=CFG)
    assert rep2.infimum == 0
    assert rep2.solution[0] == (0,)


def test_solve_pure_empty_follower_set():
    rep = solve_pure(support.make_empty_follower_pure(), config=CFG)
    assert rep.status == INFEASIBLE


def test_reference_oracle_examples(example1):
    orc = reference_oracle(example1, "mixed", CFG)
    assert (orc.status, orc.infimum) == (UNATTAINED, -1)
    orc2 = reference_oracle(make_flipped(), "mixed", CFG)
    assert (orc2.status, orc2.infimum) == (ATTAINED, 0)
    x, z = orc2.solution
    assert (x, z.entries) == ((0,), (0,))
    orc3 = reference_oracle(example1, "pure", CFG)
    assert (orc3.status, orc3.infimum) == (ATTAINED, 0)
    assert orc3.solution[0] == (0,)


def test_disagreement_names_each_failed_check():
    inst = make_flipped()
    searched, oracled = solve_mixed(inst, config=CFG), reference_oracle(inst, "mixed", CFG)
    assert disagreement(inst, searched, oracled, CFG) is None
    assert "vs" in disagreement(inst, searched, replace(oracled, status=UNATTAINED), CFG)
    tiny = Fraction(1, 10**6)
    assert "denominator cap" in disagreement(
        inst, replace(searched, status=UNATTAINED, infimum=tiny),
        replace(oracled, status=UNATTAINED, infimum=tiny), CFG)
    off_response = replace(searched, solution=((1,), QVector([0])))
    assert disagreement(inst, off_response, oracled, CFG) == (
        "search solution is not bilevel feasible")
    worse_point = replace(oracled, solution=((1,), QVector([1])))
    assert disagreement(inst, searched, worse_point, CFG) == (
        "oracle solution has value 2, not 0")


# ------------------------------------------------------ boundedness proofs


def test_every_carried_boundedness_proof_holds(monkeypatch):
    """Each system whose cone LPs are skipped passes them when run anyway.

    Records every system that reaches the boundedness check carrying a proof,
    over example1 and 20 acceptance-distribution instances solved in both
    readings and by the oracle, then checks each with the cone LPs.
    """
    from bilevel_exact import lattice, linear
    proved = set()
    real = linear._projection_bounded

    def recording(sys_, coords, config=CFG):
        if sys_.proved_bounded:
            proved.add(sys_)
        return real(sys_, coords, config)

    monkeypatch.setattr(linear, "_projection_bounded", recording)
    monkeypatch.setattr(lattice, "_projection_bounded", recording)
    rng = random.Random(MIXED_SEED)
    instances = [support.make_example1()] + [random_instance(rng) for _ in range(20)]
    for inst in instances:
        solve_mixed(inst, eps=Fraction(1, 8), config=CFG)
        reference_oracle(inst, "mixed", CFG)
        solve_pure(inst, config=CFG)
    monkeypatch.undo()
    assert len(proved) > 50
    for sys_ in proved:
        cone = linear.recession_rows(sys_)
        assert linear._cone_coords_zero(cone, sys_.dim, range(sys_.dim), CFG), sys_
