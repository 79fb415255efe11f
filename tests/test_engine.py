import json
import os
import random
import sys
from dataclasses import fields, replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import support
from bilevel_exact import (ATTAINED, DEFAULT_CONFIG, INFEASIBLE, LE, UNATTAINED, DecisionScan,
                           InfeasibleProblemError, InfeasibleRelaxationError, Instance,
                           InternalInvariantError, LinRow, LinearSystem, QVector, SolverConfig,
                           Telemetry, bilevel_feasible, bisect_decision, decide_eq, decide_le,
                           decide_le_pure, denominator_cap, disagreement, eps_point, infimum,
                           instance_to_json, lex_extract, objective_bounds, parse_instance,
                           random_instance, rational_reconstruct, reference_oracle, row_le,
                           solve_mixed, solve_pure)
from bilevel_exact import cells, lattice
from bilevel_exact.decide import witness_le
from support import make_flipped, with_upper_rows

CFG = DEFAULT_CONFIG
BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def halvings_needed(width, target):
    k = 0
    while width >= target:
        width = width / 2
        k += 1
    return k


# ------------------------------------------------------------------- bounds


def test_objective_bounds_examples(example1):
    assert objective_bounds(example1) == (-1, 1)
    flat = replace(example1, c=[0], e=[0])
    assert objective_bounds(flat) == (0, 0)
    with pytest.raises(InfeasibleRelaxationError):
        objective_bounds(support.make_infeasible_upper())


def test_denominator_cap_examples(example1):
    assert denominator_cap(example1) == 2
    wide = with_upper_rows(example1, ([0], [3], 10))
    assert denominator_cap(wide) == 4
    half = with_upper_rows(example1, ([0], [-2], -1))
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


@pytest.mark.parametrize("cap", [0, -3, True, 2.5, "3"])
def test_rational_reconstruct_takes_a_positive_int_cap(cap):
    # a cap that is not an int of at least 1 is the caller's error, not a
    # broken invariant (InternalInvariantError, exit 4) or a raw TypeError
    with pytest.raises(ValueError, match="cap must be an int of at least 1"):
        rational_reconstruct(Fraction(1, 3), Fraction(1, 3), cap)


@pytest.mark.parametrize("width", [0, -1, 0.1, True])
def test_bisect_decision_takes_a_positive_exact_width(width):
    # a width of 0 or -1 never stops the bisection, and 0.1 or True would
    # be a rational the caller never wrote; decide gives up after 200 calls
    # so that a bisection that never stops fails instead of hanging
    calls = []

    def dec(a):
        calls.append(a)
        if len(calls) > 200:
            raise AssertionError("bisection did not stop")
        return a > 0

    with pytest.raises(ValueError):
        bisect_decision(dec, Fraction(-1), Fraction(1), width)
    assert calls == []


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
    shifted = replace(with_upper_rows(example1, ([0], [-2], -1)), c=[-1], e=[2])
    assert infimum(shifted, CFG) == 0


def test_infimum_infeasible_bilevel():
    # relaxation nonempty but no bilevel-feasible point at all
    inst = support.make_empty_follower_pure()
    with pytest.raises(InfeasibleProblemError):
        infimum(inst, CFG)


@settings(max_examples=20)
@given(st.integers(0, 10**6))
def test_infimum_matches_oracle_within_cap(seed):
    # v* is read off the scan's per-cell minima, and the value is the
    # oracle's, with a denominator within the cap
    inst = random_instance(random.Random(seed))
    want = reference_oracle(inst, "mixed", CFG)
    try:
        v = infimum(inst, CFG)
    except InfeasibleProblemError:
        assert want.status == INFEASIBLE
    else:
        assert v == want.infimum
        assert v.denominator <= denominator_cap(inst)


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


def test_infimum_above_the_denominator_cap_is_fatal(monkeypatch, tmp_path):
    # the first mixed-grid golden instance with a fractional infimum p/q,
    # solved with a planted cap of q - 1
    from bilevel_exact import engine
    from bilevel_exact.cli import cli_main
    from test_golden import GRID_PATH, grid_instances
    with open(GRID_PATH) as fh:
        reports = json.load(fh)["reports"]
    inst, v_star = next((inst, Fraction(rec["infimum"]))
                        for inst, rec in zip(grid_instances(), reports)
                        if rec["infimum"] is not None and Fraction(rec["infimum"]).denominator > 1)
    assert solve_mixed(inst, config=CFG).infimum == v_star
    monkeypatch.setattr(engine, "denominator_cap", lambda _: v_star.denominator - 1)
    with pytest.raises(InternalInvariantError, match="denominator"):
        solve_mixed(inst, config=CFG)
    path = tmp_path / "capped.json"
    path.write_text(instance_to_json(inst))
    assert cli_main(["solve", str(path)]) == 4


# ------------------------------------------------------------- lex extraction


def test_lex_extract_single_point_cell(example1):
    trace = lex_extract(make_flipped(), Fraction(0), CFG)
    assert trace.x_star == (0,)
    assert trace.rho == (0, 1, 0)
    assert trace.r == (0, 1, 0)
    assert trace.k == 1
    assert trace.z_star.entries == (0,)
    assert trace.delta_denominator == 1


def test_lex_extract_with_extras(example1):
    # the extra upper row -2z <= -1 keeps z >= 1/2
    trace = lex_extract(with_upper_rows(example1, ([0], [-2], -1)), Fraction(-1, 2), CFG)
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


def grid_instances(shape, count, seed=7):
    """The first `count` instances of one shape from the benchmark's
    grid_instance generator."""
    if BENCH not in sys.path:
        sys.path.insert(0, BENCH)
    import gen
    rng = random.Random(seed)
    return [parse_instance(gen.to_json(gen.grid_instance(rng, f"grid-{seed}-{i}", shape,
                                                         "mixed")))[0]
            for i in range(count)]


@pytest.mark.parametrize("shape", [(1, 4, 2, 2), (1, 6, 2, 2)])
def test_lex_trace_postconditions_in_higher_leader_dimension(shape):
    attained = 0
    for inst in grid_instances(shape, 3):
        rep = solve_mixed(inst, config=CFG)
        assert disagreement(inst, rep, reference_oracle(inst, "mixed", CFG), CFG) is None
        trace = rep.lex_trace
        if rep.status != ATTAINED:
            continue
        attained += 1
        for row in trace.q_system.rows:
            assert row.satisfied_by(trace.z_star)
        verts = support.ref_vertices(trace.q_system)
        assert trace.k == 1 + support.affine_dimension(verts)
    assert attained


def test_solve_paths_enumerate_no_vertices(mixed_batch):
    """With basis_cap=0 any call of linear.vertices on a feasible system
    raises; the attained solves of the mixed acceptance batch, their oracle
    reports and pure readings of the first ten come out as with the default."""
    capped = SolverConfig(basis_cap=0)
    rows, _ = mixed_batch
    attained = [(inst, rep, orc) for inst, rep, orc in rows if rep.status == ATTAINED]
    assert attained
    for inst, rep, orc in attained:
        got = solve_mixed(inst, config=capped)
        assert (got.status, got.infimum) == (rep.status, rep.infimum)
        assert got.solution[0] == rep.solution[0]
        assert got.solution[1].entries == rep.solution[1].entries
        again = reference_oracle(inst, "mixed", capped)
        assert (again.status, again.infimum, again.solution) == (orc.status, orc.infimum,
                                                                  orc.solution)
        assert decide_le(inst, rep.infimum, capped)
    for inst, _, _ in attained[:10]:
        pure = solve_pure(inst, config=capped)
        want = solve_pure(inst, config=CFG)
        assert (pure.status, pure.infimum, pure.solution) == (want.status, want.infimum,
                                                              want.solution)


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


def test_solve_mixed_rejects_nonpositive_eps(example1):
    # rejected before solving, on an attained instance as on an unattained one
    for inst in (example1, make_flipped()):
        for eps in (0, Fraction(-1, 8)):
            with pytest.raises(ValueError, match="eps must be positive"):
                solve_mixed(inst, eps=eps, config=CFG)


THRESHOLD_TAKERS = {
    "DecisionScan.hits": lambda inst, t: next(DecisionScan(inst, CFG).hits(LE, t)),
    "decide_le": lambda inst, t: decide_le(inst, t, CFG),
    "decide_le_pure": lambda inst, t: decide_le_pure(inst, t, CFG),
    "rational_reconstruct lo": lambda inst, t: rational_reconstruct(t, Fraction(2), 10),
    "rational_reconstruct hi": lambda inst, t: rational_reconstruct(Fraction(-1), t, 10),
    "bisect_decision lo": lambda inst, t: bisect_decision(bool, t, Fraction(2), Fraction(1)),
    "bisect_decision hi": lambda inst, t: bisect_decision(bool, Fraction(-1), t, Fraction(1)),
    "lex_extract": lambda inst, t: lex_extract(inst, t, CFG),
    "eps_point v_star": lambda inst, t: eps_point(inst, t, Fraction(1, 8), CFG),
    "eps_point eps": lambda inst, t: eps_point(inst, Fraction(-1), t, CFG),
    "solve_mixed eps": lambda inst, t: solve_mixed(inst, eps=t, config=CFG),
}


@pytest.mark.parametrize("bad", [0.1, True], ids=["float", "bool"])
@pytest.mark.parametrize("entry", list(THRESHOLD_TAKERS))
def test_thresholds_take_exact_rationals_only(example1, entry, bad):
    # a float or a bool would become a rational that the caller never
    # wrote: eps=0.1 the binary 3602879701896397/36028797018963968, and
    # alpha=True the threshold 1; an int, a Fraction or a str is exact
    with pytest.raises(ValueError, match="int, Fraction or str"):
        THRESHOLD_TAKERS[entry](example1, bad)


SCAN_TAKERS = {
    "infimum": lambda inst, scan: infimum(inst, CFG, scan),
    "lex_extract": lambda inst, scan: lex_extract(inst, Fraction(-1), CFG, scan=scan),
    "witness_le": lambda inst, scan: witness_le(inst, 10, CFG, scan=scan),
    "decide_eq": lambda inst, scan: decide_eq(inst, Fraction(0), CFG, scan=scan),
    "eps_point": lambda inst, scan: eps_point(inst, Fraction(-1), Fraction(1, 8), CFG, scan),
}


@pytest.mark.parametrize("entry", list(SCAN_TAKERS))
def test_a_scan_answers_only_for_its_instance(example1, entry):
    # a scan built for another instance would answer with that instance's
    # cells (make_flipped's v* is 0, example1's -1): it is refused; a scan
    # built for an equal instance answers as a fresh one
    take = SCAN_TAKERS[entry]
    with pytest.raises(ValueError, match="another instance"):
        take(example1, DecisionScan(make_flipped(), CFG))
    assert take(example1, DecisionScan(replace(example1), CFG)) == take(example1, None)


def test_solve_leaves_no_state_on_the_instance():
    # a solve keeps its cell index in its own scan: afterwards the instance
    # holds its dataclass fields and nothing else
    inst = support.make_example1()
    names = {f.name for f in fields(inst)}
    assert set(vars(inst)) == names
    solve_mixed(inst, eps=Fraction(1, 8), config=CFG)
    assert set(vars(inst)) == names


def test_solve_mixed_infeasible():
    rep = solve_mixed(support.make_infeasible_upper(), config=CFG)
    assert rep.status == INFEASIBLE
    assert rep.infimum is None and rep.solution is None


def wide_box_infeasible(A, B, u):
    """The upper x box 0 <= x <= 10**6 with 0 <= z <= 1, and a follower
    A x <= B z + u that no point of that box meets."""
    return Instance(n=1, d=1, A=A, B=B, C=[[1], [-1], [0]], D=[[0], [0], [1]],
                    c=[1], e=[1], psi=[1], u=u, p=[10**6, 0, 1])


@pytest.mark.parametrize("inst", [
    wide_box_infeasible([[1], [-1]], [[0], [0]], [-1, 5]),  # follower box [-5, -1]
    wide_box_infeasible([[1], [-1]], [[1], [0]], [-10, 0]),  # x <= z - 10
], ids=["follower-box", "coupled-row"])
def test_empty_joint_relaxation_lists_no_candidate(inst):
    # the floor walk lists its x over the joint relaxation, which is empty:
    # no x of the wide upper box is tried, so a cap of 10 is never reached
    cfg = SolverConfig(cell_cap=10)
    assert not decide_le(inst, 10**7, cfg)
    rep = solve_mixed(inst, config=cfg)
    assert (rep.status, rep.infimum, rep.solution) == (INFEASIBLE, None, None)
    assert rep.telemetry.as_dict() == Telemetry().as_dict()


def test_relaxation_without_integer_point_is_infeasible_under_the_default_cap():
    # 0 <= x1 <= 2 * 10**6 and x2 = 1/2 in the joint relaxation: it is
    # LP-feasible, but listing x1 would try 2 * 10**6 + 1 values, past the
    # default cell_cap, where the screen's branch and bound refutes x2 at once
    inst = Instance(n=2, d=1, A=[[1, 0], [-1, 0], [0, 2], [0, -2]], B=[[0]] * 4,
                    C=[[1, 0], [-1, 0], [0, 1], [0, -1], [0, 0]],
                    D=[[0], [0], [0], [0], [1]],
                    c=[0, 0], e=[0], psi=[0, 0], u=[2 * 10**6, 0, 1, -1],
                    p=[2 * 10**6, 0, 10, 0, 1])
    assert not decide_le(inst, 0)
    rep = solve_mixed(inst)
    assert (rep.status, rep.infimum, rep.solution) == (INFEASIBLE, None, None)
    assert rep.telemetry.as_dict() == Telemetry().as_dict()


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


def make_tie():
    """Every point of x + z = 1 in the unit box is optimal, at value 0."""
    return Instance(n=1, d=1, A=[[1], [-1]], B=[[0], [0]],
                    C=[[1], [-1], [1], [-1]], D=[[1], [-1], [0], [0]],
                    c=[0], e=[0], psi=[0], u=[1, 0], p=[1, -1, 1, 0])


def _check_pure_against_grid(inst, z_hi=4, x_box=5):
    # the grid must hold the upper region and the follower's feasible set at
    # every grid z, or the brute force would not be exact
    z_box = []
    for j in range(inst.d):
        unit = [0] * inst.joint_dim()
        unit[inst.n + j] = 1
        z_box += [row_le(unit, z_hi), row_le([-v for v in unit], 0)]
    relax = [LinRow(a, b, rel) for (a, rel), b in zip(*inst.relax)]
    follower = LinearSystem(inst.joint_dim(), relax + z_box)
    for region in (inst.upper_system(), follower):
        for vert in support.ref_vertices(region):
            assert all(-x_box <= v <= x_box for v in vert[:inst.n])
            assert all(0 <= v <= z_hi for v in vert[inst.n:])
    points = support.brute_pure_points(inst, z_hi, x_box)
    rep = solve_pure(inst, config=CFG)
    if not points:
        assert (rep.status, rep.infimum, rep.solution) == (INFEASIBLE, None, None)
        return
    value, x, z = min(points)
    assert (rep.status, rep.infimum) == (ATTAINED, value)
    assert (rep.solution[0], rep.solution[1].entries) == (x, tuple(map(Fraction, z)))


def test_solve_pure_matches_grid_example(example1):
    _check_pure_against_grid(example1)
    _check_pure_against_grid(support.make_empty_follower_pure())
    # lex order picks (x, z) = (0, 1) of the tie, not the z-first (1, 0)
    _check_pure_against_grid(make_tie())


@settings(max_examples=30)
@given(st.integers(0, 10**6))
def test_solve_pure_matches_grid(seed):
    # status, v*, x* and z* against the lex-least (value, x, z) of a grid
    # scan that shares no code with either pure driver
    _check_pure_against_grid(random_instance(random.Random(seed)))


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


def test_disagreement_requires_the_oracles_pure_optimum():
    # both tie points are optimal; a pure report must name the oracle's own
    tie = make_tie()
    searched, oracled = solve_pure(tie, config=CFG), reference_oracle(tie, "pure", CFG)
    assert (oracled.solution[0], oracled.solution[1].entries) == ((0,), (1,))
    assert disagreement(tie, searched, oracled, CFG, variant="pure") is None
    z_first = replace(searched, solution=((1,), QVector([0])))
    assert disagreement(tie, z_first, oracled, CFG, variant="pure") == (
        "search (x*, z*) ((1,), QVector([0])) is not the oracle's ((0,), QVector([1]))")
    # a lex-smaller search x* fails the mixed rule too: x* must be the oracle's
    lex_above = replace(oracled, solution=z_first.solution)
    assert disagreement(tie, searched, lex_above, CFG) == (
        "search x* (0,) is not the oracle's (1,)")
    assert "is not the oracle's" in disagreement(tie, searched, lex_above, CFG, variant="pure")


def _plant(monkeypatch, home, name, fault):
    """Replace home.name by fault(home.name) in every module of the package
    that binds it, so that every caller sees the planted fault."""
    real = getattr(home, name)
    planted = fault(real)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("bilevel_exact") and getattr(mod, name, None) is real:
            monkeypatch.setattr(mod, name, planted)


def test_oracle_catches_a_lost_cell(mixed_batch, monkeypatch):
    # a floor walk that loses its last valid cell; the oracle takes its
    # cells from the definition, so the search and the oracle part somewhere
    def drop_last(real):
        return lambda *args, **kwargs: iter(list(real(*args, **kwargs))[:-1])

    _plant(monkeypatch, cells, "valid_cells", drop_last)
    rows, _ = mixed_batch
    assert any(disagreement(inst, solve_mixed(inst, config=CFG),
                            reference_oracle(inst, "mixed", CFG), CFG)
               for inst, _, _ in rows)


def test_pure_oracle_catches_a_lost_leader_point(pure_batch, monkeypatch):
    # the integer walk loses its last leader z (trailing-range calls only,
    # so the cell candidates over x are intact)
    def drop_last_z(real):
        def walk(rows, rhs, total_dim, coords, config, budget):
            out = real(rows, rhs, total_dim, coords, config, budget)
            return out[:-1] if coords.start > 0 else out
        return walk

    _plant(monkeypatch, lattice, "integer_candidates", drop_last_z)
    rows, _ = pure_batch
    assert any(disagreement(inst, solve_pure(inst, config=CFG),
                            reference_oracle(inst, "pure", CFG), CFG, variant="pure")
               for inst, _, _ in rows)
