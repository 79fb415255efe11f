import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import support
from conftest import MIXED_SEED
from bilevel_exact import (DEFAULT_CONFIG, DecisionScan, GeneralizedProblem, QVector,
                           bilevel_feasible, cell_infimum, decide_eq, decide_le,
                           decide_le_pure, enumerate_cells, random_instance, row_le,
                           row_lt, solve_mixed)
from bilevel_exact.decide import witness_le

CFG = DEFAULT_CONFIG


def brute_pure_values(inst, z_hi=4, x_box=5):
    """All objective values of F' (integer leader and follower), by grid scan."""
    vals = []
    for ztup in itertools.product(range(0, z_hi + 1), repeat=inst.d):
        rhs = [sum(b * zv for b, zv in zip(br, ztup)) + uv
               for br, uv in zip(inst.B.entries, inst.u.entries)]
        responses = [x for x in itertools.product(range(-x_box, x_box + 1), repeat=inst.n)
                     if all(sum(a * xv for a, xv in zip(ar, x)) <= rv
                            for ar, rv in zip(inst.A.entries, rhs))]
        if not responses:
            continue
        best = min(sum(pv * xv for pv, xv in zip(inst.psi.entries, x)) for x in responses)
        for x in responses:
            if sum(pv * xv for pv, xv in zip(inst.psi.entries, x)) != best:
                continue
            if all(sum(cv * xv for cv, xv in zip(cr, x))
                   + sum(dv * zv for dv, zv in zip(dr, ztup)) <= pp
                   for cr, dr, pp in zip(inst.C.entries, inst.D.entries, inst.p.entries)):
                vals.append(sum(cv * xv for cv, xv in zip(inst.c.entries, x))
                            + sum(ev * zv for ev, zv in zip(inst.e.entries, ztup)))
    return vals


# ------------------------------------------------------------ frozen examples


def test_decide_le_examples(example1):
    assert decide_le(example1, Fraction(0), CFG)
    assert not decide_le(example1, Fraction(-1), CFG)
    assert decide_le(example1, Fraction(-1, 2), CFG)


def test_decide_eq_examples(example1):
    assert decide_eq(example1, Fraction(-1), CFG) is None
    x, z = decide_eq(example1, Fraction(0), CFG)
    assert (x, z.entries) == ((0,), (0,))
    flipped = GeneralizedProblem(base=example1, objective=QVector([1, 1]))
    x2, z2 = decide_eq(flipped, Fraction(0), CFG)
    assert (x2, z2.entries) == ((0,), (0,))


def test_decide_le_pure_examples(example1):
    assert decide_le_pure(example1, Fraction(0), CFG)
    assert not decide_le_pure(example1, Fraction(-1, 2), CFG)
    infeasible = support.make_infeasible_upper()
    for alpha in (Fraction(-5), Fraction(0), Fraction(100)):
        assert not decide_le_pure(infeasible, alpha, CFG)


def test_prefix_restriction(example1):
    only_one = GeneralizedProblem(base=example1, fixed_x_prefix=(1,))
    assert decide_le(only_one, Fraction(-1, 2), CFG)
    only_zero = GeneralizedProblem(base=example1, fixed_x_prefix=(0,))
    assert not decide_le(only_zero, Fraction(-1, 2), CFG)
    assert decide_le(only_zero, Fraction(0), CFG)


def test_extras_strict_row(example1):
    # demand z > 0: kills (0,0), leaves the branch {1} x (0,1] with value -1+z
    strict = GeneralizedProblem(base=example1, extra_rows=(row_lt([0, -1], 0),))
    assert decide_le(strict, Fraction(-1, 2), CFG)
    x, z = decide_eq(strict, Fraction(0), CFG)
    assert (x, z.entries) == ((1,), (1,))
    assert decide_eq(strict, Fraction(-1), CFG) is None


def test_pure_extras(example1):
    # F' = {(0,0), (1,1)}; x <= 0 keeps only (0,0)
    keep_zero = GeneralizedProblem(base=example1, extra_rows=(row_le([1, 0], 0),))
    assert decide_le_pure(keep_zero, Fraction(0), CFG)
    assert not decide_le_pure(keep_zero, Fraction(-1), CFG)
    # strict -x + z < 0 rejects both points of F'
    none_left = GeneralizedProblem(base=example1, extra_rows=(row_lt([-1, 1], 0),))
    assert not decide_le_pure(none_left, Fraction(10), CFG)


def test_generalized_problem_guards(example1):
    with pytest.raises(ValueError):
        GeneralizedProblem(base=example1, fixed_x_prefix=(0, 0))
    with pytest.raises(ValueError):
        GeneralizedProblem(base=example1, objective=QVector([1]))


def _scan_inputs(example1):
    """example1 plus ten acceptance-distribution instances with cells."""
    out = [example1]
    rng = random.Random(MIXED_SEED)
    while len(out) < 11:
        inst = random_instance(rng)
        if enumerate_cells(inst, (), CFG):
            out.append(inst)
    return out


def test_decision_scan_matches_decide_le(example1):
    # one shared scan answering interleaved le/eq/witness queries in
    # non-monotone alpha order must match a fresh scan on every call
    calls = (decide_le, decide_eq, witness_le)
    for inst in _scan_inputs(example1):
        v_star = solve_mixed(inst, config=CFG).infimum
        alphas = [Fraction(3), Fraction(-2), Fraction(1, 2), Fraction(-1), Fraction(0),
                  Fraction(5, 3), Fraction(-7, 2), Fraction(1, 3), Fraction(-1, 2)]
        if v_star is not None:
            alphas[3:3] = [v_star, v_star - Fraction(1, 4), v_star + Fraction(1, 8), v_star]
        scan = DecisionScan(inst, CFG)
        for k, alpha in enumerate(alphas):
            for call in calls[k % 3:] + calls[:k % 3]:
                assert call(inst, alpha, CFG, scan=scan) == call(inst, alpha, CFG)


# ------------------------------------------------------------------ properties


@settings(max_examples=20)
@given(st.integers(0, 10**6), st.fractions(min_value=-8, max_value=8, max_denominator=8),
       st.fractions(min_value=0, max_value=4, max_denominator=8))
def test_monotonicity(seed, alpha, gap):
    inst = random_instance(random.Random(seed))
    if decide_le(inst, alpha, CFG):
        assert decide_le(inst, alpha + gap, CFG)
    if decide_le_pure(inst, alpha, CFG):
        assert decide_le_pure(inst, alpha + gap, CFG)


@settings(max_examples=20)
@given(st.integers(0, 10**6), st.fractions(min_value=-8, max_value=8, max_denominator=8))
def test_consistency_with_cell_infima(seed, alpha):
    inst = random_instance(random.Random(seed))
    obj = inst.objective_vector()
    expected = False
    for cell in enumerate_cells(inst, (), CFG):
        inf, attained, _ = cell_infimum(inst, cell, obj, CFG)
        if (attained and inf <= alpha) or (not attained and inf < alpha):
            expected = True
            break
    assert decide_le(inst, alpha, CFG) == expected


@settings(max_examples=20)
@given(st.integers(0, 10**6), st.fractions(min_value=-8, max_value=8, max_denominator=4))
def test_decide_eq_witness_is_feasible(seed, value):
    inst = random_instance(random.Random(seed))
    got = decide_eq(inst, value, CFG)
    if got is not None:
        x, z = got
        assert bilevel_feasible(inst, x, z, CFG)
        assert inst.objective_vector().dot(QVector(list(x) + list(z.entries))) == value


@settings(max_examples=20)
@given(st.integers(0, 10**6), st.fractions(min_value=-8, max_value=8, max_denominator=4))
def test_pure_matches_brute_force(seed, alpha):
    inst = random_instance(random.Random(seed))
    vals = brute_pure_values(inst)
    expected = any(v <= alpha for v in vals)
    assert decide_le_pure(inst, alpha, CFG) == expected
