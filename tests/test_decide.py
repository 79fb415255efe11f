import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import support
from conftest import MIXED_SEED, PURE_SEED
from bilevel_exact import (ATTAINED, LE, DecisionScan, InfeasibleRelaxationError, QVector,
                           bilevel_feasible, cell_infimum, cell_region, decide_eq, decide_le,
                           decide_le_pure, enumerate_cells, objective_bounds, random_instance,
                           row_eq, row_le, solve_mixed, solve_pure)
from bilevel_exact.decide import pure_responses, witness_le
from support import make_flipped, with_upper_rows



def brute_pure_values(inst, z_hi=4, x_box=5):
    """All objective values of F' (integer leader and follower), by grid scan."""
    return [v for v, _, _ in support.brute_pure_points(inst, z_hi, x_box)]


# ------------------------------------------------------------ frozen examples


def test_decide_le_examples(example1):
    assert decide_le(example1, Fraction(0))
    assert not decide_le(example1, Fraction(-1))
    assert decide_le(example1, Fraction(-1, 2))


def test_decide_eq_examples(example1):
    scan = DecisionScan(example1)
    assert decide_eq(scan, Fraction(-1)) is None
    x, z = decide_eq(scan, Fraction(0))
    assert (x, z.entries) == ((0,), (0,))
    x2, z2 = decide_eq(DecisionScan(make_flipped()), Fraction(0))
    assert (x2, z2.entries) == ((0,), (0,))


def test_decide_le_pure_examples(example1):
    assert decide_le_pure(example1, Fraction(0))
    assert not decide_le_pure(example1, Fraction(-1, 2))
    infeasible = support.make_infeasible_upper()
    for alpha in (Fraction(-5), Fraction(0), Fraction(100)):
        assert not decide_le_pure(infeasible, alpha)


def test_prefix_restriction(example1):
    # x = 1 and x = 0, each as the upper rows x <= v and -x <= -v
    only_one = with_upper_rows(example1, ([1], [0], 1), ([-1], [0], -1))
    assert decide_le(only_one, Fraction(-1, 2))
    only_zero = with_upper_rows(example1, ([1], [0], 0), ([-1], [0], 0))
    assert not decide_le(only_zero, Fraction(-1, 2))
    assert decide_le(only_zero, Fraction(0))


def test_pure_extras(example1):
    # F' = {(0,0), (1,1)}; the upper row x <= 0 keeps only (0,0)
    keep_zero = with_upper_rows(example1, ([1], [0], 0))
    assert decide_le_pure(keep_zero, Fraction(0))
    assert not decide_le_pure(keep_zero, Fraction(-1))


def _scan_inputs(example1):
    """example1 plus ten acceptance-distribution instances with cells."""
    out = [example1]
    rng = random.Random(MIXED_SEED)
    while len(out) < 11:
        inst = random_instance(rng)
        if enumerate_cells(inst):
            out.append(inst)
    return out


def _decide_le(scan, alpha):
    """Whether the scan has a hit at value <= alpha (witness=False)."""
    return next(scan.hits(LE, alpha, witness=False), None) is not None


def _fresh(call, inst, alpha):
    """call's answer at alpha from a fresh scan of inst, or for value <=
    alpha, decide_le's cold floor walk."""
    return decide_le(inst, alpha) if call is _decide_le else call(DecisionScan(inst), alpha)


def test_decision_scan_matches_decide_le(example1):
    # one shared scan answering interleaved le/eq/witness queries in
    # non-monotone alpha order must match a fresh scan (for value <= alpha,
    # the cold walk) on every call
    calls = (_decide_le, decide_eq, witness_le)
    for inst in _scan_inputs(example1):
        v_star = solve_mixed(inst).infimum
        alphas = [Fraction(3), Fraction(-2), Fraction(1, 2), Fraction(-1), Fraction(0),
                  Fraction(5, 3), Fraction(-7, 2), Fraction(1, 3), Fraction(-1, 2)]
        if v_star is not None:
            alphas[3:3] = [v_star, v_star - Fraction(1, 4), v_star + Fraction(1, 8), v_star]
        scan = DecisionScan(inst)
        for k, alpha in enumerate(alphas):
            for call in calls[k % 3:] + calls[:k % 3]:
                assert call(scan, alpha) == _fresh(call, inst, alpha)


@pytest.mark.parametrize("rel, alpha", [("<", 0), (">=", -100), (">=", 100)])
def test_hits_takes_le_or_eq_only(example1, rel, alpha):
    # any other relation is the caller's error, refused before any item: on
    # example1, "<" at 0 would reach a sure hit with no witness (an internal
    # invariant error), ">=" at -100 would yield nothing, and ">=" at 100
    # would meet the LP family's refusal of the row
    hits = DecisionScan(example1).hits(rel, alpha)
    with pytest.raises(ValueError, match="value row is '<=' or '='"):
        next(hits)


def _reference_hit(scan, row, alpha):
    """The first item whose region meets the value row at alpha, by vertex scan."""
    for it in scan.items:
        rows = support.pairs(cell_region(scan.inst, it.cell)) + [row(scan.inst.e, alpha - it.shift)]
        if support.ref_strictly_feasible(rows):
            return it
    return None


def _assert_witness(inst, got, it, alpha, row):
    x, z = got
    assert x == it.cell.x
    assert all(support.row_holds(r, z.entries) for r in support.pairs(cell_region(inst, it.cell)))
    value = inst.objective_vector().dot(QVector(list(x) + list(z.entries)))
    assert value == alpha if row is row_eq else value <= alpha
    assert bilevel_feasible(inst, x, z)


def test_decision_table_matches_vertex_reference(example1):
    # each cell's region has a strictly feasible point and the LP minimum of
    # a vertex scan; then every query at the thresholds where the table
    # switches from a skip to a check to a sure hit, asked cold of one shared
    # scan
    for inst in _scan_inputs(example1):
        table = DecisionScan(inst)
        alphas = set()
        for it in table.items:
            low = it.low
            region = cell_region(inst, it.cell)
            assert support.ref_strictly_feasible(support.pairs(region))
            assert low == support.ref_lp_min(region, table.inst.e)[0]
            alphas.update(it.shift + low + delta
                          for delta in (0, Fraction(-1, 7), Fraction(1, 7)))
        v_star = solve_mixed(inst).infimum
        if v_star is not None:
            alphas.add(v_star)
        scan = DecisionScan(inst)
        for alpha in sorted(alphas, reverse=True):
            le_hit = _reference_hit(table, row_le, alpha)
            eq_hit = _reference_hit(table, row_eq, alpha)
            assert _decide_le(scan, alpha) == (le_hit is not None)
            got = witness_le(scan, alpha)
            assert (got is None) == (le_hit is None)
            if got is not None:
                _assert_witness(inst, got, le_hit, alpha, row_le)
            got = decide_eq(scan, alpha)
            assert (got is None) == (eq_hit is None)
            if got is not None:
                _assert_witness(inst, got, eq_hit, alpha, row_eq)


def _reference_decide_le(inst, alpha):
    """decide_le from the definition, sharing no code with the floor walk:
    is_valid_cell over the covering box of the upper region's vertices, then
    a vertex-barycenter strict-feasibility test of each valid cell's region
    with the row value <= alpha."""
    for cell in support.valid_cells_by_definition(inst):
        shift = sum(a * b for a, b in zip(inst.c, cell.x))
        rows = support.pairs(cell_region(inst, cell)) + [row_le(inst.e, alpha - shift)]
        if support.ref_strictly_feasible(rows):
            return True
    return False


def _assert_cold_decide_le(inst, alpha, expected=None):
    # the cold walk must build no cell index and agree with a scan and the
    # reference
    with support.no_index_build():
        cold = decide_le(inst, alpha)
    assert cold == _decide_le(DecisionScan(inst), alpha)
    assert cold == _reference_decide_le(inst, alpha)
    if expected is not None:
        assert cold == expected


def test_cold_decide_le_examples(example1):
    # example1: v* = -1 unattained; make_flipped: v* = 0 attained at (0, 0)
    for alpha, expected in ((Fraction(-8, 7), False), (Fraction(-1), False),
                            (Fraction(-6, 7), True)):
        _assert_cold_decide_le(example1, alpha, expected)
    _assert_cold_decide_le(make_flipped(), Fraction(0), True)
    for alpha in (Fraction(-5), Fraction(0), Fraction(100)):
        _assert_cold_decide_le(support.make_infeasible_upper(), alpha, False)
    # a zero objective makes the value row constant: false below 0, true at 0
    for alpha, expected in ((Fraction(-1), False), (Fraction(0), True)):
        _assert_cold_decide_le(replace(example1, c=[0], e=[0]), alpha, expected)


@settings(max_examples=25)
@given(st.integers(0, 10**6), st.fractions(min_value=-8, max_value=8, max_denominator=8))
@example(19, Fraction(0))  # the walk reaches a valid cell that misses v* - 1/7
def test_cold_decide_le_matches_reference(seed, alpha):
    # the drawn alpha, and the thresholds at and beside the infimum
    inst = random_instance(random.Random(seed))
    alphas = [alpha]
    v_star = solve_mixed(inst).infimum
    if v_star is not None:
        alphas += [v_star - Fraction(1, 7), v_star, v_star + Fraction(1, 7)]
    for a in alphas:
        _assert_cold_decide_le(inst, a)


def _pure_table_inputs(example1):
    """example1, an empty F', example1 under extra upper rows (z >= 1,
    x + z <= 2 and x = 1), and pure acceptance-distribution instances until
    ten of them are feasible."""
    out = [example1, support.make_empty_follower_pure(),
           with_upper_rows(example1, ([0], [-1], -1), ([1], [1], 2), ([1], [0], 1),
                           ([-1], [0], -1))]
    rng = random.Random(PURE_SEED)
    feasible = 0
    while feasible < 10:
        inst = random_instance(rng)
        out.append(inst)
        feasible += solve_pure(inst).status == ATTAINED
    return out


def test_pure_table_matches_decide_le_pure(example1):
    # the driver answers every query from one table listed without an alpha
    # row; each answer must equal a fresh decide_le_pure at that alpha
    for inst in _pure_table_inputs(example1):
        try:
            v_lo, v_hi = objective_bounds(inst)
        except InfeasibleRelaxationError:
            v_lo = v_hi = Fraction(0)
        v_star = solve_pure(inst).infimum
        base = v_lo if v_star is None else v_star
        table = list(pure_responses(inst))
        for alpha in (base - 1, base - Fraction(1, 2), base, base + Fraction(1, 2), v_hi):
            assert any(v <= alpha for v, _, _ in table) == decide_le_pure(inst, alpha)


# ------------------------------------------------------------------ properties


@settings(max_examples=20)
@given(st.integers(0, 10**6), st.fractions(min_value=-8, max_value=8, max_denominator=8),
       st.fractions(min_value=0, max_value=4, max_denominator=8))
def test_monotonicity(seed, alpha, gap):
    inst = random_instance(random.Random(seed))
    if decide_le(inst, alpha):
        assert decide_le(inst, alpha + gap)
    if decide_le_pure(inst, alpha):
        assert decide_le_pure(inst, alpha + gap)


@settings(max_examples=20)
@given(st.integers(0, 10**6), st.fractions(min_value=-8, max_value=8, max_denominator=8))
def test_consistency_with_cell_infima(seed, alpha):
    inst = random_instance(random.Random(seed))
    obj = inst.objective_vector()
    expected = False
    for cell in enumerate_cells(inst):
        inf, attained, _ = cell_infimum(inst, cell, obj)
        if (attained and inf <= alpha) or (not attained and inf < alpha):
            expected = True
            break
    assert decide_le(inst, alpha) == expected


@settings(max_examples=20)
@given(st.integers(0, 10**6), st.fractions(min_value=-8, max_value=8, max_denominator=4))
def test_decide_eq_witness_is_feasible(seed, value):
    inst = random_instance(random.Random(seed))
    got = decide_eq(DecisionScan(inst), value)
    if got is not None:
        x, z = got
        assert bilevel_feasible(inst, x, z)
        assert inst.objective_vector().dot(QVector(list(x) + list(z.entries))) == value


@settings(max_examples=20)
@given(st.integers(0, 10**6), st.fractions(min_value=-8, max_value=8, max_denominator=4))
def test_pure_matches_brute_force(seed, alpha):
    inst = random_instance(random.Random(seed))
    vals = brute_pure_values(inst)
    expected = any(v <= alpha for v in vals)
    assert decide_le_pure(inst, alpha) == expected
