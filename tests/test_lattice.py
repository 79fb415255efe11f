from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import support
from bilevel_exact import (DEFAULT_CONFIG, EQ, INFEASIBLE, LE, BoundednessError, Instance, LinRow,
                           LinearSystem, QVector, ResourceLimitError, SolverConfig,
                           enumerate_integers, integer_min, lp_solve, mixed_feasible, row_eq,
                           row_le, row_lt, solve_mixed)
from bilevel_exact import linear
from bilevel_exact.lattice import IntegerSearch, LexMin, integer_candidates
from bilevel_exact.linear import lp_range


def boxed_systems(dim=2, side=4):
    coeff = st.integers(-3, 3)
    row = st.tuples(st.lists(coeff, min_size=dim, max_size=dim), st.integers(-6, 6))
    def build(rows):
        built = []
        for j in range(dim):
            unit = [0] * dim
            unit[j] = 1
            built.append(row_le(unit, side))
            built.append(row_le([-v for v in unit], side))
        built.extend(row_le(c, r) for c, r in rows)
        return LinearSystem(dim, tuple(built))
    return st.lists(row, max_size=3).map(build)


def test_integer_min_interval():
    s = LinearSystem(1, (row_le([-1], Fraction(-1, 2)), row_le([1], Fraction(5, 2))))
    out = integer_min(QVector([1]), s, config=DEFAULT_CONFIG)
    assert out.tag == "optimal" and out.value == 1 and out.point.entries == (1,)
    out2 = integer_min(QVector([-1]), s, config=DEFAULT_CONFIG)
    assert out2.value == -2 and out2.point.entries == (2,)


def test_integer_min_infeasible_gap():
    # continuous relaxation nonempty but no integer point in (0, 1)
    s = LinearSystem(1, (row_le([-2], -1), row_le([2], 1)))
    assert integer_min(QVector([1]), s, config=DEFAULT_CONFIG).tag == "infeasible"


def test_integer_min_lex_tiebreak():
    box = LinearSystem(2, (row_le([1, 0], 2), row_le([0, 1], 2),
                           row_le([-1, 0], 0), row_le([0, -1], 0)))
    out = integer_min(QVector([0, 0]), box, config=DEFAULT_CONFIG)
    assert out.point.entries == (0, 0)
    # min x - y: value -2 at both (0,2); lex picks x first
    out2 = integer_min(QVector([1, -1]), box, config=DEFAULT_CONFIG)
    assert out2.value == -2 and out2.point.entries == (0, 2)


def test_integer_min_guards():
    with pytest.raises(ValueError):
        integer_min(QVector([1]), LinearSystem(1, (row_lt([1], 1),)), config=DEFAULT_CONFIG)
    with pytest.raises(BoundednessError):
        integer_min(QVector([1]), LinearSystem(1, (row_le([-1], 0),)), config=DEFAULT_CONFIG)


def test_enumerate_and_mixed_feasible_guards():
    # no boundedness proof is carried, so the cone LPs still run and still refuse
    half_line = LinearSystem(1, (row_le([-1], 0),))
    with pytest.raises(BoundednessError):
        enumerate_integers(half_line, DEFAULT_CONFIG)
    with pytest.raises(BoundednessError):
        mixed_feasible(half_line, range(1), DEFAULT_CONFIG)
    # bounded in the integer coordinate, unbounded in the continuous one: fine
    strip = LinearSystem(2, (row_le([1, 0], 1), row_le([-1, 0], 0), row_le([0, -1], 0)))
    assert mixed_feasible(strip, [0], DEFAULT_CONFIG) is not None
    with pytest.raises(BoundednessError):
        mixed_feasible(strip, [1], DEFAULT_CONFIG)
    # an integer coordinate index outside the system is refused before any LP
    for coords in ([2], [-1], range(3)):
        with pytest.raises(ValueError, match="out of range"):
            mixed_feasible(strip, coords, DEFAULT_CONFIG)
    # "=" rows reach the cone LPs as they are: x - y = 0 with 0 <= x <= 1
    # is the segment from (0, 0) to (1, 1), and with x >= 0 alone a ray
    segment = LinearSystem(2, (row_eq([1, -1], 0), row_le([1, 0], 1), row_le([-1, 0], 0)))
    assert enumerate_integers(segment, DEFAULT_CONFIG) == [QVector([0, 0]), QVector([1, 1])]
    assert mixed_feasible(segment, range(2), DEFAULT_CONFIG) in (QVector([0, 0]), QVector([1, 1]))
    ray = LinearSystem(2, (row_eq([1, -1], 0), row_le([-1, 0], 0)))
    with pytest.raises(BoundednessError):
        enumerate_integers(ray, DEFAULT_CONFIG)
    with pytest.raises(BoundednessError):
        mixed_feasible(ray, range(2), DEFAULT_CONFIG)


@settings(max_examples=40)
@given(boxed_systems(), st.lists(st.integers(-3, 3), min_size=2, max_size=2))
def test_integer_min_matches_grid_scan(sys_, obj):
    pts = support.brute_integer_points(sys_, -4, 4)
    out = integer_min(QVector(obj), sys_, config=DEFAULT_CONFIG)
    if not pts:
        assert out.tag == "infeasible"
        return
    vals = [sum(o * v for o, v in zip(obj, p)) for p in pts]
    best = min(vals)
    assert out.tag == "optimal" and out.value == best
    lex_best = min(p for p, v in zip(pts, vals) if v == best)
    assert tuple(int(v) for v in out.point.entries) == lex_best


@settings(max_examples=40)
@given(boxed_systems(), st.lists(st.integers(-3, 3), min_size=2, max_size=2))
def test_integer_min_value_matches_grid_scan(sys_, obj):
    pts = support.brute_integer_points(sys_, -4, 4)
    got = integer_min(QVector(obj), sys_, DEFAULT_CONFIG).value
    if not pts:
        assert got is None
        return
    assert got == min(sum(o * v for o, v in zip(obj, p)) for p in pts)


def test_integer_min_value_searches_past_the_first_incumbent():
    # lower branch first: the first integer node is (1, 0) of value -2, and
    # only the later upper branches reach the optimum (3, 2) of value -4
    sys_ = LinearSystem(2, (row_le([-1, 0], 0), row_le([0, -1], 0), row_le([1, 0], 3),
                            row_le([0, 1], 3), row_le([4, -4], 6), row_le([-1, 1], 1)))
    out = integer_min(QVector([-2, 1]), sys_, config=DEFAULT_CONFIG)
    assert out.value == -4 and out.point.entries == (3, 2)


def two_row_systems():
    """[-4,4]^2 with exactly two rows of wider coefficients than
    boxed_systems, so that the first integer point branch-and-bound reaches
    is more often not optimal."""
    row = st.tuples(st.lists(st.integers(-5, 5), min_size=2, max_size=2), st.integers(-10, 10))
    box = (row_le([1, 0], 4), row_le([0, 1], 4), row_le([-1, 0], 4), row_le([0, -1], 4))
    return st.lists(row, min_size=2, max_size=2).map(
        lambda rows: LinearSystem(2, box + tuple(row_le(c, r) for c, r in rows)))


@settings(max_examples=200)
@given(two_row_systems(), st.lists(st.integers(-3, 3), min_size=2, max_size=2))
def test_integer_min_value_matches_grid_scan_on_two_row_systems(sys_, obj):
    pts = support.brute_integer_points(sys_, -4, 4)
    got = integer_min(QVector(obj), sys_, DEFAULT_CONFIG).value
    want = min((sum(o * v for o, v in zip(obj, p)) for p in pts), default=None)
    assert got == want


def test_integer_min_value_guards():
    with pytest.raises(ValueError):
        integer_min(QVector([1]), LinearSystem(1, (row_lt([1], 1),)), DEFAULT_CONFIG)
    with pytest.raises(ValueError):
        integer_min(QVector([1, 0]), LinearSystem(1, (row_le([1], 1),)), DEFAULT_CONFIG)
    with pytest.raises(BoundednessError):
        integer_min(QVector([1]), LinearSystem(1, (row_le([-1], 0),)), DEFAULT_CONFIG)


def test_enumerate_integers_interval():
    s = LinearSystem(1, (row_le([-1], Fraction(-1, 2)), row_le([1], Fraction(5, 2))))
    assert [p.entries for p in enumerate_integers(s, DEFAULT_CONFIG)] == [(1,), (2,)]
    # each integer value the walk tries counts against cell_cap
    with pytest.raises(ResourceLimitError, match="^cell_cap=1:"):
        enumerate_integers(s, SolverConfig(cell_cap=1))
    assert [p.entries for p in enumerate_integers(s, SolverConfig(cell_cap=2))] == [(1,), (2,)]
    # no coordinates: the empty point, when the constant rows hold
    assert [p.entries for p in enumerate_integers(LinearSystem(0, ()))] == [()]
    assert enumerate_integers(LinearSystem(0, (row_le([], -1),))) == []


@settings(max_examples=40)
@given(boxed_systems())
def test_enumerate_integers_matches_grid_scan(sys_):
    got = [tuple(int(v) for v in p.entries) for p in enumerate_integers(sys_, DEFAULT_CONFIG)]
    assert got == support.brute_integer_points(sys_, -4, 4)
    assert got == sorted(got)


def _unit_rows(dim):
    """The rows x_j <= b and -x_j <= b of a box, as (a, rel)."""
    return [(tuple(sign * int(i == j) for i in range(dim)), LE)
            for j in range(dim) for sign in (1, -1)]


WALK_BOX = tuple(LinRow(a, 2, rel) for a, rel in _unit_rows(3))


def walk_systems():
    """[-2, 2]^3 with up to three more rows, each "<=" or "=" and nonzero in
    the first k coordinates alone: once the walk fixes those, the row is
    constant. At k = 0 it is constant from the start, and it holds or fails
    by the sign of its right-hand side."""
    row = st.tuples(st.lists(st.integers(-2, 2), min_size=3, max_size=3), st.integers(0, 3),
                    st.integers(-4, 4), st.sampled_from((LE, EQ)))
    return st.lists(row, max_size=3).map(lambda rows: LinearSystem(3, WALK_BOX + tuple(
        LinRow(tuple(a[:k]) + (0,) * (3 - k), b, rel) for a, k, b, rel in rows)))


@settings(max_examples=60, deadline=None)
@given(walk_systems(), st.sampled_from([range(0), range(1), range(2), range(3), range(1, 2),
                                        range(1, 3), range(2, 3)]))
@example(LinearSystem(3, WALK_BOX + (row_le([1, 1, 0], 1), row_eq([1, -1, 1], 0),
                                     row_le([0, 0, 0], 0))), range(3))
@example(LinearSystem(3, WALK_BOX + (row_eq([2, 0, 0], 2), row_eq([0, 0, 0], 1))), range(3))
def test_integer_candidates_lists_feasible_prefixes(sys_, coords):
    # an assignment of the coordinates in the range is listed iff the slice
    # with them fixed has a point; the range need not start at coordinate 0.
    # A row over fixed coordinates alone is constant in the walk's families,
    # which settle it. Each value tried is one cell_cap charge, and the walk
    # tries exactly the values that extend a feasible prefix feasibly
    def feasible(values):
        fixed = [row_eq([int(j == i) for j in range(3)], v) for i, v in zip(coords, values)]
        return support.ref_lp_min(sys_.with_rows(fixed), [Fraction(0)] * 3) is not None

    want = [()] if feasible(()) else []
    tried = 0
    for _ in coords:
        want = [p + (v,) for p in want for v in range(-2, 3) if feasible(p + (v,))]
        tried += len(want)
    rows, rhs = [(r.a, r.rel) for r in sys_.rows], [r.b for r in sys_.rows]
    budget = [0]
    assert integer_candidates(rows, rhs, 3, coords, DEFAULT_CONFIG, budget) == want
    assert budget == [tried]
    if tried:
        with pytest.raises(ResourceLimitError, match=f"^cell_cap={tried - 1}:"):
            integer_candidates(rows, rhs, 3, coords, SolverConfig(cell_cap=tried - 1), [0])


@pytest.mark.parametrize("dim, extra, cost, searches", [
    # pinned at once: x0 + x1 = b and the cost x0 - x1 are independent
    (2, [((1, 1), EQ), ((1, 2), LE)], (1, -1), 0),
    # pinned midway: x1 + x2 = b and the cost x1 - x2 fix x1 and x2, not x0
    (3, [((0, 1, 1), EQ), ((1, 1, 1), LE)], (0, 1, -1), 1),
    # never pinned: a zero cost and no "=" row
    (2, [((1, 2), LE), ((-1, 1), LE)], (0, 0), 2),
    # a "=" row parallel to the cost adds no rank: x1 is pinned once x0 is fixed
    (2, [((2, 2), EQ), ((1, -1), LE)], (1, 1), 1),
    # dependent "=" rows in three coordinates: rank 2 on columns 1 and 2
    (3, [((0, 1, 1), EQ), ((0, 2, 2), EQ), ((1, 0, 0), LE)], (0, 1, -1), 1),
    # the "=" rows alone pin the point, so the level search's point is read
    # off: 2 x = b, which has no integer point at an odd b
    (1, [((2,), EQ)], (-1,), 0),
    # two independent "=" rows, whose point is integer when b0 + b1 is even
    # and may leave the box
    (2, [((1, 1), EQ), ((1, -1), EQ)], (1, 2), 0),
    # the same and a dependent third "=" row, 2 x0 = b2, which holds only
    # where b2 = b0 + b1
    (2, [((1, 1), EQ), ((1, -1), EQ), ((2, 0), EQ)], (0, -1), 0),
    # a zero "=" row, as psi = 0 gives the pure table's leader, pins nothing
    (1, [((0,), EQ), ((1,), LE)], (-1,), 0),
])
def test_lex_min_searches_only_the_coordinates_left_free(dim, extra, cost, searches):
    # LexMin searches the coordinates before the first one from which the
    # "=" rows and the cost row have full column rank, and reads the rest off
    # the last point found. Over right-hand sides in [-1, 3] for the extra
    # rows, its answer is the grid scan's lex-least optimum in [-2, 2]^dim
    rows = _unit_rows(dim) + extra
    search = LexMin(dim, rows, cost)
    assert len(search.lex) == searches
    for sides in support.grid_points(len(extra), -1, 3):
        rhs = [2] * (2 * dim) + list(sides)
        system = LinearSystem(dim, [LinRow(a, b, rel) for (a, rel), b in zip(rows, rhs)])
        points = support.brute_integer_points(system, -2, 2)
        got = search.solve(rhs, DEFAULT_CONFIG)
        if not points:
            assert got is None
            continue
        values = {p: sum(c * v for c, v in zip(cost, p)) for p in points}
        level = min(values.values())
        assert got == (level, list(min(p for p in points if values[p] == level)))


def test_mixed_feasible_follower_slice():
    # the bundled example's follower at z = 1/2: integer x with x >= 1/2, 0 <= x <= 1
    s = LinearSystem(1, (row_le([-1], Fraction(-1, 2)), row_le([1], 1), row_le([-1], 0)))
    pt = mixed_feasible(s, range(1), DEFAULT_CONFIG)
    assert pt is not None and pt.entries == (1,)


def test_mixed_feasible_partial_pattern():
    # x integer, y continuous: x = 1/2 impossible, but (1, 1/2) works
    s = LinearSystem(2, (row_eq([2, 0], 2), row_eq([0, 2], 1)))
    pt = mixed_feasible(s, [0], DEFAULT_CONFIG)
    assert pt is not None
    assert pt.entries == (1, Fraction(1, 2))
    # forcing the continuous coordinate into the integer set kills it
    assert mixed_feasible(s, range(2), DEFAULT_CONFIG) is None


@settings(max_examples=40)
@given(boxed_systems())
def test_mixed_feasible_agrees_with_scan(sys_):
    # the integer coordinate is the first one, then the second one
    for i in (0, 1):
        unit = [int(j == i) for j in range(2)]
        pt = mixed_feasible(sys_, [i], DEFAULT_CONFIG)
        if pt is not None:
            assert pt[i].denominator == 1
            assert all(support.row_holds(r, pt, closed=True) for r in sys_.rows)
            continue
        # completeness: no integer value of coordinate i leaves a feasible slice
        for v in range(-4, 5):
            slice_sys = sys_.with_rows([row_eq(unit, v)])
            assert support.ref_lp_min(slice_sys, [Fraction(0), Fraction(0)]) is None


@settings(max_examples=40)
@given(boxed_systems(), st.lists(st.integers(-3, 3), min_size=2, max_size=2))
def test_integer_objectives_give_the_qvector_outcomes(sys_, obj):
    # an objective of ints, or of ints and Fractions, goes to the kernel as
    # it is, with the outcome of the same objective as a QVector
    for given_as in (tuple(obj), [Fraction(obj[0], 2), obj[1]]):
        q = QVector(given_as)
        for sense in ("min", "max"):
            assert lp_solve(sys_, given_as, sense) == lp_solve(sys_, q, sense)
        assert lp_range(sys_, given_as) == lp_range(sys_, q)
        assert integer_min(given_as, sys_, DEFAULT_CONFIG) == integer_min(q, sys_, DEFAULT_CONFIG)


@pytest.mark.parametrize("objective", [(1.0, 0), (1, 0.5), (True, 0), ("1", 0), (1,), (1, 0, 0)])
def test_objective_of_other_entries_or_length_raises(objective):
    box = LinearSystem(2, (row_le([1, 0], 2), row_le([-1, 0], 2),
                           row_le([0, 1], 2), row_le([0, -1], 2)))
    # a QVector is no way around the entry rule: 0.5 would become 1/2
    for call in (lambda: lp_solve(box, objective), lambda: lp_range(box, objective),
                 lambda: integer_min(objective, box, DEFAULT_CONFIG),
                 lambda: lp_solve(box, QVector(objective))):
        with pytest.raises(ValueError):
            call()


# one warm search over a sequence of right-hand sides: the box rows
# x_j <= s_j, -x_j <= t_j, then two rows of drawn coefficients, each "<="
# or "="; a right-hand side is (the box's, the two rows', the fixed prefix)
BOX_ROWS = _unit_rows(2)


def rhs_sequences():
    coeffs = st.lists(st.integers(-3, 3), min_size=2, max_size=2).map(tuple)
    rows = st.lists(st.tuples(coeffs, st.sampled_from((LE, EQ))), min_size=2, max_size=2)
    rhs = st.tuples(st.lists(st.integers(-2, 4), min_size=4, max_size=4),
                    st.lists(st.integers(-6, 6), min_size=2, max_size=2),
                    st.sampled_from([(), (), (-1,), (0,), (2,), (0, 1)]))
    return st.tuples(rows, st.lists(rhs, min_size=3, max_size=8))


def _value(cost, found):
    nums, den = found
    assert all(v % den == 0 for v in nums)  # an integer point
    return sum(c * v for c, v in zip(cost, nums)) // den, tuple(v // den for v in nums)


@settings(max_examples=80, deadline=None)
@given(rhs_sequences(), st.lists(st.integers(-3, 3), min_size=2, max_size=2))
@example(([((1, 1), LE), ((2, -2), EQ)],
          [([3, 3, 3, 3], [4, 0], ()),      # feasible, on the "=" row x0 = x1
           ([-1, 0, 3, 3], [4, 0], ()),     # infeasible: x0 <= -1 and x0 >= 0
           ([3, 3, 3, 3], [4, 1], ()),      # infeasible: 2 x0 - 2 x1 = 1
           ([3, 3, 3, 3], [4, 0], (2,)),    # x0 fixed at 2
           ([4, 4, 4, 4], [6, 0], ()),      # feasible again, all bounds reset
           ([3, 3, 3, 3], [4, 0], (0, 1))]),  # both fixed, off the "=" row
         [1, -2])
def test_one_warm_search_matches_the_grid_scan_and_fresh_searches(case, cost):
    rows, sequence = case
    rows = BOX_ROWS + rows
    search = IntegerSearch(2, rows, range(2), cost)
    lex = LexMin(2, rows, cost)
    for box, extra, fixed in sequence:
        rhs = box + extra
        system = LinearSystem(2, [LinRow(a, b, rel) for (a, rel), b in zip(rows, rhs)]
                              + [row_eq([int(k == i) for k in range(2)], v)
                                 for i, v in enumerate(fixed)])
        points = support.brute_integer_points(system, -4, 4)
        got = search.minimize(rhs, DEFAULT_CONFIG, fixed)
        fresh = IntegerSearch(2, rows, range(2), cost).minimize(rhs, DEFAULT_CONFIG, fixed)
        if not fixed:
            lexed = lex.solve(rhs, DEFAULT_CONFIG)
            assert lexed == LexMin(2, rows, cost).solve(rhs, DEFAULT_CONFIG)
        if not points:
            assert got is None and fresh is None
            if not fixed:
                assert lexed is None
            continue
        want = min(sum(c * v for c, v in zip(cost, p)) for p in points)
        assert _value(cost, got)[0] == _value(cost, fresh)[0] == want
        assert _value(cost, got)[1] in points
        if not fixed:
            lex_point = min(p for p in points if sum(c * v for c, v in zip(cost, p)) == want)
            assert lexed == (want, list(lex_point))


def thin_follower(K: int) -> Instance:
    """The follower's rows 2 x1 - 2 x2 = 1 in [0, K]^2, which no integer x
    meets, with the same box as upper rows on x and 0 <= z <= 1."""
    return Instance(n=2, d=1, A=[[2, -2], [-2, 2], [1, 0], [0, 1], [-1, 0], [0, -1]],
                    B=[[0]] * 6, u=[1, -1, K, K, 0, 0],
                    C=[[1, 0], [0, 1], [-1, 0], [0, -1], [0, 0]], D=[[0]] * 4 + [[1]],
                    p=[K, K, 0, 0, 1], c=[0, 0], e=[1], psi=[1, 1])


def test_thin_follower_takes_linear_kernel_work():
    # the mixed-feasibility screen proves the thin follower empty in 4K + 1
    # nodes; each node is one warm solve of the same rows, so the kernel's
    # basis exchanges (linear._exchange calls) stay at about one per node:
    # 79,606 at K = 100 while each branch appended a row to a cold LP
    K = 100
    exchanges = []
    exchange = linear._exchange
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linear, "_exchange", lambda *args: exchanges.append(1) or exchange(*args))
        assert solve_mixed(thin_follower(K)).status == INFEASIBLE
    assert len(exchanges) <= 4 * K
    assert solve_mixed(thin_follower(1000)).status == INFEASIBLE
