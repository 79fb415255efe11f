from fractions import Fraction
from operator import mul

import pytest
from hypothesis import given, note, settings
from hypothesis import strategies as st

import support
from bilevel_exact import (LE, EQ, LT, InternalInvariantError, LinearSystem,
                           QVector, ResourceLimitError,
                           affinely_independent_vertices, integer_min, lp_solve,
                           recession_bounded, row_eq,
                           row_le, row_lt, strict_feasible_point, vertices)
from bilevel_exact import linear

BOX = LinearSystem(2, (row_le([1, 0], 2), row_le([0, 1], 3),
                       row_le([-1, 0], 0), row_le([0, -1], 0)))


def small_systems():
    """Random closed systems in a [-5,5] box so every instance is bounded."""
    coeff = st.integers(-3, 3)
    row = st.tuples(st.lists(coeff, min_size=2, max_size=2), st.integers(-6, 6),
                    st.sampled_from(("le", "eq")))
    def build(rows):
        built = [row_le([1, 0], 5), row_le([0, 1], 5), row_le([-1, 0], 5), row_le([0, -1], 5)]
        for coeffs, rhs, rel in rows:
            built.append(row_eq(coeffs, rhs) if rel == "eq" else row_le(coeffs, rhs))
        return LinearSystem(2, tuple(built))
    return st.lists(row, max_size=4).map(build)


def test_lp_box_corner():
    out = lp_solve(BOX, QVector([1, 1]), "max")
    assert out.tag == "optimal"
    assert out.value == 5
    assert out.point.entries == (Fraction(2), Fraction(3))


def test_lp_min_with_equality():
    sys_ = BOX.with_rows([row_eq([1, 1], 3)])
    out = lp_solve(sys_, QVector([1, 0]), "min")
    assert out.value == 0
    assert out.point.entries == (Fraction(0), Fraction(3))


def test_lp_infeasible_and_unbounded():
    assert lp_solve(LinearSystem(1, (row_le([1], 0), row_le([-1], -1))),
                    QVector([1]), "min").tag == "infeasible"
    assert lp_solve(LinearSystem(1, (row_le([-1], 0),)),
                    QVector([1]), "max").tag == "unbounded"


def test_lp_range(monkeypatch):
    # lp_range solves one-shot families, the minimum's and then the
    # maximum's, and builds no QVector point: each solve is recorded by its
    # sense, read off the family's cost, and building a QVector fails
    senses = []
    solve = linear.RhsFamily.solve

    def recording(family, rhs):
        senses.append("min" if family.cost == expected else "max")
        return solve(family, rhs)

    def no_point(*args):
        raise AssertionError("lp_range built a QVector")

    monkeypatch.setattr(linear.RhsFamily, "solve", recording)
    monkeypatch.setattr(linear, "QVector", no_point)
    # an empty system: None after the minimization alone
    expected = [1, 0]
    assert linear.lp_range(BOX.with_rows([row_le([1, 1], -1)]), (1, 0)) is None
    assert senses == ["min"]
    # a box: the exact range, minimum first
    senses.clear()
    expected = [1, -4]
    assert linear.lp_range(BOX, (Fraction(1, 2), -2)) == (-6, 1)
    assert senses == ["min", "max"]
    # an unbounded direction is a broken invariant; unbounded below, the
    # maximization is never solved
    half_line = LinearSystem(1, (row_le([-1], 0),))
    for objective, solved in (([1], ["min", "max"]), ([-1], ["min"])):
        senses.clear()
        expected = objective
        with pytest.raises(InternalInvariantError, match="unbounded"):
            linear.lp_range(half_line, objective)
        assert senses == solved


def test_lp_rejects_strict_rows():
    with pytest.raises(ValueError):
        lp_solve(LinearSystem(1, (row_lt([1], 1),)), QVector([1]), "min")


def test_lp_fractional_data():
    sys_ = LinearSystem(1, (row_le([Fraction(2, 3)], Fraction(1, 2)), row_le([-1], 0)))
    out = lp_solve(sys_, QVector([-1]), "min")
    assert out.value == Fraction(-3, 4)


@settings(max_examples=60)
@given(small_systems(), st.lists(st.integers(-3, 3), min_size=2, max_size=2))
def test_lp_matches_vertex_scan(sys_, obj):
    ref = support.ref_lp_min(sys_, [Fraction(v) for v in obj])
    out = lp_solve(sys_, QVector(obj), "min")
    if ref is None:
        assert out.tag == "infeasible"
    else:
        assert out.tag == "optimal"
        assert out.value == ref[0]
        assert sys_.satisfied_by(out.point)


def boxed_systems():
    """Closed systems of dim 3 or 4 in the box [-4, 4], with fractional
    coefficients and right-hand sides of both signs. An equality row may
    come twice, the copy scaled by 1 or -2: the four sides of the pair are
    parallel, are violated together and tie in the ratio test, and no basis
    can hold two of them."""
    frac = st.builds(Fraction, st.integers(-6, 6), st.sampled_from((1, 1, 2, 3)))
    row = st.tuples(st.lists(frac, min_size=4, max_size=4), frac,
                    st.sampled_from(("le", "eq", "twice")), st.sampled_from((1, -2)))

    def build(dim, rows):
        built = []
        for j in range(dim):
            unit = [0] * dim
            unit[j] = 1
            built += [row_le(unit, 4), row_le([-v for v in unit], 4)]
        for coeffs, rhs, rel, scale in rows:
            coeffs = coeffs[:dim]
            if rel == "le":
                built.append(row_le(coeffs, rhs))
                continue
            built.append(row_eq(coeffs, rhs))
            if rel == "twice":
                built.append(row_eq([scale * v for v in coeffs], scale * rhs))
        return LinearSystem(dim, tuple(built))
    return st.builds(build, st.integers(3, 4), st.lists(row, min_size=1, max_size=4))


def _no_purification(*args):
    raise AssertionError("purification reached on a system with unit rows")


@settings(max_examples=60, deadline=None)
@given(boxed_systems(), st.lists(st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3)),
                                 min_size=4, max_size=4))
def test_lp_matches_vertex_scan_in_three_and_four_dimensions(sys_, obj):
    # every coordinate has unit rows, so the kernel starts without an
    # artificial row and ends on a vertex without purification
    obj = obj[:sys_.dim]
    verts = {tuple(p) for p in support.ref_vertices(sys_)}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linear, "_purify_to_vertex", _no_purification)
        for sense, sign in (("min", 1), ("max", -1)):
            ref = support.ref_lp_min(sys_, [sign * v for v in obj])
            out = lp_solve(sys_, QVector(obj), sense)
            if ref is None:
                assert out.tag == "infeasible"
                continue
            assert out.tag == "optimal"
            assert out.value == sign * ref[0]
            assert tuple(out.point.entries) in verts


def test_exchange_rejects_an_inconsistent_adjugate():
    # a warm start on the basis B = I of rows 0 and 1 whose adjugate I over
    # det 2 is not det B^-1 (it claims B = 2I): the point (1, 1) violates
    # x + y <= 1, which enters with alpha = (1, 1); both duals are 1, so
    # the tie goes to basis row 0, and the exchange sends entry (0, 1) to
    # (1 * 0 - 1 * 1) / 2
    A = [(1, 0), (0, 1), (1, 1)]
    with pytest.raises(InternalInvariantError, match="lost integrality"):
        linear._dual_simplex_min(2, A, [2, 2, 1], linear._kernel_form(2, A), (-1, -1),
                                 ((0, 1), [[1, 0], [0, 1]], 2))


def _fraction_inverse(rows):
    """The inverse of a nonsingular square matrix by Fraction Gauss-Jordan."""
    n = len(rows)
    aug = [[Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(rows)]
    for col in range(n):
        piv = next(i for i in range(col, n) if aug[i][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        aug[col] = [v / aug[col][col] for v in aug[col]]
        aug = [r if i == col else [a - r[col] * b for a, b in zip(r, aug[col])]
               for i, r in enumerate(aug)]
    return [r[n:] for r in aug]


def kernel_chains():
    """(dim, boxed, rows, cost, shifts) in 2 to 4 variables: with boxed, the
    rows -2 <= x_j <= 2 come first (without them the kernel starts from
    artificial rows), then up to five random rows, whose right-hand sides
    each of up to four shifts gives."""
    def case(dim):
        vector = st.lists(st.integers(-4, 4), min_size=dim, max_size=dim).map(tuple)
        return st.tuples(st.just(dim), st.booleans(), st.lists(vector, max_size=5), vector,
                         st.lists(st.lists(st.integers(-6, 6), min_size=5, max_size=5),
                                  min_size=1, max_size=4))
    return st.integers(2, 4).flatmap(case)


@settings(max_examples=80, deadline=None)
@given(kernel_chains())
def test_exchanges_keep_the_inverse(case):
    # each right-hand side starts from the last basis the kernel returned, so
    # its exchanges go on from an earlier solve's; every returned basis
    # (ids, adj, det) has det > 0 and adj / det equal to the inverse of its
    # rows, by Fraction Gauss-Jordan, and its point is that inverse times b_B
    dim, boxed, extra, cost, shifts = case
    A = [tuple(s * int(i == j) for i in range(dim)) for j in range(dim) for s in (1, -1)]
    A = (A if boxed else []) + [a for a in extra if any(a)]
    units = linear._kernel_form(dim, A)
    start, exchanges = None, 0
    for shift in shifts:
        b = [2] * (2 * dim if boxed else 0) + shift[:len(A) - (2 * dim if boxed else 0)]
        tag, nums, den, basis, made = linear._dual_simplex_min(dim, A, b, units, cost, start)
        exchanges += made
        if basis is None:
            continue
        ids, adj, det = basis
        inverse = _fraction_inverse([A[k] for k in ids])
        assert det > 0 and [[Fraction(v, det) for v in row] for row in adj] == inverse
        assert [Fraction(v, den) for v in nums] == [
            sum(row[r] * b[k] for r, k in enumerate(ids)) for row in inverse]
        start = basis
    note(f"exchanges: {exchanges}")


def _cross_polytope(dim, radius):
    """The rows sum_j s_j x_j <= radius over all sign vectors s: no row is a
    unit row, so the kernel starts from artificial rows alone."""
    signs = [[]]
    for _ in range(dim):
        signs = [s + [1] for s in signs] + [s + [-1] for s in signs]
    return [row_le(s, radius) for s in signs]


@settings(max_examples=30)
@given(st.integers(2, 4), st.integers(1, 5), st.lists(st.tuples(
    st.lists(st.sampled_from((-3, -2, -1, 1, 2, 3)), min_size=4, max_size=4),
    st.integers(-4, 4)), max_size=3),
    st.lists(st.integers(-3, 3), min_size=4, max_size=4))
def test_lp_without_unit_rows_matches_vertex_scan(dim, radius, extra, obj):
    sys_ = LinearSystem(dim, _cross_polytope(dim, radius)
                        + [row_le(a[:dim], b) for a, b in extra])
    obj = obj[:dim]
    verts = {tuple(p) for p in support.ref_vertices(sys_)}
    values = [sum(c * x for c, x in zip(obj, p)) for p in verts]
    for sense, best in (("min", min), ("max", max)):
        out = lp_solve(sys_, QVector(obj), sense)
        if not verts:
            assert out.tag == "infeasible"
            continue
        assert out.tag == "optimal"
        assert out.value == best(values)
        assert tuple(out.point.entries) in verts


def test_far_vertex_without_unit_rows():
    # no row is a unit row and every row has sum |a| + |b| <= 12, yet the
    # maximum of x + y is at the vertex (35, 25): the artificial start rows
    # must lie beyond Hadamard's bound, not beyond the row sizes
    wedge = LinearSystem(2, (row_le([3, -4], 5), row_le([-2, 3], 5), row_le([-1, -1], 1)))
    out = lp_solve(wedge, QVector([1, 1]), "max")
    assert out.tag == "optimal"
    assert (out.value, out.point.entries) == (60, (35, 25))
    assert out.value == -support.ref_lp_min(wedge, [-1, -1])[0]


def test_lp_over_no_rows():
    for dim in (2, 3, 4):
        empty = LinearSystem(dim, ())
        assert lp_solve(empty, QVector([0] * dim), "min").tag == "optimal"
        assert lp_solve(empty, QVector([0] * dim), "min").value == 0
        for sense in ("min", "max"):
            assert lp_solve(empty, QVector([0] * (dim - 1) + [1]), sense).tag == "unbounded"


@settings(max_examples=80)
@given(st.integers(2, 3), st.lists(st.tuples(
    st.lists(st.integers(-3, 3), min_size=3, max_size=3), st.integers(0, 4)),
    min_size=1, max_size=4),
    st.lists(st.integers(-3, 3), min_size=3, max_size=3))
def test_lp_on_unbounded_regions_matches_vertex_scan(dim, rows, obj):
    # 0 meets every row (rhs >= 0), so the LP is unbounded exactly when the
    # truncated cone {a . d <= 0, |d_j| <= 1} has a d with obj . d < 0; a
    # bounded optimum is attained within Hadamard's bound 13^dim, so a box
    # of that size leaves the optimal value as it is
    rows = [(a[:dim], b) for a, b in rows]
    obj = obj[:dim]
    sys_ = LinearSystem(dim, [row_le(a, b) for a, b in rows])
    box = []
    for j in range(dim):
        unit = [0] * dim
        unit[j] = 1
        box.append(unit)
        box.append([-v for v in unit])
    cone = LinearSystem(dim, [row_le(a, 0) for a, _ in rows] + [row_le(u, 1) for u in box])
    out = lp_solve(sys_, QVector(obj), "min")
    if support.ref_lp_min(cone, obj)[0] < 0:
        assert out.tag == "unbounded"
        return
    assert out.tag == "optimal"
    assert sys_.satisfied_by(out.point)
    boxed = sys_.with_rows([row_le(u, 13 ** dim) for u in box])
    assert out.value == support.ref_lp_min(boxed, obj)[0]
    verts = {tuple(p) for p in support.ref_vertices(sys_)}
    assert not verts or tuple(out.point.entries) in verts


def test_optimal_face_with_a_line_is_purified_in_place(monkeypatch):
    # x_2 has no unit row, so its artificial row stays in the final basis at
    # a zero dual: the kernel's point is optimal, not a vertex, and the
    # purification finds no row that bounds the line it lies on
    calls = []
    purify = linear._purify_to_vertex
    monkeypatch.setattr(linear, "_purify_to_vertex",
                        lambda *args: calls.append(args) or purify(*args))
    half_plane = LinearSystem(2, (row_le([-1, 0], 0),))
    out = lp_solve(half_plane, QVector([1, 0]), "min")
    assert (out.tag, out.value, len(calls)) == ("optimal", 0, 1)
    assert out.point[0] == 0
    # x_2 >= x_1 bounds the ray that the kernel's point ends on: purification
    # slides down it onto the vertex (0, 0)
    calls.clear()
    out = lp_solve(half_plane.with_rows([row_le([1, -1], 0)]), QVector([1, 0]), "min")
    assert (out.tag, out.value, out.point.entries, len(calls)) == ("optimal", 0, (0, 0), 1)


@settings(max_examples=30)
@given(st.integers(2, 4), st.lists(st.integers(-2, 2), min_size=4, max_size=4),
       st.lists(st.lists(st.integers(-3, 3), min_size=4, max_size=4), min_size=4, max_size=7),
       st.lists(st.integers(-3, 3), min_size=4, max_size=4))
def test_degenerate_vertex_matches_vertex_scan(dim, v, normals, obj):
    # many rows a . x <= a . v meet at v, inside the box |x_j - v_j| <= 3
    v, obj = v[:dim], obj[:dim]
    rows = [row_le(a[:dim], sum(x * y for x, y in zip(a, v))) for a in normals]
    for j in range(dim):
        unit = [0] * dim
        unit[j] = 1
        rows += [row_le(unit, v[j] + 3), row_le([-u for u in unit], 3 - v[j])]
    sys_ = LinearSystem(dim, rows)
    verts = {tuple(p) for p in support.ref_vertices(sys_)}
    for objective in ([0] * dim, obj):
        values = [sum(c * x for c, x in zip(objective, p)) for p in verts]
        for sense, best in (("min", min), ("max", max)):
            out = lp_solve(sys_, QVector(objective), sense)
            assert out.tag == "optimal"
            assert out.value == best(values)
            assert tuple(out.point.entries) in verts


def test_strict_point_examples():
    s = LinearSystem(1, (row_lt([-1], 0), row_lt([1], 1)))
    pt = strict_feasible_point(s)
    assert pt is not None and 0 < pt[0] < 1
    # closed equality pinning the point, strict row still satisfiable
    s2 = LinearSystem(1, (row_eq([1], 0), row_lt([1], 1)))
    pt2 = strict_feasible_point(s2)
    assert pt2 is not None and pt2[0] == 0
    # empty: x < 0 and x > 0
    s3 = LinearSystem(1, (row_lt([1], 0), row_lt([-1], 0)))
    assert strict_feasible_point(s3) is None
    # closed-feasible but strictly empty: 0 <= x with x < 0
    s4 = LinearSystem(1, (row_le([-1], 0), row_lt([1], 0)))
    assert strict_feasible_point(s4) is None


@settings(max_examples=40)
@given(small_systems(), st.lists(st.tuples(
    st.lists(st.integers(-2, 2), min_size=2, max_size=2), st.integers(-4, 4)),
    max_size=2))
def test_strict_point_satisfies_all_rows(sys_, strict_rows):
    sys_ = sys_.with_rows([row_lt(c, r) for c, r in strict_rows])
    pt = strict_feasible_point(sys_)
    if pt is not None:
        assert sys_.satisfied_by(pt)


def test_vertices_box():
    vs = [v.entries for v in vertices(BOX)]
    assert vs == [(0, 0), (0, 3), (2, 0), (2, 3)]


def test_vertices_take_closure_of_strict_rows():
    half_open = LinearSystem(1, (row_lt([1], 1), row_le([-1], 0)))
    assert [v.entries for v in vertices(half_open)] == [(0,), (1,)]


def test_vertices_unbounded_raises():
    with pytest.raises(ValueError):
        vertices(LinearSystem(1, (row_le([-1], 0),)))


@settings(max_examples=40)
@given(small_systems())
def test_vertices_match_brute_enumeration(sys_):
    got = sorted(tuple(v.entries) for v in vertices(sys_))
    want = sorted(tuple(p) for p in support.ref_vertices(sys_))
    assert got == want


def test_vertices_basis_cap_names_the_cap():
    # C(4, 2) = 6 bases on the box; the cap error names the cap
    with support.caps(basis_cap=0), pytest.raises(ResourceLimitError, match="^basis_cap=0:"):
        vertices(BOX)
    with support.caps(basis_cap=6):
        assert len(vertices(BOX)) == 4


def walk_systems():
    """Closed systems of dim 1-3 in a [-4,4] box with rows of every relation;
    equality rows and opposite pairs make lower-dimensional regions."""
    def build(dim, rows):
        built = []
        for j in range(dim):
            unit = [0] * dim
            unit[j] = 1
            built += [row_le(unit, 4), row_le([-v for v in unit], 4)]
        for coeffs, rhs, rel in rows:
            coeffs = coeffs[:dim]
            if rel == "pair":
                built += [row_le(coeffs, rhs), row_le([-v for v in coeffs], -rhs)]
            else:
                built.append({"le": row_le, "eq": row_eq, "lt": row_lt}[rel](coeffs, rhs))
        return LinearSystem(dim, tuple(built))
    row = st.tuples(st.lists(st.integers(-3, 3), min_size=3, max_size=3), st.integers(-5, 5),
                    st.sampled_from(("le", "eq", "lt", "pair")))
    return st.builds(build, st.integers(1, 3), st.lists(row, max_size=3))


def _walk(sys_):
    """affinely_independent_vertices over the rows and right-hand sides of sys_."""
    return affinely_independent_vertices(sys_.dim, sys_.rows, sys_.rhs)


def _walk_counting_lps(sys_):
    """_walk(sys_) and the families of its LPs: the walk solves each LP as
    one RhsFamily solve."""
    calls = []
    solve = linear.RhsFamily.solve

    def counting(family, rhs):
        calls.append(family)
        return solve(family, rhs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linear.RhsFamily, "solve", counting)
        return _walk(sys_), calls


@settings(max_examples=80)
@given(walk_systems())
def test_affinely_independent_vertices_match_vertex_scan(sys_):
    (k, verts), calls = _walk_counting_lps(sys_)
    assert len(calls) <= 2 * sys_.dim + 1
    ref = [tuple(p) for p in support.ref_vertices(sys_)]
    if not ref:
        assert (k, verts) == (0, [])
        return
    assert k == len(verts) == 1 + support.affine_dimension(ref)
    assert all(tuple(v.entries) in ref for v in verts)
    assert support.affine_dimension([v.entries for v in verts]) == k - 1


def test_affinely_independent_counts():
    k, verts = _walk(BOX)
    assert k == 3 and len(verts) == 3
    point = LinearSystem(2, (row_eq([1, 0], 1), row_eq([0, 1], 2)))
    k1, v1 = _walk(point)
    assert k1 == 1 and v1[0].entries == (1, 2)
    segment = BOX.with_rows([row_eq([0, 1], 1)])
    k2, _ = _walk(segment)
    assert k2 == 2


def test_pinned_point_slice_ends_the_walk_after_one_lp():
    # x + y = 2 leaves the direction (1, -1); x <= 1 and y <= 1, both tight
    # at (1, 1), bound it on opposite sides, so (1, 1) is the whole region
    point = BOX.with_rows([row_eq([1, 1], 2), row_le([1, 0], 1), row_le([0, 1], 1)])
    (k, verts), calls = _walk_counting_lps(point)
    assert (k, [v.entries for v in verts], len(calls)) == (1, [(1, 1)], 1)


def test_segment_slice_still_walks():
    # at v0 = (2, 0) the tight rows x <= 2 and y >= 0 bound (1, -1) on the
    # same side: no pin, and the walk finds the segment's other end
    segment = BOX.with_rows([row_eq([1, 1], 2)])
    (k, verts), calls = _walk_counting_lps(segment)
    assert (k, [v.entries for v in verts]) == (2, [(2, 0), (0, 2)])
    assert len(calls) <= 2 * segment.dim + 1


def test_affinely_independent_vertices_check_their_input():
    # rows and right-hand sides of other lengths, and a row of another
    # length than dim, raise the family's ValueError naming the mismatch,
    # before any LP
    rows = [((1, 0), LE), ((0, 1), LE), ((-1, -1), LE)]
    with pytest.raises(ValueError, match="^3 rows but 2 right-hand sides$"):
        affinely_independent_vertices(2, rows, [1, 1])
    with pytest.raises(ValueError, match="^3 rows but 4 right-hand sides$"):
        affinely_independent_vertices(2, rows, [1, 1, 0, 5])
    with pytest.raises(ValueError, match="^a row of 3 entries for dim = 2$"):
        affinely_independent_vertices(2, rows + [((1, 1, 1), LE)], [1, 1, 0, 5])
    k, verts = affinely_independent_vertices(2, rows, [1, 1, 0])
    assert k == 3 and sorted(v.entries for v in verts) == [(-1, 1), (1, -1), (1, 1)]


def test_affinely_independent_vertices_empty_and_unbounded():
    empty = BOX.with_rows([row_le([1, 1], -1)])
    assert _walk(empty) == (0, [])
    with pytest.raises(ValueError):
        _walk(LinearSystem(1, (row_le([-1], 0),)))
    # unbounded, yet each minimization of the walk finds a vertex off v0's
    # level: only the maximizations see the unbounded direction
    wedge = LinearSystem(2, (row_le([-1, -2], 1), row_le([-1, -1], 1), row_le([-1, 0], 2),
                             row_le([2, -2], 3)))
    with pytest.raises(ValueError):
        _walk(wedge)


def test_derived_systems_check_only_new_rows():
    # the constructor checks every row, and a derived system is built
    # through it, so with_rows rejects a row it adds of another dimension or
    # kind; a derived system keeps its rows in order
    with pytest.raises(ValueError):
        LinearSystem(2, (row_le([1], 0),))
    with pytest.raises(ValueError):
        BOX.with_rows([row_le([1, 0, 0], 1)])
    with pytest.raises(ValueError):
        BOX.with_rows(["x <= 1"])
    strict = BOX.with_rows([row_lt([1, 1], 4)])
    grown = strict.with_rows([row_eq([1, -1], 0)])
    assert support.pairs(grown) == support.pairs(strict) + [row_eq([1, -1], 0)]
    assert strict.closure() == BOX.with_rows([row_le([1, 1], 4)])
    assert BOX.with_rows([]) == BOX


def test_recession_bounded():
    assert recession_bounded([(1,), (-1,)], 1)
    assert not recession_bounded([(1,), (1,)], 1)
    assert not recession_bounded([(1, 0), (-1, 0), (0, 1)], 2)
    assert recession_bounded([(1, 1), (-1, 0), (0, -1)], 2)


def fractional_systems():
    """Closed systems with non-integral Fraction coefficients and rhs, boxed in [-5,5]^2."""
    frac = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 5))
    row = st.tuples(st.lists(frac, min_size=2, max_size=2), frac,
                    st.sampled_from(("le", "eq")))
    def build(rows):
        built = [row_le([1, 0], 5), row_le([0, 1], 5), row_le([-1, 0], 5), row_le([0, -1], 5)]
        for coeffs, rhs, rel in rows:
            built.append(row_eq(coeffs, rhs) if rel == "eq" else row_le(coeffs, rhs))
        return LinearSystem(2, tuple(built))
    return st.lists(row, max_size=4).map(build)


@settings(max_examples=60)
@given(fractional_systems(), st.lists(st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3)),
                                      min_size=2, max_size=2))
def test_lp_fractional_rows_match_vertex_scan(sys_, obj):
    ref = support.ref_lp_min(sys_, obj)
    out = lp_solve(sys_, QVector(obj), "min")
    if ref is None:
        assert out.tag == "infeasible"
    else:
        assert out.tag == "optimal"
        assert out.value == ref[0]
        assert all(support.row_holds(r, out.point, closed=True) for r in support.pairs(sys_))


def test_scaled_row_is_integral_and_equivalent():
    r = row_le([Fraction(2, 3), Fraction(-1, 4)], Fraction(5, 6))
    assert r == (((8, -3), LE), 10)
    one = LinearSystem(2, [r])
    assert one.satisfied_by([Fraction(5, 4), 0]) and not one.satisfied_by([Fraction(13, 10), 0])
    closed = LinearSystem(1, [row_lt([Fraction(1, 2)], Fraction(1, 2))]).closure()
    assert (closed.rows, closed.rhs) == ((((1,), LE),), (1,))
    # no gcd reduction: an integral row keeps its coefficients as given
    assert row_le([2, 4], 6) == (((2, 4), LE), 6)


@pytest.mark.parametrize("pair, message", [
    ((((Fraction(1, 2), 0), LE), 1), "integer coefficients"),
    ((((1, 0), LE), Fraction(1, 2)), "integer coefficients"),
    ((((True, 0), LE), 1), "integer coefficients"),
    ((((1, 0), LE), False), "integer coefficients"),
    ((((1, 0), ">="), 1), "^unknown relation '>='$"),
    ((((1, 0, 0), LE), 1), "^row of dim 3 in system of dim 2$"),
    ((((1,), EQ), 1), "^row of dim 1 in system of dim 2$"),
], ids=["fraction coefficient", "fraction rhs", "bool coefficient", "bool rhs",
        "unknown relation", "long row", "short row"])
def test_system_takes_integer_rows_of_its_dim(pair, message):
    # the constructor takes the integer form only, a known relation and
    # rows of its dim, wherever the row stands; row_le, row_eq and row_lt
    # take rationals
    for pairs in ([pair], [row_le([1, 1], 2), pair, row_lt([0, 1], 3)]):
        with pytest.raises(ValueError, match=message):
            LinearSystem(2, pairs)
    assert LinearSystem(2, [(([1, 0], LT), 3)]).rows == (((1, 0), LT),)


@pytest.mark.parametrize("build", (row_le, row_eq, row_lt))
@pytest.mark.parametrize("bad", (0.1, True, "1/2"))
def test_row_builders_reject_other_entries(build, bad):
    # a float, a bool or a str, as a coefficient or as the right-hand side,
    # raises as it does in an objective, rather than becoming a rational
    for coeffs, rhs in (([bad, 2], 1), ([1, 2], bad)):
        with pytest.raises(ValueError):
            build(coeffs, rhs)


# constant rows 0 rel b, built from rational data, and whether each holds
CONSTANT_ROWS = [(row_le, 0, True), (row_le, Fraction(-1, 3), False),
                 (row_eq, 0, True), (row_eq, Fraction(1, 7), False),
                 (row_lt, 0, False), (row_lt, Fraction(1, 9), True)]


def _family_solve(sys_, cost):
    return linear.RhsFamily(sys_.dim, sys_.rows, cost).solve(sys_.rhs)


def _family_point(sys_):
    return linear.StrictFamily(sys_.dim, sys_.rows).point(sys_.rhs)


@pytest.mark.parametrize("dim", (1, 2))
@pytest.mark.parametrize("build, b, holds", CONSTANT_ROWS)
def test_families_settle_constant_rows(dim, build, b, holds):
    # a constant row, first, in the middle or last, leaves every outcome as
    # it is without the row when it holds, and makes it infeasible (None for
    # a point) when it fails
    constant = build([0] * dim, b)
    units = [tuple(int(i == j) for i in range(dim)) for j in range(dim)]
    box = [row_le(u, 2) for u in units] + [row_le([-v for v in u], 1) for u in units]
    strict = box + [row_lt([1] * dim, 2)]
    cost = tuple(-j - 1 for j in range(dim))
    for at in (0, 1, len(box)):
        closed = LinearSystem(dim, box[:at] + [constant] + box[at:])
        lifted = LinearSystem(dim, strict[:at] + [constant] + strict[at:])
        want = _family_solve(LinearSystem(dim, box), cost)
        assert _family_solve(closed, cost) == (want if holds else ("infeasible", None, None))
        want = _family_point(LinearSystem(dim, strict))
        assert want is not None and _family_point(lifted) == (want if holds else None)
        for system, base in ((closed, box), (lifted, strict)):
            want = strict_feasible_point(LinearSystem(dim, base))
            assert strict_feasible_point(system) == (want if holds else None)
        if constant[0][1] != LT:
            want = lp_solve(LinearSystem(dim, box), cost)
            got = lp_solve(closed, cost)
            assert (got.tag, got.value, got.point) == (
                (want.tag, want.value, want.point) if holds else ("infeasible", None, None))


@pytest.mark.parametrize("rel, held, failed", [(LE, 0, -1), ("=", 0, 1), ("<", 1, 0)])
def test_rhs_family_settles_its_constant_rows_at_every_right_hand_side(rel, held, failed):
    # one family, its constant row holding, failing and holding again: the
    # failing solves are infeasible and leave the warm start alone, so every
    # other solve matches the family without the row; x <= -1 has a nonzero
    # coefficient and is a live row
    rows = [((2, 1), LE), ((1, 3), LE), ((0, 0), rel), ((-1, 0), LE), ((0, -1), LE)]
    family = linear.RhsFamily(2, rows, (-1, -1))
    without = linear.RhsFamily(2, rows[:2] + rows[3:], (-1, -1))
    for top, b in ((9, held), (9, failed), (30, held), (9, failed), (9, held)):
        got = family.solve([8, top, b, 0, 0])
        if b == failed:
            assert got == ("infeasible", None, None)
        else:
            assert got == without.solve([8, top, 0, 0])
    live = lp_solve(BOX.with_rows([row_le([1, 0], -1)]), (-1, 0))
    assert live.tag == "infeasible"
    live = lp_solve(BOX.with_rows([row_le([1, 0], 1)]), (-1, 0))
    assert live.value == -1


@settings(max_examples=60)
@given(small_systems(), st.lists(st.tuples(st.integers(0, 6), st.integers(-1, 2)), max_size=3))
def test_strict_point_without_nonconstant_strict_rows_matches_reference(sys_, constants):
    # closed-only systems (no draws), and systems whose strict rows are all
    # constant, 0 < b holding for b > 0 and failing otherwise, take the
    # strict lift like any other: a point exactly when the vertex-scan
    # reference finds one, meeting every row
    rows = support.pairs(sys_)
    for at, b in constants:
        rows.insert(at, row_lt([0, 0], b))
    with_constants = LinearSystem(2, rows)
    pt = strict_feasible_point(with_constants)
    assert (pt is not None) == support.ref_strictly_feasible(rows)
    assert pt is None or with_constants.satisfied_by(pt)


def test_projection_check_takes_its_rows_as_they_are(monkeypatch):
    # both callers of the cone check pass closed rows, so it builds no
    # closed copy of them, and a strict row raises lp_range's ValueError
    def refuse(self):
        raise AssertionError("a closed copy was built")

    monkeypatch.setattr(LinearSystem, "closure", refuse)
    assert linear._projection_bounded(BOX, range(2))
    assert integer_min((1, 1), BOX).value == 0
    with pytest.raises(ValueError, match="closed rows only"):
        linear._projection_bounded(BOX.with_rows([row_lt([1, 1], 1)]), range(2))


def test_lp_reverification_is_fatal(monkeypatch):
    # a kernel vertex off the feasible region must not go unnoticed:
    # (6/2, 0) lies outside the box's x <= 2
    monkeypatch.setattr(linear, "_dual_simplex_min",
                        lambda *args: ("optimal", [6, 0], 2, ((0, 1), [[1, 0], [0, 1]], 1), 0))
    with pytest.raises(InternalInvariantError):
        lp_solve(BOX, QVector([1, 1]), "min")


BOX_ROWS = [((1, 0), LE), ((0, 1), LE), ((-1, 0), LE), ((0, -1), LE)]


@pytest.mark.parametrize("build, message", [
    (lambda: linear.RhsFamily(2, [((2, 3, 7), LE)] + BOX_ROWS, (-1, -1)), "entries for dim = "),
    (lambda: linear.RhsFamily(2, [((2, 3), LE)] + BOX_ROWS, (-1,)), "entries for dim = "),
    (lambda: linear.StrictFamily(2, [((1,), "<")] + BOX_ROWS), "entries for dim = "),
    (lambda: linear.RhsFamily(2, [((1, 0, 5), LE)] + BOX_ROWS, (-1, -1)), "entries for dim = "),
    (lambda: linear.RhsFamily(2, BOX_ROWS, (-1, -1)).with_cost((1, 1, 1)), "entries for dim = "),
    (lambda: linear.RhsFamily(2, BOX_ROWS, (-1, -1)).solve([2, 3, 0, 0, 99]),
     "^4 rows but 5 right-hand sides$"),
    (lambda: linear.RhsFamily(2, BOX_ROWS, (-1, -1)).solve([2, 3, 0]),
     "^4 rows but 3 right-hand sides$"),
    (lambda: linear.RhsFamily(2, [((0, 0), LE)] + BOX_ROWS, (-1, -1)).solve([2, 3, 0, 0]),
     "^5 rows but 4 right-hand sides$"),
    (lambda: linear.RhsFamily(2, [((1, 1), EQ)] + BOX_ROWS, (-1, -1)).solve([1, 2, 3, 0, 0, 9]),
     "^5 rows but 6 right-hand sides$"),
    (lambda: linear.RhsFamily(2, BOX_ROWS, (-1, -1)).span([2, 3, 0, 0, 99]),
     "^4 rows but 5 right-hand sides$"),
    (lambda: linear.StrictFamily(2, [((1, 1), "<")] + BOX_ROWS).point([3, 2, 3, 0, 0, 9]),
     "^5 rows but 6 right-hand sides$"),
    (lambda: linear.StrictFamily(2, [((1, 1), "<")] + BOX_ROWS).point([3, 2, 3, 0]),
     "^5 rows but 4 right-hand sides$"),
    (lambda: linear.RhsFamily(1, [((1,), "<"), ((-1,), LE)], (-1,)),
     "^an LP family takes '<=' and '=' rows and constant '<' rows, not \\(1,\\) <$"),
    (lambda: linear.RhsFamily(1, [((1,), ">=")], (-1,)), r"not \(1,\) >=$"),
    (lambda: linear.RhsFamily(2, [((0, 0), ">=")] + BOX_ROWS, (-1, -1)), r"not \(0, 0\) >=$"),
], ids=["long row", "short cost", "short strict row", "long row with a zero",
        "long cost of a sibling", "long rhs", "short rhs", "short rhs with a constant row",
        "long rhs with an = row", "long rhs of a span", "long rhs of a strict family",
        "short rhs of a strict family", "nonconstant strict row", "unknown relation",
        "unknown relation of a constant row"])
def test_families_reject_rows_and_costs_of_another_length(build, message, monkeypatch):
    # a row or a cost of another length than dim is refused when the family
    # is built, not cut to dim by zip, lifted into another row, or left to
    # fail in the kernel; a StrictFamily's lifted family names its dim + 1.
    # An rhs of another length than the rows is refused by the solve, before
    # any pivot, not cut to the rows or left to fail on an index. A row whose
    # relation the kernel would read as "<=", a nonconstant "<" row or an
    # unknown relation, is refused when the family is built
    def refuse(*args):
        raise AssertionError("a solve reached the kernel")

    monkeypatch.setattr(linear, "_dual_simplex_min", refuse)
    with pytest.raises(ValueError, match=message):
        build()


BIG = 2 ** 200


def row_op_cases():
    """(dim, rows, b, x, den) in dim 0 to 8, entries small or near +-2**200."""
    entry = st.one_of(st.integers(-4, 4), st.integers(-BIG - 2, -BIG + 2),
                      st.integers(BIG - 2, BIG + 2), st.integers(-BIG, BIG))

    def case(dim):
        vector = st.lists(entry, min_size=dim, max_size=dim)
        return st.tuples(st.just(dim), st.lists(vector.map(tuple), max_size=6),
                         st.lists(entry, min_size=6, max_size=6), vector,
                         st.one_of(st.integers(1, 5), st.integers(1, BIG)))
    return st.integers(0, 8).flatmap(case)


@settings(max_examples=150, deadline=None)
@given(row_op_cases())
def test_row_ops_match_the_plain_sums(case):
    # the generated straight-line products against sum(map(mul, ...))
    dim, rows, b, x, den = case
    first, dots, _ = linear._kernel_ops(dim)
    assert first(rows, b, x, den) == next(
        (i for i, a in enumerate(rows) if sum(map(mul, a, x)) > b[i] * den), None)
    assert dots(rows, x) == [sum(map(mul, a, x)) for a in rows]


def test_dimension_zero_family_settles_its_constant_rows():
    # no variable: the constant rows alone decide, and the one point () is
    # the only optimum
    family = linear.RhsFamily(0, [((), LE), ((), "<")], ())
    assert family.solve([0, 1]) == ("optimal", [], 1) and family.unique()
    assert family.solve([-1, 1]) == ("infeasible", None, None)
    assert family.solve([0, 0]) == ("infeasible", None, None)


def seven_dimensional_systems():
    """Closed systems in 7 variables bounded by -x_j <= 2 and sum x <= 3,
    with up to three random "<=" rows, and a cost."""
    coeffs = st.lists(st.integers(-3, 3), min_size=7, max_size=7)

    def build(extra):
        rows = [row_le([-int(i == j) for i in range(7)], 2) for j in range(7)]
        rows += [row_le([1] * 7, 3)] + [row_le(a, b) for a, b in extra]
        return LinearSystem(7, tuple(rows))
    return st.tuples(st.lists(st.tuples(coeffs, st.integers(-6, 6)), max_size=3).map(build),
                     coeffs)


@settings(max_examples=25, deadline=None)
@given(seven_dimensional_systems())
def test_lp_matches_vertex_scan_in_seven_dimensions(case):
    sys_, cost = case
    ref = support.ref_lp_min(sys_, [Fraction(v) for v in cost])
    out = lp_solve(sys_, cost, "min")
    if ref is None:
        assert out.tag == "infeasible"
    else:
        assert out.tag == "optimal" and out.value == ref[0]
        assert sys_.satisfied_by(out.point)


def rhs_families():
    """(dim, rows, cost, rhs list): integer rows (a, rel) over dim 2 or 3
    bounded by a box, either the unit box |x_j| <= 4 or the simplex-like
    -x_j <= 4, sum x <= 4 (which has no unit row for a negative cost, so a
    cold start needs an artificial row), then up to four random "<=" or "="
    rows; and two to six right-hand sides for them, the box's kept, the
    others drawn so that some systems are empty."""
    coeffs = st.lists(st.integers(-3, 3), min_size=3, max_size=3).filter(any)
    extra = st.lists(st.tuples(coeffs, st.sampled_from((LE, "="))), max_size=4)

    def build(dim, unit_box, rows, cost, draws):
        box = []
        for j in range(dim):
            unit = tuple(int(i == j) for i in range(dim))
            box.append((tuple(-v for v in unit), LE))
            if unit_box:
                box.append((unit, LE))
        if not unit_box:
            box.append(((1,) * dim, LE))
        rows = box + [(tuple(a[:dim]), rel) for a, rel in rows if any(a[:dim])]
        rhs = [[4] * len(box) + [b for b in draw[:len(rows) - len(box)]] for draw in draws]
        return dim, rows, tuple(cost[:dim]), rhs

    draws = st.lists(st.lists(st.integers(-6, 6), min_size=4, max_size=4), min_size=2, max_size=6)
    return st.builds(build, st.integers(2, 3), st.booleans(), extra,
                     st.lists(st.integers(-4, 4), min_size=3, max_size=3), draws)


@settings(max_examples=80, deadline=None)
@given(rhs_families())
def test_rhs_family_matches_cold_lp_and_vertex_scan(family):
    # each warm solve of one family, in turn, against a cold lp_solve of the
    # same rows and a vertex scan that shares no LP code
    dim, rows, cost, rhs_list = family
    warm = linear.RhsFamily(dim, rows, cost)
    for rhs in rhs_list:
        sys_ = LinearSystem(dim, zip(rows, rhs))
        ref = support.ref_lp_min(sys_, cost)
        cold = lp_solve(sys_, QVector(cost), "min")
        tag, nums, den = warm.solve(rhs)
        if ref is None:
            assert tag == cold.tag == "infeasible"
            continue
        point = [Fraction(v, den) for v in nums]
        value = sum(c * v for c, v in zip(cost, point))
        assert tag == cold.tag == "optimal"
        assert value == cold.value == ref[0]
        assert sys_.satisfied_by(point)
        assert tuple(point) in {tuple(p) for p in support.ref_vertices(sys_)}


def sibling_families():
    """(dim, rows, costs, rhs list, late): integer rows (a, rel) over dim 1
    to 3, a box |x_j| <= 4 and then up to five random rows, "<=" or "=",
    some of them constant (a = 0, which may also be "<"); two costs, the
    second often the negated first; two to six right-hand sides, the box's
    kept, the others drawn so that some systems are empty and some constant
    rows fail; and whether the sibling is made after the first solve."""
    row = st.tuples(st.lists(st.integers(-2, 2), min_size=3, max_size=3),
                    st.sampled_from((LE, "=", "<")))
    costs = st.lists(st.integers(-3, 3), min_size=3, max_size=3)

    def build(dim, extra, first, second, negated, draws, late):
        box = []
        for j in range(dim):
            unit = tuple(int(i == j) for i in range(dim))
            box += [(unit, LE), (tuple(-v for v in unit), LE)]
        # a strict row is legal input only when it is constant
        rows = box + [(tuple(a[:dim]), rel) for a, rel in extra if rel != "<" or not any(a[:dim])]
        rhs = [[4] * len(box) + draw[:len(rows) - len(box)] for draw in draws]
        cost = tuple(first[:dim])
        other = tuple(-v for v in cost) if negated else tuple(second[:dim])
        return dim, rows, (cost, other), rhs, late

    draws = st.lists(st.lists(st.integers(-3, 5), min_size=5, max_size=5), min_size=2, max_size=6)
    return st.builds(build, st.integers(1, 3), st.lists(row, max_size=5), costs, costs,
                     st.booleans(), draws, st.booleans())


@settings(max_examples=120, deadline=None)
@given(sibling_families())
def test_sibling_family_shares_the_kernel_form_and_starts_cold(family):
    # a family and its with_cost sibling, solved in turn on each right-hand
    # side, answer exactly as two families built apart from the same rows;
    # the sibling's first solve is a cold one-shot solve, and every answer
    # has the tag and value of a cold one-shot solve
    dim, rows, costs, rhs_list, late = family
    first = linear.RhsFamily(dim, rows, costs[0])
    apart = [linear.RhsFamily(dim, rows, cost) for cost in costs]
    if late:
        assert first.solve(rhs_list[0]) == apart[0].solve(rhs_list[0])
    sibling = first.with_cost(costs[1])
    assert sibling.rows is first.rows
    assert dim == 1 or sibling._kernel is first._kernel is not None
    for step, rhs in enumerate(rhs_list):
        for k, (family_, cost) in enumerate(zip((first, sibling), costs)):
            if late and step == 0 and k == 0:
                continue
            got = family_.solve(rhs)
            assert got == apart[k].solve(rhs)
            cold = linear.RhsFamily(dim, rows, cost).solve(rhs)
            if k == 1 and step == 0:
                assert got == cold
            assert got[0] == cold[0]
            if got[0] == "optimal":
                assert (Fraction(sum(map(mul, cost, got[1])), got[2])
                        == Fraction(sum(map(mul, cost, cold[1])), cold[2]))


@settings(max_examples=150, deadline=None)
@given(sibling_families())
def test_unique_optimum_is_the_only_optimal_vertex(family):
    # after every warm solve of a family and every solve of its sibling, a
    # claim that the optimum is unique must leave exactly one optimal
    # vertex, the returned point, by a vertex scan that shares no LP code;
    # a solve with no optimum claims nothing
    dim, rows, costs, rhs_list, _ = family
    first = linear.RhsFamily(dim, rows, costs[0])
    sibling = first.with_cost(costs[1])
    for rhs in rhs_list:
        for family_, cost in zip((first, sibling), costs):
            tag, nums, den = family_.solve(rhs)
            if tag != "optimal":
                assert not family_.unique()
                continue
            if not family_.unique():
                continue
            sys_ = LinearSystem(dim, zip(rows, rhs))
            point = [Fraction(v, den) for v in nums]
            value = sum(map(mul, cost, point))
            assert [v for v in support.ref_vertices(sys_)
                    if sum(map(mul, cost, v)) == value] == [point]


def test_unique_optimum_needs_every_basis_dual_positive():
    # (1, 1) is a primal-degenerate vertex: x <= 1, y <= 1 and x + y <= 2
    # are all tight there, and under the cost (-1, -1) it is the only
    # optimum. Under (0, -1), a cost parallel to the facet y = 1, every
    # point of that edge is optimal. In one variable a nonzero cost has one
    # optimum over an interval and the zero cost all of them.
    rows = [((1, 0), LE), ((0, 1), LE), ((1, 1), LE), ((-1, 0), LE), ((0, -1), LE)]
    family = linear.RhsFamily(2, rows, (-1, -1))
    tag, nums, den = family.solve([1, 1, 2, 0, 0])
    assert (tag, [Fraction(v, den) for v in nums]) == ("optimal", [1, 1]) and family.unique()
    flat = family.with_cost((0, -1))
    assert flat.solve([1, 1, 2, 0, 0])[0] == "optimal" and not flat.unique()
    assert family.solve([1, 1, 2, -3, 0])[0] == "infeasible" and not family.unique()
    interval = [((1,), LE), ((-1,), LE)]
    for cost, unique in (((2,), True), ((-1,), True), ((0,), False)):
        family = linear.RhsFamily(1, interval, cost)
        assert family.solve([3, 1])[0] == "optimal" and family.unique() == unique


def test_rhs_family_restarts_from_its_last_optimal_basis():
    # a repeated right-hand side starts at its own optimal basis: no exchange
    rows = [((2, 1), LE), ((1, 3), LE), ((-1, 0), LE), ((0, -1), LE)]
    family = linear.RhsFamily(2, rows, (-1, -1))
    assert family.solve([8, 9, 0, 0]) == ("optimal", [15, 10], 5)
    with support.kernel_exchanges() as reported:
        assert family.solve([8, 9, 0, 0]) == ("optimal", [15, 10], 5)
    assert reported == [0]
    assert family.solve([8, 30, 0, 0]) == ("optimal", [0, 8], 1)
    assert family.solve([8, 9, -9, 0])[0] == "infeasible"
    assert family.solve([8, 9, 0, 0]) == ("optimal", [15, 10], 5)


def test_cold_start_takes_the_tightest_unit_row():
    # min x + y over x >= -5, x >= 1, y >= 0: the cold basis takes x >= 1,
    # the tighter lower bound, not x >= -5, the first, and is optimal at once
    sys_ = LinearSystem(2, (row_le([-1, 0], 5), row_le([-1, 0], -1), row_le([0, -1], 0)))
    with support.kernel_exchanges() as reported:
        out = lp_solve(sys_, (1, 1), "min")
    assert (out.value, out.point.entries) == (1, (1, 0))
    assert reported == [0]


def test_rhs_family_corrupted_basis_is_fatal():
    # the stored adjugate of the basis {2x + y <= 8, x + 3y <= 9} over det 5
    # is altered in one entry; the next solve must not return a point
    rows = [((2, 1), LE), ((1, 3), LE), ((-1, 0), LE), ((0, -1), LE)]
    family = linear.RhsFamily(2, rows, (-1, -1))
    family.solve([8, 9, 0, 0])
    ids, adj, det = family._basis
    assert (sorted(ids), det) == ([0, 1], 5)
    adj[0][0] += 1
    with pytest.raises(InternalInvariantError):
        family.solve([8, 30, 0, 0])


def test_strict_witness_reverification_is_fatal(monkeypatch):
    # x in (0, 1); the lifted LP claims slack 1/2 at x = 5, outside x < 1
    s = LinearSystem(1, (row_lt([-1], 0), row_lt([1], 1)))
    monkeypatch.setattr(linear.RhsFamily, "solve", lambda self, rhs: ("optimal", [10, 1], 2))
    with pytest.raises(InternalInvariantError):
        strict_feasible_point(s)


def test_vertices_raise_on_a_half_line():
    # vertices checks the boundedness of every system it is given, a
    # derived one too
    half_line = LinearSystem(1, (row_le([-1], 0),))
    for sys_ in (half_line, half_line.with_rows([row_le([-1], 3)])):
        with pytest.raises(ValueError, match="unbounded"):
            vertices(sys_)
