import copy
import math
import random
from dataclasses import fields, replace
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import support
from bilevel_exact import (DEFAULT_CONFIG, LE, Cell, Instance, LinRow, LinearSystem, QVector,
                           ResourceLimitError, SolverConfig, ValidationError,
                           bilevel_feasible, cell_infimum, cell_region, enumerate_cells,
                           floor_rhs, is_valid_cell, random_instance, row_le, row_lt,
                           strict_feasible_point, vertices)
from bilevel_exact.cells import WITNESS_DELTA

CFG = DEFAULT_CONFIG


def upper_region_for_x(inst, x):
    """The leader's closed region {z >= 0 : D z <= p - C x} for one fixed x."""
    rows = []
    for cr, dr, pv in zip(inst.C, inst.D, inst.p):
        shift = pv - sum(a * Fraction(b) for a, b in zip(cr, x))
        rows.append(row_le(list(dr), shift))
    for j in range(inst.d):
        unit = [0] * inst.d
        unit[j] = -1
        rows.append(row_le(unit, 0))
    return LinearSystem(inst.d, tuple(rows))


def sample_hull(verts, rng, count):
    """Random rational convex combinations of the given vertices."""
    out = []
    dim = len(verts[0])
    for _ in range(count):
        weights = [Fraction(rng.randint(0, 4)) for _ in verts]
        total = sum(weights)
        if total == 0:
            weights[rng.randrange(len(weights))] = Fraction(1)
            total = Fraction(1)
        pt = [sum(w * v[j] for w, v in zip(weights, verts)) / total for j in range(dim)]
        out.append(QVector(pt))
    return out


# ---------------------------------------------------------------- validation


def test_instance_rejects_bad_shapes():
    with pytest.raises(ValidationError) as err:
        Instance(n=0, d=1, A=[[1]], B=[[0]], C=[[1]], D=[[1]], c=[1], e=[1],
                 psi=[1], u=[1], p=[1])
    assert err.value.code == "bad-shape"
    with pytest.raises(ValidationError) as err:
        Instance(n=1, d=1, A=[[1, 2]], B=[[0]], C=[[1]], D=[[1]], c=[1], e=[1],
                 psi=[1], u=[1], p=[1])
    assert err.value.code == "bad-shape"


def test_instance_rejects_fractions():
    with pytest.raises(ValidationError) as err:
        Instance(n=1, d=1, A=[[Fraction(1, 2)], [-1]], B=[[0], [0]],
                 C=[[1], [-1]], D=[[1], [0]], c=[1], e=[1], psi=[1], u=[1, 0], p=[1, 0])
    assert err.value.code == "nonintegral-data"


def test_instance_rejects_unbounded_upper():
    # no upper row touches z, so P recedes along +z
    with pytest.raises(ValidationError) as err:
        Instance(n=1, d=1, A=[[1], [-1]], B=[[0], [0]],
                 C=[[1], [-1]], D=[[0], [0]], c=[1], e=[1], psi=[1], u=[1, 0], p=[1, 0])
    assert err.value.code == "unbounded-P"


def test_instance_rejects_unbounded_follower():
    with pytest.raises(ValidationError) as err:
        Instance(n=1, d=1, A=[[1]], B=[[0]],
                 C=[[1], [-1], [0]], D=[[0], [0], [1]], c=[1], e=[1], psi=[1],
                 u=[1], p=[1, 0, 1])
    assert err.value.code == "unbounded-follower"


def test_instance_holds_int_tuples():
    data = dict(A=[[-1], [1], [-1]], B=[[-1], [0], [0]], C=[[0], [1], [-1]],
                D=[[1], [0], [0]], c=[-1], e=[1], psi=[1], u=[0, 1, 0], p=[1, 1, 0])
    from_ints = Instance(n=1, d=1, **data)
    as_fractions = {k: ([[Fraction(v) for v in row] for row in val] if k in "ABCD"
                        else [Fraction(v) for v in val]) for k, val in data.items()}
    from_fractions = Instance(n=1, d=1, **as_fractions)
    assert from_ints == from_fractions and hash(from_ints) == hash(from_fractions)
    for inst in (from_ints, from_fractions):
        for name in "ABCD":
            rows = getattr(inst, name)
            assert type(rows) is tuple and all(type(row) is tuple for row in rows)
            assert all(type(v) is int for row in rows for v in row)
        for name in ("c", "e", "psi", "u", "p"):
            assert type(getattr(inst, name)) is tuple
            assert all(type(v) is int for v in getattr(inst, name))


def test_cell_rejects_non_integers():
    with pytest.raises(ValueError):
        Cell((Fraction(1, 2),), (Fraction(7, 2),))
    with pytest.raises(ValueError):
        Cell((1.9,), (2,))
    with pytest.raises(ValueError):
        Cell((1,), (2, Fraction(-1, 3)))
    # one rule with Instance: a float, a bool or a str is never an integer,
    # even when its value is one
    for x, r in (((1,), (2.0,)), (("1",), (0,)), ((True,), (0,)), ((0,), (1, False))):
        with pytest.raises(ValueError):
            Cell(x, r)
    cell = Cell((Fraction(2),), (2, -1))
    assert cell == Cell((2,), (2, -1))
    assert all(type(v) is int for v in cell.x + cell.r)


@pytest.mark.parametrize("changes, code", [
    # the codes an instance file with the same fault gets
    ({"A": [["1"], [1], [-1]]}, "nonintegral-data"),
    ({"u": [True, 1, 0]}, "nonintegral-data"),
    ({"c": [1.0]}, "nonintegral-data"),
    ({"A": ["1", [1], [-1]]}, "bad-format"),
    ({"A": "matrix"}, "bad-format"),
    ({"p": 1}, "bad-format"),
    ({"n": 1.0}, "nonintegral-data"),
    ({"n": True}, "nonintegral-data"),
    ({"d": "1"}, "nonintegral-data"),
    # several faults: the first one an instance file meets decides
    ({"n": 0, "A": "matrix"}, "bad-shape"),
    ({"A": [[0.5], [1]], "u": [0]}, "nonintegral-data"),
    ({"B": "matrix", "c": [0.5]}, "bad-format"),
])
def test_instance_rejects_what_an_instance_file_rejects(changes, code):
    with pytest.raises(ValidationError) as err:
        replace(support.make_example1(), **changes)
    assert err.value.code == code


def test_instance_entry_errors_name_the_field():
    with pytest.raises(ValidationError, match=r"matrix A entry 0\.5 is not an integer"):
        replace(support.make_example1(), A=[[-1], [0.5], [-1]])
    with pytest.raises(ValidationError, match="vector u entry True is not an integer"):
        replace(support.make_example1(), u=[True, 1, 0])


def _fractions(values):
    return [Fraction(v) for v in values]


def _pairs(rows):
    """LinRows as the instance keeps its rows: ((a, rel), ...) and (b, ...)."""
    return tuple((r.a, r.rel) for r in rows), tuple(r.b for r in rows)


def test_rows_carry_the_integers_of_the_rational_rows():
    # every row built straight from the int data is the row that row_le and
    # row_lt build from the Fraction form of the same data: lcm 1, no gcd
    # reduction, the same a, b and rel
    rng = random.Random(20240611)
    for _ in range(12):
        inst = random_instance(rng)
        n, d = inst.n, inst.d
        units = [_fractions(-int(j == n + i) for j in range(n + d)) for i in range(d)]
        assert inst.upper == _pairs(
            [row_le(_fractions(cr + dr), Fraction(pv)) for cr, dr, pv in zip(inst.C, inst.D, inst.p)]
            + [row_le(unit, 0) for unit in units])
        assert inst.relax == _pairs([
            row_le(_fractions(ar) + [-Fraction(v) for v in br], Fraction(uv))
            for ar, br, uv in zip(inst.A, inst.B, inst.u)])
        r = tuple(rng.randint(-3, 3) for _ in range(inst.m))
        assert [LinRow(ar, rv, LE) for ar, rv in zip(inst.A, r)] == [
            row_le(_fractions(ar), Fraction(rv)) for ar, rv in zip(inst.A, r)]
        # r, and r at the one floor u_i of each zero row of B, so that regions
        # whose constant rows all hold and regions with a failing one both occur
        held = tuple(uv if not any(br) else ri for br, uv, ri in zip(inst.B, inst.u, r))
        for floors in (r, held):
            for _ in range(4):
                cell = Cell(tuple(rng.randint(-1, 1) for _ in range(n)), floors)
                assert cell_region(inst, cell).rows == _region_rows_from_fractions(inst, cell)


def test_instance_keeps_the_rows_its_constructor_builds():
    # the upper and the relaxation rows are built once, from the data, as
    # tuples of integer rows (a, "<=") and of their right-hand sides:
    # replace builds them again from the new data, equality, hash and repr
    # ignore them, and upper_system builds a new system of them on each call
    inst = support.make_example1()
    kept = [f.name for f in fields(inst) if not f.compare]
    assert kept == ["upper", "relax"]
    assert all(not f.init and not f.repr for f in fields(inst) if f.name in kept)
    assert inst.upper == ((((0, 1), LE), ((1, 0), LE), ((-1, 0), LE), ((0, -1), LE)),
                          (1, 1, 0, 0))
    assert inst.relax == ((((-1, 1), LE), ((1, 0), LE), ((-1, 0), LE)), (0, 1, 0))
    assert inst.upper_system() is not inst.upper_system()
    assert inst.upper_system() == LinearSystem(2, [LinRow(a, b, rel)
                                                   for (a, rel), b in zip(*inst.upper)])
    # replace rebuilds the rows from the new right-hand sides
    moved = replace(inst, p=(2, 1, 0), u=(1, 1, 0))
    assert moved.upper == (inst.upper[0], (2, 1, 0, 0))
    assert moved.relax == (inst.relax[0], (1, 1, 0))
    assert moved != inst
    # two instances of the same data are equal with other kept rows
    twin = copy.copy(inst)
    for name in kept:
        object.__setattr__(twin, name, None)
    assert twin == inst and hash(twin) == hash(inst) and repr(twin) == repr(inst)


def _region_rows_from_fractions(inst, cell):
    """cell_region's rows, built by row_le and row_lt from Fraction data: the
    upper rows at x, the rows z >= 0, then the floor rows of each i, every
    row kept, constant ones included."""
    d = inst.d
    rows = [row_le(_fractions(dr), pv - sum(Fraction(a) * v for a, v in zip(cr, cell.x)))
            for cr, dr, pv in zip(inst.C, inst.D, inst.p)]
    rows += [row_le(_fractions(-int(j == i) for j in range(d)), 0) for i in range(d)]
    for br, uv, ri in zip(inst.B, inst.u, cell.r):
        br = _fractions(br)
        rows += [row_le([-f for f in br], uv - ri), row_lt(br, ri + 1 - uv)]
    return tuple(rows)


# ------------------------------------------------------------ frozen examples


def test_floor_rhs_examples(example1):
    assert floor_rhs(example1, QVector([Fraction(1, 2)])) == (-1, 1, 0)
    assert floor_rhs(example1, QVector([0])) == (0, 1, 0)
    assert floor_rhs(example1, QVector([1])) == (-1, 1, 0)


@pytest.mark.parametrize("entry", [0.5, 1.0, True, "1/2"])
def test_leader_point_entries_must_be_int_or_fraction(example1, entry):
    # as lp_solve takes its objective: a float, a bool or a str is no exact
    # leader coordinate, even where its value is one
    with pytest.raises(ValueError):
        floor_rhs(example1, [entry])
    with pytest.raises(ValueError):
        bilevel_feasible(example1, [1], [entry], CFG)


def test_is_valid_cell_examples(example1):
    assert is_valid_cell(example1, Cell((1,), (-1, 1, 0)), CFG)
    assert is_valid_cell(example1, Cell((0,), (0, 1, 0)), CFG)
    assert not is_valid_cell(example1, Cell((1,), (0, 1, 0)), CFG)


def test_enumerate_cells_example(example1):
    cells = enumerate_cells(example1, CFG)
    assert [(c.x, c.r) for c in cells] == [((0,), (0, 1, 0)), ((1,), (-1, 1, 0))]


def test_enumerate_cells_contradictory_upper():
    inst = support.make_infeasible_upper()
    assert enumerate_cells(inst, CFG) == []


def test_enumerate_cells_with_killing_extra(example1):
    # the upper row -x + z <= -1 forces z <= 0 inside the only candidate cell,
    # which its strict z > 0 row rejects
    assert enumerate_cells(support.with_upper_rows(example1, ([-1], [1], -1)), CFG) == []


def test_cell_region_shape(example1):
    region = cell_region(example1, Cell((1,), (-1, 1, 0)))
    assert region.dim == 1
    assert region.satisfied_by(QVector([Fraction(1, 2)]))
    assert region.satisfied_by(QVector([1]))
    assert not region.satisfied_by(QVector([0]))      # strict floor row
    assert not region.satisfied_by(QVector([Fraction(3, 2)]))


def test_cell_infimum_examples(example1):
    obj = example1.objective_vector()
    c1 = Cell((1,), (-1, 1, 0))
    inf, attained, witness = cell_infimum(example1, c1, obj)
    assert (inf, attained) == (-1, False)
    wval = obj.dot(witness)
    assert -1 < wval <= -1 + WITNESS_DELTA * 1    # objective range is 1 here
    c0 = Cell((0,), (0, 1, 0))
    inf0, attained0, witness0 = cell_infimum(example1, c0, obj)
    assert (inf0, attained0) == (0, True)
    assert witness0.entries == (0, 0)
    flipped = QVector([1, 1])
    inf2, attained2, _ = cell_infimum(example1, c1, flipped)
    assert (inf2, attained2) == (1, False)


def test_bilevel_feasible_examples(example1):
    assert bilevel_feasible(example1, (0,), QVector([0]), CFG)
    assert bilevel_feasible(example1, (1,), QVector([Fraction(1, 2)]), CFG)
    assert not bilevel_feasible(example1, (1,), QVector([0]), CFG)


def _leader_points(inst, rng):
    """Rational leader points z >= 0: two random ones and, for each row i
    with a nonzero B_i, one where B_i z + u_i is an integer and one where it
    lies 1/97 below one."""
    points = [tuple(Fraction(rng.randint(0, 10), rng.choice((3, 5))) for _ in range(inst.d))
              for _ in range(2)]
    for br, uv in zip(inst.B, inst.u):
        j = next((j for j, v in enumerate(br) if v), None)
        if j is None:
            continue
        for below in (0, Fraction(1, 97)):
            z = [Fraction(rng.randint(1, 8), 4) for _ in range(inst.d)]
            value = sum(b * v for b, v in zip(br, z)) + uv
            z[j] += (math.ceil(value) - below - value) / br[j]
            assert sum(b * v for b, v in zip(br, z)) + uv == math.ceil(value) - below
            points.append(tuple(z))
    return points


def test_follower_floors_match_rational_rows_and_brute_feasibility():
    # the floor identity, checked against an independent reference: an
    # integer x meets A x <= B z + u exactly when it meets the integer rows
    # at floor_rhs, and bilevel_feasible, which reads the follower at those
    # floors, agrees with support._brute_feasible, which keeps the rational
    # right-hand sides and searches a grid; z sits on and just below integer
    # values of B_i z + u_i, where a floor taken the wrong way shows
    rng = random.Random(20261019)
    compared = feasible = 0
    for _ in range(60):
        inst = random_instance(rng)
        grid = list(support.grid_points(inst.n, -8, 8))
        for z in _leader_points(inst, rng):
            rhs = [sum(b * v for b, v in zip(br, z)) + uv for br, uv in zip(inst.B, inst.u)]
            follower = LinearSystem(inst.n, [LinRow(ar, rv, LE)
                                             for ar, rv in zip(inst.A, floor_rhs(inst, z))])
            assert support.brute_integer_points(follower, -8, 8) == [
                x for x in grid
                if all(sum(a * v for a, v in zip(ar, x)) <= rv for ar, rv in zip(inst.A, rhs))]
            for x in support.grid_points(inst.n, -3, 3):
                got = bilevel_feasible(inst, x, QVector(z) if compared % 2 else z, CFG)
                assert got == support._brute_feasible(inst, x, z), (inst, x, z)
                compared += 1
                feasible += got
    assert feasible >= 20 and compared >= 10 * feasible  # 30 of 5,250 at this seed


def test_cell_cap_enforced(example1):
    with pytest.raises(ResourceLimitError):
        enumerate_cells(example1, SolverConfig(cell_cap=1))


def test_cell_cap_messages_name_the_cap(example1):
    # The cap counts example1's two x candidates, x = 0 and 1, then per leaf
    # of the floor walk, r = (-1, 1, 0) and (0, 1, 0), the leaf and its one
    # optimal response: cap 1 stops the candidate walk, caps 2 and 4 stop at
    # the first and second leaf, caps 3 and 5 at their responses; cap 6 lets
    # the whole build through.
    for cap in (1, 2, 3, 4, 5):
        with pytest.raises(ResourceLimitError, match=f"^cell_cap={cap}: cell enumeration cap"):
            enumerate_cells(example1, SolverConfig(cell_cap=cap))
    assert len(enumerate_cells(example1, SolverConfig(cell_cap=6))) == 2


# ---------------------------------------------------------- invariant suites


def test_index_holds_every_valid_cell_examples(example1):
    for inst in (example1, support.make_infeasible_upper()):
        assert enumerate_cells(inst, CFG) == support.valid_cells_by_definition(inst)


@settings(max_examples=25)
@given(st.integers(0, 10**6))
@example(33)   # seeds 33 and 92: two valid cells share one r, as the
@example(92)   # follower argmin there holds two responses x
def test_index_holds_every_valid_cell(seed):
    inst = random_instance(random.Random(seed))
    assert enumerate_cells(inst, CFG) == support.valid_cells_by_definition(inst)


@pytest.mark.parametrize("psi", [(0, 0), (1, 0)])
def test_index_reads_argmin_only_inside_the_upper_region(psi):
    # The follower box -1 <= x_j <= 1000 is fixed (B = 0) and its argmin
    # holds about 10**6 points for psi = 0 and 1,002 for psi = (1, 0); the
    # upper region keeps |x_j| <= 1, so only 9 and 3 of them make cells.
    inst = Instance(
        n=2, d=1,
        A=[[1, 0], [-1, 0], [0, 1], [0, -1]], B=[[0], [0], [0], [0]],
        C=[[1, 0], [-1, 0], [0, 1], [0, -1], [0, 0]], D=[[0], [0], [0], [0], [1]],
        c=[0, 0], e=[1], psi=list(psi), u=[1000, 1, 1000, 1], p=[1, 1, 1, 1, 1],
    )
    cells = enumerate_cells(inst, CFG)
    assert cells == support.valid_cells_by_definition(inst)
    assert len(cells) == (9 if psi == (0, 0) else 3)


def _region_samples(inst, cell, rng, count):
    region = cell_region(inst, cell)
    pts = [strict_feasible_point(region)]
    verts = [tuple(v.entries) for v in vertices(region, CFG)]
    pts.extend(p for p in sample_hull(verts, rng, count) if region.satisfied_by(p))
    return region, [p for p in pts if p is not None]


@settings(max_examples=20)
@given(st.integers(0, 10**6))
def test_partition_invariant(seed):
    rng = random.Random(seed)
    inst = random_instance(rng)
    for entry_x in {c.x for c in enumerate_cells(inst, CFG)}:
        upper = upper_region_for_x(inst, entry_x)
        verts = [tuple(v.entries) for v in vertices(upper, CFG)]
        if not verts:
            continue
        for z in sample_hull(verts, rng, 10):
            r = floor_rhs(inst, z)
            assert cell_region(inst, Cell(entry_x, r)).satisfied_by(z)
            for i in range(inst.m):
                for delta in (-1, 1):
                    other = list(r)
                    other[i] += delta
                    assert not cell_region(inst, Cell(entry_x, tuple(other))).satisfied_by(z)


@settings(max_examples=15)
@given(st.integers(0, 10**6))
def test_equivalence_invariant(seed):
    rng = random.Random(seed)
    inst = random_instance(rng)
    xs = [tuple(rng.randint(-2, 2) for _ in range(inst.n)) for _ in range(4)]
    xs.extend(c.x for c in enumerate_cells(inst, CFG))
    for x in xs:
        upper = upper_region_for_x(inst, x)
        verts = [tuple(v.entries) for v in vertices(upper, CFG)]
        zs = sample_hull(verts, rng, 8) if verts else []
        zs.append(QVector([Fraction(rng.randint(-2, 4), rng.randint(1, 3))
                           for _ in range(inst.d)]))
        for z in zs:
            cell = Cell(x, floor_rhs(inst, z))
            via_cells = (is_valid_cell(inst, cell, CFG)
                         and cell_region(inst, cell).satisfied_by(z))
            assert bilevel_feasible(inst, x, z, CFG) == via_cells


@settings(max_examples=15)
@given(st.integers(0, 10**6))
def test_constancy_invariant(seed):
    rng = random.Random(seed)
    inst = random_instance(rng)
    for cell in enumerate_cells(inst, CFG):
        _, pts = _region_samples(inst, cell, rng, 10)
        for z in pts:
            assert floor_rhs(inst, z) == cell.r


@settings(max_examples=15)
@given(st.integers(0, 10**6))
def test_cell_infimum_certificate(seed):
    rng = random.Random(seed)
    inst = random_instance(rng)
    obj = inst.objective_vector()
    obj_z = list(obj.entries[inst.n:])
    for cell in enumerate_cells(inst, CFG):
        inf, attained, witness = cell_infimum(inst, cell, obj)
        obj_x = sum(a * Fraction(b) for a, b in zip(obj.entries[: inst.n], cell.x))
        region, pts = _region_samples(inst, cell, rng, 10)
        # independent certificate: closure minimum by brute vertex scan
        ref = support.ref_lp_min(region.closure(), obj_z)
        assert ref is not None and obj_x + ref[0] == inf
        for z in pts:
            assert obj_x + sum(a * b for a, b in zip(obj_z, z)) >= inf
        wval = obj.dot(witness)
        assert wval >= inf
        if attained:
            assert wval == inf
            assert region.satisfied_by(QVector(witness.entries[inst.n:]))


def test_is_valid_cell_rejects_a_cell_of_another_shape(example1):
    # example1 has n = 1 and m = 3: a short or a long x or r raises the
    # ValueError of cell_region before any search reads its right-hand sides
    for cell in (Cell((), (0, 1, 0)), Cell((0, 0), (0, 1, 0)), Cell((0,), (1, 1)),
                 Cell((0,), (0, 1, 0, 0))):
        for check in (is_valid_cell, cell_region):
            with pytest.raises(ValueError, match="^cell does not match the instance shape$"):
                check(example1, cell)
    assert is_valid_cell(example1, Cell((0,), (0, 1, 0)))
