"""Instance model and the half-open cell decomposition of the leader space.

A cell is a pair (x, r): a candidate integer follower response x together
with the vector r of floors of the follower row activities B_i z + u_i. Over
one cell the follower's feasible set {x : A x <= r} is constant, so bilevel
feasibility reduces to per-cell checks and the leader's infimum to per-cell
LPs. Cell regions are half open: the floor rows hold as r_i <= B_i z + u_i <
r_i + 1, the upper-level rows and z >= 0 are closed.

The valid cells come from one walk over the floor vectors r on the upper
system in (x, z), x continuous, carrying the integer x of the joint
relaxation (upper rows and A x <= B z + u), none on an Infeasible instance,
that fit the floors chosen so far; at each reachable r one integer
feasibility check, for a follower response better than the best carried x,
settles the follower's optimum, and the carried x at that value are the
responses to pair with r. Those checks are one lattice.IntegerSearch per
walk (_follower_check: the rows A and psi, zero cost), each a right-hand
side (r, v - 1), and is_valid_cell makes the same check one-shot. The same
walk serves the cell index, which collects and sorts its cells, and a
single threshold query, which adds the row value <= alpha to the walk and
stops at the first cell that meets it.
One LP over the closure of each pair's region gives the cell's least e . z
and, when its vertex lies in the half-open region, proves the cell valid
with no strict-feasibility check; when the LP proves that vertex its only
optimum, the index entry keeps it.

Within one walk, the LPs of each kind share their rows and cost and differ
only in their right-hand sides, which are integers: the walk carries the
right-hand sides of its prefix of floors, not a system, and solves each
kind as one linear.RhsFamily, warm-started from its last optimal basis.
The kinds are the floors of B_i z + u_i at level i (a min family per level
and, only past the least floor, its with_cost sibling for the max, which
share one kernel form), the closure LP of the pairs and their strict check
(linear.StrictFamily). Each family is built on first use and none outlives
the walk; a family settles its own constant rows, such as those of a zero
row of A, B or D, so the walk passes every row it adds. A cell's rows are
defined once: _region_rows gives their coefficients over z, the same for
every cell, and _region_rhs their integer right-hand sides at (x, r). The
walk's families, the checks of decide.DecisionScan and cell_region all
derive from that pair, and a cell index holds no region: no solve builds
one. The instance data are ints, so the rows of the walk, of the cell
regions and of the follower are built straight from them; the follower at
a leader point z is read at its integer floors: bilevel_feasible searches
the rows A, minimizing psi, at floor_rhs(inst, z), one IntegerSearch built
per call, and checks the upper rows over z's common denominator.
The candidate x come from lattice.integer_candidates, the one integer walk,
with their activities A x and psi . x as integers. Nothing caches an index
across calls either: each cell_index call builds a fresh one. Besides its
data fields, the Instance holds two row sets that its constructor builds
from the data alone, once, as integer rows (a, "<=") and their right-hand
sides, the form every LP here takes: the upper rows and the
follower-relaxation rows A x - B z <= u. Every solve reads them, none
writes to the instance.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul
from typing import Optional

from .errors import InternalInvariantError, ValidationError
from .lattice import IntegerSearch, integer_candidates, _charge
from .linear import (LE, LT, LinearSystem, RhsFamily, StrictFamily, lp_solve,
                     recession_bounded, row_eq, row_le, rows_hold, strict_feasible_point,
                     _over_common_denominator, _unit)
from .rational import QVector

WITNESS_DELTA = Fraction(1, 2**20)  # cell_infimum's witness slack, of the objective range


_MATRICES = ("A", "B", "C", "D")
_VECTORS = ("c", "e", "psi", "u", "p")


@dataclass(frozen=True)
class Instance:
    """One bilevel instance with all-integer data.

    Leader variables z (continuous, z >= 0 implicit), follower variables x
    (integer). Upper level: C x + D z <= p. Follower: x minimizes psi . x
    over A x <= B z + u. The matrices A, B, C and D are tuples of rows, each
    a tuple of ints; the vectors c, e, psi, u and p are tuples of ints.
    Construction owns every check of the data fields, in the order an
    instance file meets them: n and d must be ints ("nonintegral-data") of
    at least 1 ("bad-shape"); field by field, each matrix must be a list or
    tuple of lists or tuples and each vector a list or tuple ("bad-format"),
    and _int_tuple converts its entries in the same pass ("nonintegral-data"
    for a float, a bool, a str or a non-integral Fraction); then come the
    shapes ("bad-shape"), and the boundedness of the upper-level region and
    of the follower polyhedra for every z. It keeps two row sets built
    from the data, each a pair (rows, rhs) of a tuple of integer rows
    (a, "<=") over (x, z) and the tuple of their right-hand sides: `upper`,
    C x + D z <= p and z >= 0 (the rows the recession test reads, at p and
    d zeros), and `relax`, the follower-relaxation rows A x - B z <= u.
    They are fields that the constructor sets and that equality, hashing
    and repr leave out; dataclasses.replace builds them again from the new
    data. Equal tuples of ints among the data and these rows are kept as
    one tuple.
    """

    n: int
    d: int
    A: tuple
    B: tuple
    C: tuple
    D: tuple
    c: tuple
    e: tuple
    psi: tuple
    u: tuple
    p: tuple
    # built once from the data above by __post_init__; never set by a solve
    upper: tuple = field(init=False, compare=False, repr=False)
    relax: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        n, d = self.n, self.d
        for name, size in (("n", n), ("d", d)):
            if type(size) is not int:
                raise ValidationError("nonintegral-data", f"{name} must be an integer, got {size!r}")
        if n < 1 or d < 1:
            raise ValidationError("bad-shape", "need n >= 1 and d >= 1")
        kept = {}  # equal tuples of ints, of the data or of its rows, are kept once

        def one(values: tuple) -> tuple:
            return kept.setdefault(values, values)

        try:
            for name in _MATRICES:
                rows = getattr(self, name)
                if not isinstance(rows, (list, tuple)) or any(
                        not isinstance(row, (list, tuple)) for row in rows):
                    raise ValidationError("bad-format", f"{name} must be a list of rows")
                object.__setattr__(self, name, tuple(
                    one(_int_tuple(row, f"matrix {name}")) for row in rows))
            for name in _VECTORS:
                values = getattr(self, name)
                if not isinstance(values, (list, tuple)):
                    raise ValidationError("bad-format", f"{name} must be a list")
                object.__setattr__(self, name, one(_int_tuple(values, f"vector {name}")))
        except ValueError as exc:
            raise ValidationError("nonintegral-data", str(exc)) from exc
        m, h = len(self.A), len(self.C)
        widths = {"A": n, "B": d, "C": n, "D": d}
        lengths = {"A": m, "B": m, "C": h, "D": h, "c": n, "e": d, "psi": n, "u": m, "p": h}
        for name, size in lengths.items():
            data, cols = getattr(self, name), widths.get(name)
            if len(data) != size or (cols is not None and any(len(row) != cols for row in data)):
                raise ValidationError("bad-shape", f"{name} does not fit n={n}, d={d}, the "
                                      f"{m} rows of A and the {h} rows of C")
        upper = [one(cr + dr) for cr, dr in zip(self.C, self.D)]
        upper += [one(_unit(n + d, n + i, -1)) for i in range(d)]
        if not recession_bounded(upper, n + d):
            raise ValidationError("unbounded-P", "upper-level region C x + D z <= p, z >= 0 is unbounded")
        if not recession_bounded(self.A, n):
            raise ValidationError("unbounded-follower", "follower regions A x <= B z + u are unbounded")
        object.__setattr__(self, "upper", (tuple((a, LE) for a in upper), self.p + (0,) * d))
        object.__setattr__(self, "relax", (tuple(
            (one(ar + tuple(-v for v in br)), LE) for ar, br in zip(self.A, self.B)), self.u))

    @property
    def m(self) -> int:
        return len(self.A)

    @property
    def h(self) -> int:
        return len(self.C)

    def joint_dim(self) -> int:
        return self.n + self.d

    def objective_vector(self) -> QVector:
        return QVector(self.c + self.e)

    def objective_value(self, x, z) -> Fraction:
        """c . x + e . z at an integer x and a leader point z, over z's common denominator."""
        nums, den = _over_common_denominator(z)
        return Fraction(sum(map(mul, self.c, x)) * den + sum(map(mul, self.e, nums)), den)

    def upper_system(self) -> LinearSystem:
        """The upper rows at their right-hand sides as a new LinearSystem
        over (x, z), for the one-shot layer: each call builds one."""
        return LinearSystem(self.n + self.d, zip(*self.upper))


@dataclass(frozen=True)
class Cell:
    """A follower response x and a floor vector r, both tuples of ints; the
    entries follow _int_tuple's rule, and any other raises ValueError."""

    x: tuple
    r: tuple

    def __post_init__(self):
        object.__setattr__(self, "x", _int_tuple(self.x, "cell x"))
        object.__setattr__(self, "r", _int_tuple(self.r, "cell r"))


def _int_tuple(values, what: str) -> tuple:
    """values as a tuple of ints: the one rule for integer data. An int is
    kept and an integral Fraction becomes its numerator; any other entry, a
    non-integral Fraction, a float, a bool or a str, raises ValueError
    naming what the values are."""
    out = []
    for v in values:
        if type(v) is not int:
            if type(v) is not Fraction or v.denominator != 1:
                raise ValueError(f"{what} entry {v!r} is not an integer")
            v = v.numerator
        out.append(v)
    return tuple(out)


def floor_rhs(inst: Instance, z) -> tuple:
    """Componentwise floor of B z + u at the leader point z, any sequence of
    d ints and Fractions: the integer right-hand sides of the follower at z,
    since an integer x has A x <= B z + u exactly when A x <= floor(B z + u).
    A wrong length or any other entry, a float or a bool say, raises
    ValueError."""
    if len(z) != inst.d:
        raise ValueError("leader point has the wrong dimension")
    if any(type(v) is not int and type(v) is not Fraction for v in z):
        raise ValueError("leader point entries must be int or Fraction")
    nums, den = _over_common_denominator(z)
    return tuple((sum(map(mul, br, nums)) + uv * den) // den for br, uv in zip(inst.B, inst.u))


def _region_rows(inst: Instance) -> list:
    """The coefficient rows (a, rel) over z that every cell region has, in
    the order of _region_rhs: D_k (<=), -e_j (<=) and, for each i, -B_i (<=)
    and B_i (<)."""
    rows = [(dr, LE) for dr in inst.D]
    rows += [(_unit(inst.d, j, -1), LE) for j in range(inst.d)]
    for br in inst.B:
        rows += [(tuple(-v for v in br), LE), (br, LT)]
    return rows


def _region_rhs(inst: Instance, x: tuple, r: tuple) -> list:
    """The integer right-hand sides of _region_rows for the cell (x, r):
    p_k - C_k x, 0 and, for each i, u_i - r_i and r_i + 1 - u_i."""
    rhs = [pv - sum(map(mul, cr, x)) for cr, pv in zip(inst.C, inst.p)]
    rhs += [0] * inst.d
    for ri, uv in zip(r, inst.u):
        rhs += [uv - ri, ri + 1 - uv]
    return rhs


def _check_shape(inst: Instance, cell: Cell):
    """Raise ValueError unless len(cell.x) is n and len(cell.r) is m."""
    if len(cell.x) != inst.n or len(cell.r) != inst.m:
        raise ValueError("cell does not match the instance shape")


def cell_region(inst: Instance, cell: Cell) -> LinearSystem:
    """The half-open region of leader points that realize the cell.

    Rows over z: D z <= p - C x (closed), z >= 0 (closed), r_i <= B_i z + u_i
    (closed) and B_i z + u_i < r_i + 1 (strict): every row of _region_rows
    at the right-hand sides of _region_rhs, constant rows included, which
    the LPs settle. A cell of another shape than the instance's raises
    ValueError.
    """
    _check_shape(inst, cell)
    return LinearSystem(inst.d, zip(_region_rows(inst), _region_rhs(inst, cell.x, cell.r)))


def _follower_check(inst: Instance) -> IntegerSearch:
    """The search for an integer x' with A x' <= r and psi . x' <= v, at the
    right-hand side (r, v): the rows A and psi, zero cost. Validation
    proved the rows A bounded (code "unbounded-follower")."""
    return IntegerSearch(inst.n, [(a, LE) for a in inst.A] + [(inst.psi, LE)], range(inst.n),
                         (0,) * inst.n)


def _follower_improves(check: IntegerSearch, r: tuple, value) -> bool:
    """Whether an integer x' with A x' <= r has psi . x' <= value - 1: one
    search of the instance's _follower_check."""
    return check.minimize(list(r) + [value - 1]) is not None


def is_valid_cell(inst: Instance, cell: Cell) -> bool:
    """Feasible response, follower-optimal, and a strictly realizable region.
    A cell of another shape than the instance's raises ValueError."""
    _check_shape(inst, cell)
    if any(sum(map(mul, ar, cell.x)) > rv for ar, rv in zip(inst.A, cell.r)):
        return False
    value = sum(map(mul, inst.psi, cell.x))
    if _follower_improves(_follower_check(inst), cell.r, value):
        return False
    return strict_feasible_point(cell_region(inst, cell)) is not None


def bilevel_feasible(inst: Instance, x, z) -> bool:
    """Direct definition: (x, z) meets the upper rows and the integer x solves
    the follower at z. For an integer x, A x <= B z + u holds exactly when
    A x <= floor(B z + u), so x must meet A x <= floor_rhs(inst, z) and
    attain the least psi . x there, which one IntegerSearch over the rows A
    finds; validation proved those rows bounded (code
    "unbounded-follower"). An x entry other than an int or a Fraction
    raises ValueError; a non-integral x then gives False before a wrong
    shape, or a z entry of another type, raises ValueError."""
    xv = QVector(x)
    if not xv.is_integral():
        return False
    if len(z) != inst.d or xv.dim != inst.n:
        raise ValueError("point has the wrong shape")
    rhs = floor_rhs(inst, z)
    xs = [int(v) for v in xv]
    nums, den = _over_common_denominator(z)
    point = [v * den for v in xs] + nums
    if not rows_hold(*inst.upper, point, den):
        return False
    if any(sum(map(mul, ar, xs)) > rv for ar, rv in zip(inst.A, rhs)):
        return False
    search = IntegerSearch(inst.n, [(a, LE) for a in inst.A], range(inst.n), inst.psi)
    found = search.minimize(rhs)
    if found is None:
        raise InternalInvariantError("follower was feasible at x yet its search found nothing")
    nums, den = found
    return sum(map(mul, inst.psi, nums)) == sum(map(mul, inst.psi, xs)) * den


# ---------------------------------------------------------------------------
# enumeration and the cell index


@dataclass(slots=True)
class CellEntry:
    """A valid cell with shift = c . x and low, the least e . z over the
    closure of its region Q (_region_rows at _region_rhs); low_inside
    says that the LP vertex attaining low lies in Q itself. vertex is that
    vertex as (nums, den), integer numerators over a positive denominator,
    when the closure LP proved it the only point of the closure at low
    (RhsFamily.unique), and None otherwise. Over the cell the leader's
    objective is shift + e . z."""

    cell: Cell
    shift: int
    low: Fraction
    low_inside: bool
    vertex: Optional[tuple]


def valid_cells(inst: Instance, alpha=None):
    """The valid cells of the instance, as CellEntry, in the order of one
    floor walk; with `alpha`, only the cells whose region has a point of
    value c . x + e . z <= alpha.

    The walk lists the x candidates once: the integer x of the joint
    relaxation, the upper rows with A x - B z <= u, each with A x and
    psi . x; none means an Infeasible instance, as every valid cell's
    (x, z) lies there. With n > 1 a mixed-feasibility check of the
    relaxation comes first, as each value of a leading coordinate that the
    listing tries may lack an integer completion: one IntegerSearch over
    its rows, integer on x, of zero cost, whose upper rows validation
    proved bounded (code "unbounded-P"). It then walks the floor vector r
    once, on the closed upper system in (x, z) with x continuous (relaxation
    rows there cost more basis exchanges than they save). At row i it reads
    the floors r_i of B_i z + u_i over the rows chosen so far, least first,
    and for each adds r_i <= B_i z + u_i <= r_i + 1 and the response row
    A_i x <= r_i and keeps the candidates with A_i x <= r_i; a floor that
    keeps none is not entered, and a zero row of B has the one floor u_i
    and needs no LP. The rows at row i are the same for every prefix of
    floors, and their right-hand sides are integers: the walk carries those
    right-hand sides. A min RhsFamily of row i gives the least floor and its
    with_cost sibling the greatest, only once the walk asks for a second
    floor: a walk that stops at its first cell solves no upper end it did
    not reach, and each family sees the same right-hand sides. A valid
    cell (x, r) has a point z in its region, and (x, z) meets every row the
    walk adds for r, so the walk reaches every r a valid cell has with x
    still among its candidates. A leaf r is entered with
    candidates, all with A x <= r, so the follower's optimal value at r is
    at most v_c, the least psi . x among them. One integer feasibility check
    of {A x <= r, psi . x <= v_c - 1} settles it (psi, x and r are
    integral), a search of the walk's one _follower_check at (r, v_c - 1):
    a point there beats every candidate, and the leaf has no cell; none
    makes v_c the optimum, and the candidates at v_c are the follower's
    optimal responses among the candidates. A leaf never lists the
    follower's argmin, which may be far wider than the upper region.

    Each such (x, r) then takes one LP, the minimum low of e . z over the
    closure of its region Q. Every Q has the rows of _region_rows, the same
    for every (x, r), and only their right-hand sides, _region_rhs, depend
    on the pair: the closure LPs are one RhsFamily per walk, and the strict
    checks one StrictFamily. An infeasible LP means an empty Q. When the
    LP's optimal vertex, re-verified on the closure, meets every strict row
    of Q strictly, Q is nonempty and attains
    low: the cell is valid with no strict-feasibility check. Otherwise a
    strict check decides. The entry carries low and whether its vertex lies
    in Q, and no region. A warm start may end at another optimal vertex
    than a cold one, so low_inside says only that some optimal vertex lies
    in Q; low and the cells are the same. When every dual of the LP's final
    basis is positive (RhsFamily.unique), the vertex is the only optimum,
    whichever start the LP took, and the entry keeps it as integer
    numerators over a positive denominator; then low_inside says exactly
    whether Q reaches low. Other entries keep no vertex.

    With `alpha`, the candidate listing and the walk's system carry the row
    c . x + e . z <= alpha too, in integer form (row_le): a cell with a
    point z of value <= alpha in its region has (x, z) on that row, so the
    walk still reaches it. A pair with low > alpha - c . x has no such
    point and is skipped; a pair whose LP vertex lies in Q at
    low <= alpha - c . x is a hit. Any other pair is kept when its region
    with e . z <= alpha - c . x added is strictly feasible, which proves at
    once that the cell is valid and that it meets the threshold; that value
    row, times the denominator q of alpha, has the same coefficients q e
    for every x, so it is a row of the walk's strict family. A decision
    query stops at the first pair.

    lattice.CELL_CAP bounds the count of the candidate walk's values, the
    leaves and the (x, r) pairs tested, and lattice.NODE_CAP the nodes of
    each branch-and-bound call: the screen's and each leaf's follower check.
    """
    budget = [0]
    dim = inst.joint_dim()
    upper, upper_rhs = inst.upper
    if alpha is not None:
        value, b = row_le(inst.c + inst.e, alpha)
        upper, upper_rhs = upper + (value,), upper_rhs + (b,)
    joint, joint_rhs = upper + inst.relax[0], upper_rhs + inst.relax[1]
    if inst.n > 1 and IntegerSearch(dim, joint, range(inst.n), (0,) * dim).minimize(
            joint_rhs) is None:
        return
    candidates = [(x, tuple(sum(map(mul, row, x)) for row in inst.A), sum(map(mul, inst.psi, x)))
                  for x in integer_candidates(joint, joint_rhs, dim, range(inst.n), budget)]
    if not candidates:
        return
    # per row i over (x, z): B_i z, and the rows a floor r_i adds,
    # A_i x <= r_i, -B_i z <= u_i - r_i and B_i z <= r_i + 1 - u_i
    spans = [(0,) * inst.n + br for br in inst.B]
    level_rows = [[(ar + (0,) * inst.d, LE), (tuple(-v for v in span), LE), (span, LE)]
                  for ar, span in zip(inst.A, spans)]
    region_rows = _region_rows(inst)
    ranges = {}  # row i -> the min and max families of B_i z over the rows of levels < i
    closure = strict = None  # the families of the pairs' closure LPs and strict checks
    follower = None  # the leaves' follower-check search

    def floors(i, rhs):
        """The floors of B_i z + u_i at rhs, least first: the max sibling
        solves only once the walk asks for a floor past the least."""
        span, uv = spans[i], inst.u[i]
        if not any(span):
            yield uv  # B_i z + u_i is the constant u_i: one floor, no LP
            return
        if i not in ranges:
            rows = list(upper) + [row for j in range(i) for row in level_rows[j]]
            low = RhsFamily(dim, rows, span)
            ranges[i] = (low, low.with_cost(tuple(-v for v in span)))
        least = None
        for family in ranges[i]:
            tag, nums, den = family.solve(rhs)
            if tag == "infeasible" and least is None:  # the min LP finds the system empty
                return
            if tag != "optimal":
                raise InternalInvariantError("LP range unbounded on a bounded region")
            ri = (sum(map(mul, span, nums)) + uv * den) // den
            if least is None:
                least = ri
                yield ri
        yield from range(least + 1, ri + 1)

    def walk(rhs, r_prefix, candidates):
        i = len(r_prefix)
        if i == inst.m:
            yield from optimal_cells(tuple(r_prefix), candidates)
            return
        uv = inst.u[i]
        for ri in floors(i, rhs):
            fits = [cand for cand in candidates if cand[1][i] <= ri]
            if fits:
                yield from walk(rhs + [ri, uv - ri, ri + 1 - uv], r_prefix + [ri], fits)

    def optimal_cells(r, candidates):
        nonlocal follower
        _charge(budget)
        opt = min(value for _, _, value in candidates)
        if follower is None:
            follower = _follower_check(inst)
        if _follower_improves(follower, r, opt):
            return
        for x, _, value in candidates:
            if value == opt:
                _charge(budget)
                entry = checked_entry(Cell(x, r))
                if entry is not None:
                    yield entry

    def checked_entry(cell):
        nonlocal closure, strict
        rhs = _region_rhs(inst, cell.x, cell.r)
        if closure is None:
            closure = RhsFamily(inst.d, [(a, LE) for a, _ in region_rows], inst.e)
        tag, nums, den = closure.solve(rhs)
        if tag == "infeasible":
            return None
        if tag != "optimal":
            raise InternalInvariantError("cell region LP unbounded on a bounded region")
        low = Fraction(sum(map(mul, inst.e, nums)), den)
        # the family re-verified the closed rows at the vertex: the strict ones remain
        inside = all(sum(map(mul, a, nums)) < b * den
                     for (a, rel), b in zip(region_rows, rhs) if rel == LT)
        shift = sum(map(mul, inst.c, cell.x))
        if alpha is not None and low > alpha - shift:
            return None
        if not inside:
            if alpha is not None:  # e . z <= alpha - shift, both sides times alpha's denominator
                rhs.append(alpha.numerator - alpha.denominator * shift)
            if strict is None:
                rows = region_rows
                if alpha is not None:
                    rows = rows + [(tuple(alpha.denominator * v for v in inst.e), LE)]
                strict = StrictFamily(inst.d, rows)
            if strict.point(rhs) is None:
                return None
        return CellEntry(cell, shift, low, inside, (tuple(nums), den) if closure.unique() else None)

    try:
        yield from walk(list(upper_rhs), [], candidates)
    finally:
        # walk refers to itself through its closure: dropping the name frees
        # the walk's state (candidates, families) as soon as the caller
        # stops, not at the next cyclic garbage collection
        del walk


class CellIndex:
    """Lex-ordered valid cells of an instance: the entries of valid_cells,
    sorted by (x, r)."""

    def __init__(self, inst: Instance):
        self.instance = inst
        self.entries = self._build()

    def _build(self):
        entries = list(valid_cells(self.instance))
        entries.sort(key=lambda e: (e.cell.x, e.cell.r))
        return entries


def cell_index(inst: Instance) -> CellIndex:
    """A freshly built CellIndex; nothing keeps it once its caller drops it."""
    return CellIndex(inst)


def enumerate_cells(inst: Instance) -> list:
    """Lex-ordered valid cells: the cells of cell_index."""
    return [e.cell for e in cell_index(inst).entries]


def cell_infimum(inst: Instance, cell: Cell, objective):
    """(infimum, attained, witness) of an objective over one valid cell.

    The objective over (x, z) is a sequence of ints and Fractions, as
    lp_solve takes it (a QVector is one); a wrong length or any other
    entry, a float or a bool say, raises ValueError. The infimum is the LP
    minimum over the region's closure; it is attained exactly when the
    optimal face meets the half-open region. The witness is an exact
    optimal point when attained, otherwise a strictly feasible point within
    delta of the infimum, delta being WITNESS_DELTA times the objective
    range over the cell.
    """
    if not isinstance(objective, QVector):
        objective = QVector(objective)
    if objective.dim != inst.joint_dim():
        raise ValueError("objective must be over (x, z)")
    region = cell_region(inst, cell)
    obj_x = sum((a * b for a, b in zip(objective.entries[:inst.n], cell.x)), Fraction(0))
    obj_z = objective.entries[inst.n:]
    closed = region.closure()
    mn = lp_solve(closed, obj_z, "min")
    if not mn.is_optimal:
        raise InternalInvariantError("cell_infimum needs a valid (nonempty, bounded) cell")
    inf = obj_x + mn.value
    at = strict_feasible_point(region.with_rows([row_eq(obj_z, mn.value)]))
    if at is not None:
        witness = QVector(list(map(Fraction, cell.x)) + list(at.entries))
        return inf, True, witness
    mx = lp_solve(closed, obj_z, "max")
    if not mx.is_optimal:
        raise InternalInvariantError("cell objective range must be bounded")
    spread = mx.value - mn.value
    if spread == 0:
        raise InternalInvariantError("constant objective on a valid cell must be attained")
    delta = WITNESS_DELTA * spread
    near = strict_feasible_point(region.with_rows([row_le(obj_z, mn.value + delta)]))
    if near is None:
        raise InternalInvariantError("near-optimal witness must exist on a valid cell")
    witness = QVector(list(map(Fraction, cell.x)) + list(near.entries))
    return inf, False, witness
