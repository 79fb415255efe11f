"""Exact linear programming and polyhedral predicates over the rationals.

The LP core is an integer dual simplex over a basis of `dim` rows, for LPs
in two or more variables; an LP in one variable has a closed form. The
basis inverse is kept as an integer adjugate over a positive denominator,
B^-1 = adj / det (Bareiss), so every intermediate quantity is an exact
integer and every reported optimum is an exact rational. A basis exchange
is one fraction-free update, `_exchange`, whose divisions are exact by
construction; a remainder would mean a bug, not bad data. The core reads
"<=" rows alone, an "=" row as its two sides, and per coordinate the rows
whose only nonzero is there (`_kernel_form`); no kernel function reads a
relation. A cold start is dual feasible, built from those unit rows, the
tightest on the side each cost pushes to, or from artificial bound rows far
enough out to cut off no vertex (`_vertex_bound`, Hadamard's bound, which
the integer search of `lattice` also takes for its unbranched bounds), and
Bland's rule on the dual ends every solve. The optimum leaves the kernel as integer
numerators over det. It is a vertex unless an artificial row stays in the
final basis; only then is it purified onto a vertex of the optimal face. It
is re-verified in that form and becomes `Fraction`s once, for the returned
point and value.

The kernel has two ways in. `RhsFamily(dim, rows, cost)` fixes the rows
(a, rel) and an integer cost, and solves them for one right-hand side after
another, each from the last optimal basis that held no artificial row: the
duals of a basis, y det = -adj^T cost, depend on its rows and the cost
alone, so a basis optimal for one right-hand side is dual feasible for every
other, and the dual simplex goes on from it. The duals are computed only
when a row enters the basis, and at the exit only for an artificial row
left in it. A family's row split and kernel form depend on its rows alone,
so `with_cost` gives the family of the same rows under another cost, which
shares them and starts cold with its own basis: `span` (in `lp_range` and
the integer walk) and each floor-walk level solve their minimum and
maximum that way, a level its maximum only once the walk asks for a
second floor. `lp_solve` is a
one-shot family, started cold, so its pivots and vertices are those of a
cold solve, and so are those of `affinely_independent_vertices`, whose LPs
are cold with_cost siblings of one family over the closed rows. A family
also answers whether its last optimum is the only one (`RhsFamily.unique`):
an optimal vertex whose basis duals are all positive is, and the closure
LPs of `cells.valid_cells` read that test once per cell.
`StrictFamily` is the one strict lift: closed rows keep their coefficients
with a 0 for a new variable t, nonconstant strict rows get +t, 0 <= t <= 1
and t is maximized; `strict_feasible_point` checks a system with a
one-shot one, one whose strict rows are all constant, or absent, included,
the floor walk of `cells.valid_cells` checks its cells with one per walk,
and `decide.DecisionScan.hits` runs one cold per check.

An objective is any sequence of ints and Fractions, integer data as it is;
`lp_solve` scales it once by the lcm of its denominators into an integer cost.
Anything else, a float, a bool or a str, raises ValueError, in an objective
or in a row built by `row_le`, `row_eq` or `row_lt`: one scaler,
`_integer_cost`, serves both.

Every row is in integer form. The engine's one row form is an integer row
(a, rel), its right-hand side b an integer kept apart, one per row, as the
families take them: the instance keeps its rows so, and the floor walk, the
searches and the scans pose every LP on such rows. `LinRow(a, b, rel)` is
the row a . x rel b with integer a and b, and its constructor rejects
anything else; `LinearSystem`s of them are the input of the one-shot layer
(`lp_solve`, `lp_range`, `strict_feasible_point`, `vertices` and the
one-shot searches of `lattice`). `row_le`, `row_eq` and `row_lt` are for
rational data, such as a value row at a rational threshold: they multiply
the row once by the lcm of its denominators, with no gcd reduction, so a
row of integral data comes out with the integers it was given. The dual simplex, the
active-row test of vertex purification and the re-verification all read
that form: a point is put over one common denominator and every row is
checked with integer dot products (`rows_hold`). Re-verification stays
fatal: a family optimum, and so an `lp_solve` one, or a strict witness
that misses any row raises `InternalInvariantError`.

Boundedness is the caller's to know. A family, a search or a walk of
`lattice` takes rows that bound what it is asked: instance validation
proves the follower matrix and the upper-level region bounded
(`recession_bounded`), and every LP the engine poses keeps the rows of one
of them. The one-shot layer checks each system it is given
(`_projection_bounded`): one `lp_range` per coordinate over the truncated
cone.

Constant rows (all coefficients zero), such as a zero row of the data or a
row whose coordinates the integer walk of `lattice` fixed, may stand in any
system. The two families own them: an RhsFamily splits its rows once, when
it is built, into the kernel's "<=" rows, the nonconstant rows with each
"=" row followed at once by its negation, and the constant ones. One map
takes a caller's right-hand sides to the kernel's rows, and a solve
settles each constant row as 0 rel b in the same pass, before any pivot; a
StrictFamily leaves them unlifted for its RhsFamily to settle. No caller
filters them. `RhsFamily.span` is the one min-then-max range of a cost,
two cold siblings that return the optimum values and build no point: over
a system in `lp_range`, and at each prefix in the integer walk of `lattice`.

`_nullspace_direction` is the package's one exact elimination routine:
`lattice` decides with it where the "=" rows pin a point. No solve path
calls `vertices`, the only code that tries all `C(rows, dim)` bases; it is
also the only function here that takes a `SolverConfig`, for `basis_cap`.
Nothing else in this module reads a cap.

Conventions: systems are over free variables; rows are "<=", "=", or the
strict "<". Only closed rows ("<=", "=") are legal LP input, but for the
constant "<" rows that an RhsFamily settles; strict rows are the business of
StrictFamily and strict_feasible_point.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from operator import add, mul
from typing import Iterable, Optional, Sequence

from .config import DEFAULT_CONFIG, SolverConfig
from .errors import InternalInvariantError, ResourceLimitError
from .rational import QVector

LE = "<="
EQ = "="
LT = "<"
_RELATIONS = (LE, EQ, LT)


def _over_common_denominator(point) -> tuple:
    """(nums, den): integer numerators over one positive denominator."""
    den = math.lcm(*(v.denominator for v in point)) if point else 1
    return [v.numerator * (den // v.denominator) for v in point], den


def rows_hold(rows, rhs, nums, den: int) -> bool:
    """Whether every integer row (a, rel) holds at its b in rhs at the point
    nums / den (den > 0), a strict row strictly: integer dot products."""
    for (a, rel), b in zip(rows, rhs):
        lhs, b = sum(map(mul, a, nums)), b * den
        if lhs > b or (lhs == b and rel == LT) or (lhs < b and rel == EQ):
            return False
    return True


@dataclass(frozen=True, slots=True)
class LinRow:
    """One linear constraint over integers: a . x  rel  b."""

    a: tuple
    b: int
    rel: str

    def __post_init__(self):
        if self.rel not in _RELATIONS:
            raise ValueError(f"unknown relation {self.rel!r}")
        if type(self.a) is not tuple:
            object.__setattr__(self, "a", tuple(self.a))
        if type(self.b) is not int or any(type(v) is not int for v in self.a):
            raise ValueError("LinRow takes integer coefficients and rhs; "
                             "row_le, row_eq and row_lt take rationals")

    def holds_at(self, nums, den: int) -> bool:
        """Whether the row holds at the point nums / den (den > 0)."""
        return rows_hold(((self.a, self.rel),), (self.b,), nums, den)

    def closed(self) -> "LinRow":
        return self if self.rel != LT else LinRow(self.a, self.b, LE)

    def satisfied_by(self, point: Sequence) -> bool:
        if not isinstance(point, QVector):
            point = QVector(point)
        if point.dim != len(self.a):
            raise ValueError(f"point of dim {point.dim} for a row of dim {len(self.a)}")
        return self.holds_at(*_over_common_denominator(point.entries))


def _unit(dim: int, i: int, sign: int = 1) -> tuple:
    return tuple(sign if j == i else 0 for j in range(dim))


def _integer_row(coeffs: Iterable, rhs, rel: str) -> LinRow:
    """The rational row coeffs . x rel rhs times the lcm of its denominators,
    with no gcd reduction: the scaling of _integer_cost, which rejects any
    entry but an int or a Fraction."""
    coeffs = tuple(coeffs)
    scaled, _ = _integer_cost(coeffs + (rhs,), len(coeffs) + 1)
    return LinRow(tuple(scaled[:-1]), scaled[-1], rel)


def row_le(coeffs: Iterable, rhs) -> LinRow:
    return _integer_row(coeffs, rhs, LE)


def row_eq(coeffs: Iterable, rhs) -> LinRow:
    return _integer_row(coeffs, rhs, EQ)


def row_lt(coeffs: Iterable, rhs) -> LinRow:
    return _integer_row(coeffs, rhs, LT)


@dataclass(frozen=True, slots=True)
class LinearSystem:
    """A finite set of rows over a fixed ambient dimension."""

    dim: int
    rows: tuple

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.rows))
        for r in self.rows:
            if not isinstance(r, LinRow):
                raise ValueError("LinearSystem rows must be LinRow")
            if len(r.a) != self.dim:
                raise ValueError(f"row of dim {len(r.a)} in system of dim {self.dim}")

    def closure(self) -> "LinearSystem":
        """Replace strict rows by their closed counterparts (idempotent)."""
        return LinearSystem(self.dim, [r.closed() for r in self.rows])

    def has_strict(self) -> bool:
        return any(r.rel == LT for r in self.rows)

    def with_rows(self, extra: Iterable[LinRow]) -> "LinearSystem":
        return LinearSystem(self.dim, self.rows + tuple(extra))

    def satisfied_by(self, point: Sequence) -> bool:
        if not isinstance(point, QVector):
            point = QVector(point)
        if point.dim != self.dim:
            raise ValueError(f"point of dim {point.dim} for a system of dim {self.dim}")
        nums, den = _over_common_denominator(point.entries)
        return all(r.holds_at(nums, den) for r in self.rows)


@dataclass(frozen=True)
class LpOutcome:
    tag: str  # "optimal" | "infeasible" | "unbounded"
    value: Optional[Fraction] = None
    point: Optional[QVector] = None

    @property
    def is_optimal(self) -> bool:
        return self.tag == "optimal"


_INFEASIBLE = LpOutcome("infeasible")
_UNBOUNDED = LpOutcome("unbounded")


# ---------------------------------------------------------------------------
# integer dual simplex


def _vertex_bound(norms, rhs, dim: int) -> int:
    """An integer above |x_j| at every vertex of rows with L1 norms `norms`
    and right-hand sides rhs in dim variables: by Cramer's rule and
    Hadamard's inequality, (max_i norm_i + |b_i|)^dim + 1. When the rows
    bound some coordinates over their region, which may hold lines along
    the other ones, it bounds those coordinates at every point."""
    return max(map(add, norms, map(abs, rhs)), default=1) ** dim + 1


def _exchange(adj, det: int, alpha, r: int) -> list:
    """The adjugate after basis row r is replaced by a row a with
    alpha = adj^T a: (alpha_r adj - adj[:, r] (alpha - det e_r)^T) / det,
    over the new denominator alpha_r (Bareiss). Every division is exact when
    adj / det is the inverse of the old basis; a remainder raises
    InternalInvariantError."""
    ar = alpha[r]
    out = []
    for row in adj:
        f = row[r]
        new = []
        for v, aj in zip(row, alpha):
            q, rem = divmod(ar * v - f * aj, det)
            if rem:
                raise InternalInvariantError("adjugate update lost integrality")
            new.append(q)
        new[r] = f
        out.append(new)
    return out


def _kernel_form(dim: int, A) -> list:
    """The unit-row index of the "<=" rows A: units[j] lists the rows whose
    only nonzero coefficient is at j."""
    units = [[] for _ in range(dim)]
    for k, a in enumerate(A):
        if a.count(0) == dim - 1:  # one nonzero, which is then the sum of the row
            units[a.index(sum(a))].append(k)
    return units


def _dual_simplex_min(dim: int, A, b, units, cost, start=None):
    """Minimize cost . x over the rows A x <= b with free x.

    A: the nonconstant "<=" rows of a family, units their index
    (_kernel_form); b and cost: integers. start: a basis (ids, adj, det) of
    A rows that is dual feasible for cost, or None for a cold start.
    Returns (tag, nums, den, basis): an optimal point as integer numerators
    over one positive denominator, and the final basis as (ids, adj, det)
    when it holds no artificial row, so that the point is a vertex; None,
    None, None when there is no optimum.

    The basis is dim rows kept as an integer adjugate adj and a denominator
    det > 0 with B^-1 = adj / det, so the point is adj b_B / det and the
    duals are y det = -adj^T cost. A cold start is dual feasible: each x_j
    gets a row whose only nonzero is at j: the tightest on the side its
    cost pushes it to, the first in row order on a tie, or the one nearest
    0 for a zero cost; a coordinate without one gets the artificial row
    +-x_j <= M, where M exceeds every vertex coordinate by Hadamard's
    bound. Each iteration brings in the first violated row and drops the
    basis row of least y_r / alpha_r (Bland's rule on the dual); the duals
    are computed only then, when a row enters. An artificial row left in the
    final basis means an unbounded LP when its dual is positive, the one
    dual computed at the exit; at a zero dual the point is optimal but may
    not be a vertex.
    """
    m = len(A)
    if start is None:
        big = None
        basis = []
        extra = []
        for j, cj in enumerate(cost):
            k = None
            for i in units[j]:
                if cj:
                    if (A[i][j] > 0) == (cj < 0) and (
                            k is None or b[i] * abs(A[k][j]) < b[k] * abs(A[i][j])):
                        k = i
                elif k is None or abs(b[i] * A[k][j]) < abs(b[k] * A[i][j]):
                    k = i
            if k is None:
                if big is None:
                    big = _vertex_bound([sum(map(abs, a)) for a in A], b, dim)
                k = m + len(extra)
                extra.append(_unit(dim, j, -1 if cj > 0 else 1))
            basis.append(k)
        if extra:
            A = A + extra
            b = list(b) + [big] * len(extra)
        diag = [A[k][j] for j, k in enumerate(basis)]
        det = abs(math.prod(diag))
        adj = [[0] * dim for _ in range(dim)]
        for j, d in enumerate(diag):
            adj[j][j] = det // d
    else:
        ids, adj, det = start
        basis = list(ids)

    while True:
        bb = [b[k] for k in basis]
        nums = [sum(map(mul, row, bb)) for row in adj]
        k = next((i for i, a in enumerate(A) if sum(map(mul, a, nums)) > b[i] * det), None)
        if k is None:
            break
        cols = list(zip(*adj))
        ydet = [-sum(map(mul, col, cost)) for col in cols]
        alpha = [sum(map(mul, col, A[k])) for col in cols]
        out = None
        for r, ar in enumerate(alpha):
            if ar > 0:
                if out is None:
                    out = r
                    continue
                lhs = ydet[r] * alpha[out]
                rhs = ydet[out] * ar
                if lhs < rhs or (lhs == rhs and basis[r] < basis[out]):
                    out = r
        if out is None:
            return "infeasible", None, None, None
        adj = _exchange(adj, det, alpha, out)
        det = alpha[out]
        basis[out] = k
    artificial = [r for r, k in enumerate(basis) if k >= m]
    if any(sum(row[r] * cj for row, cj in zip(adj, cost)) < 0 for r in artificial):  # y_r > 0
        return "unbounded", None, None, None
    return "optimal", nums, det, (None if artificial else (tuple(basis), adj, det))


# ---------------------------------------------------------------------------
# one-dimensional closed systems have a closed-form solution


def _interval_solve(rows, rhs, cost: int):
    """Closed-form LP in one variable over nonconstant "<=" rows (a,) with
    right-hand sides rhs; bounds are kept as integer pairs (num, den),
    den > 0, and compared by cross-multiplication. Returns (tag, nums, den,
    vertex): the point is an end of the interval, and no vertex exists when
    it has neither end."""
    lo = None  # None encodes the infinite end
    hi = None
    for (a,), b in zip(rows, rhs):
        if a < 0:
            bound = (-b, -a)
            if lo is None or bound[0] * lo[1] > lo[0] * bound[1]:
                lo = bound
        elif hi is None or b * hi[1] < hi[0] * a:
            hi = (b, a)
    if lo is not None and hi is not None and lo[0] * hi[1] > hi[0] * lo[1]:
        return "infeasible", None, None, False
    if cost > 0:
        end = lo
    elif cost < 0:
        end = hi
    else:
        end = lo if lo is not None else hi
        if end is None:
            return "optimal", [0], 1, False
    if end is None:
        return "unbounded", None, None, False
    return "optimal", [end[0]], end[1], True


# ---------------------------------------------------------------------------
# exact elimination


def _nullspace_direction(vectors, dim):
    """Some nonzero integer w orthogonal to all integer vectors, or None if
    they span R^dim.

    Fraction-free elimination: each vector is cleared at the pivots of the
    earlier ones by integer cross-multiplication. w is, up to a positive
    factor, the solution with w_f = 1 at the first free column f and 0 at
    the other free columns.
    """
    rows = []
    pivots = []
    for vec in vectors:
        v = list(vec)
        for r, p in zip(rows, pivots):
            f = v[p]
            if f:
                g = r[p]
                v = [x * g - f * y for x, y in zip(v, r)]
        lead = next((j for j in range(dim) if v[j]), None)
        if lead is None:
            continue
        g = math.gcd(*v)
        rows.append([x // g for x in v])
        pivots.append(lead)
        if len(pivots) == dim:
            return None
    free = next(j for j in range(dim) if j not in pivots)
    w = [Fraction(0)] * dim
    w[free] = Fraction(1)
    for r, p in reversed(list(zip(rows, pivots))):
        s = sum(r[j] * w[j] for j in range(dim) if j != p)
        w[p] = -s / r[p]
    return _over_common_denominator(w)[0]


def _solve_square(vectors, rhs, dim):
    """Unique solution of the dim x dim integer system, or None when singular:
    the null vector of the rows (a_i, -b_i) is the solution times its last
    entry, which is nonzero exactly when the system is nonsingular."""
    w = _nullspace_direction([tuple(a) + (-b,) for a, b in zip(vectors, rhs)], dim + 1)
    if not w[dim]:
        return None
    return [Fraction(v, w[dim]) for v in w[:dim]]


def _purify_to_vertex(dim, rows, rhs, nums, den, objective):
    """Slide an optimal point nums / den (den > 0) along the optimal face onto
    a vertex; returns the vertex as (nums, den), in lowest terms after a move.

    rows: nonconstant "<=" rows a with right-hand sides rhs. Keeps every
    row satisfied and the objective value fixed. If the optimal face
    contains a line (only possible for unbounded feasible sets) the current
    point is returned unchanged. `objective` holds integer coefficients (any
    nonzero multiple of the objective); rows are tested for activity, and
    the step to the nearest row is taken, in integer arithmetic.
    """
    while True:
        active = [objective]
        for a, b in zip(rows, rhs):
            if sum(map(mul, a, nums)) == b * den:
                active.append(a)
        w = _nullspace_direction(active, dim)
        if w is None:
            return nums, den
        # a step is (gap, |a . w|): row a is reached at x + gap / (den |a . w|) * (+-w)
        plus = minus = None
        for a, b in zip(rows, rhs):
            aw = sum(map(mul, a, w))
            if aw == 0:
                continue
            step = (b * den - sum(map(mul, a, nums)), abs(aw))
            if aw > 0:
                if plus is None or step[0] * plus[1] < plus[0] * step[1]:
                    plus = step
            elif minus is None or step[0] * minus[1] < minus[0] * step[1]:
                minus = step
        if plus is not None:
            gap, scale = plus
        elif minus is not None:
            gap, scale = minus
            w = [-v for v in w]
        else:
            return nums, den
        nums = [v * scale + gap * d for v, d in zip(nums, w)]
        den *= scale
        g = math.gcd(den, *nums)
        nums = [v // g for v in nums]
        den //= g


# ---------------------------------------------------------------------------
# right-hand-side families: one set of rows and one cost, many right-hand sides


class RhsFamily:
    """The LPs min cost . x over fixed rows a . x rel b, one per right-hand
    side b, with free x.

    dim: the number of variables; rows: integer rows (a, rel), rel "<=" or
    "=", and a constant row (a = 0) may also be "<"; cost: integers.
    solve(rhs) takes one integer b per row and returns (tag, nums, den):
    "optimal" with an optimal point as integer numerators over one positive
    denominator, a vertex of the optimal face whenever one exists, or
    "infeasible" or "unbounded" with None, None.

    Construction splits the rows once. The attribute `rows` holds the
    kernel's "<=" rows: the nonconstant rows in their order, each "=" row
    followed at once by its negation. The constant rows are fixed. One map,
    a (k, sign) per kernel row, takes the caller's right-hand sides to the
    kernel's; it is None, and rhs is passed on as it is, when no row is
    constant or "=". A solve settles each fixed row as 0 rel b at its b,
    answering "infeasible" when one fails, and applies the map, in one pass
    before any pivot. The unit-row index of the kernel rows (_kernel_form)
    is built once, on the first solve in two or more variables. A solve
    starts from the last optimal basis that held no artificial row, and cold
    when there is none: the reduced costs of a basis depend on its rows and
    the cost alone, not on b, so an optimal basis for one rhs is dual
    feasible for every other, and the dual simplex goes on from it. An
    optimum whose basis keeps an artificial row is purified onto a vertex
    and stores no basis. One variable takes the closed form. Every optimum
    is re-verified against every kernel row in integer arithmetic; a miss
    raises InternalInvariantError. with_cost(cost) gives the family of the
    same rows under another cost: it shares this family's row split, map
    and unit-row index, and starts cold; span(rhs) solves two such siblings
    for the cost's least and greatest value.

    unique() says whether the last solve's optimum is the only optimum. The
    family keeps the final basis of its last optimum for it, None when that
    optimum was purified or the solve found none, so the warm-start basis
    of an earlier right-hand side is never read: an optimal vertex whose
    basis duals, y det = -adj^T cost over det > 0, are all positive is the
    only optimum (Mangasarian 1979), since another optimal point would have
    to keep every basis row tight. In one variable the optimum is an end of
    an interval, the only optimum when the cost is nonzero.
    """

    __slots__ = ("dim", "rows", "cost", "_rhs_map", "_fixed", "_kernel", "_basis", "_last")

    def __init__(self, dim: int, rows, cost):
        A, rhs_map, fixed = [], [], []
        for k, (a, rel) in enumerate(rows):
            if any(a):
                A.append(a)
                rhs_map.append((k, 1))
                if rel == EQ:
                    A.append(tuple(-v for v in a))
                    rhs_map.append((k, -1))
            else:
                fixed.append((k, rel))
        # None: every row is a nonconstant "<=" row, rhs is passed on as it is
        self._rhs_map = None if not fixed and len(A) == len(rows) else rhs_map
        self._fixed = fixed
        self.dim = dim
        self.rows = A
        self.cost = cost
        self._kernel = None
        self._basis = None
        self._last = None  # the last optimum's basis; () for an interval end in one variable

    def with_cost(self, cost) -> "RhsFamily":
        """The family of these rows under the integer cost `cost`. A basis
        optimal for one cost need not be dual feasible for another, so it
        starts cold, with no basis of its own yet."""
        if self._kernel is None and self.dim > 1:
            self._kernel = _kernel_form(self.dim, self.rows)
        other = object.__new__(RhsFamily)
        other.dim, other.rows, other.cost = self.dim, self.rows, cost
        other._rhs_map, other._fixed, other._kernel = self._rhs_map, self._fixed, self._kernel
        other._basis = other._last = None
        return other

    def span(self, rhs) -> Optional[tuple]:
        """((lo, lo_den), (hi, hi_den)): the least and the greatest value of
        the cost over the rows at rhs, each an integer over a positive
        denominator, or None when the rows have no point. Each end is one
        solve of a cold with_cost sibling, the minimum's first, so this
        family's own basis is left as it was. The caller knows the cost
        bounded over the rows, so an unbounded LP raises
        InternalInvariantError."""
        cost = self.cost
        ends = []
        for sibling in (cost, [-v for v in cost]):
            tag, nums, den = self.with_cost(sibling).solve(rhs)
            if tag == "infeasible":
                return None
            if tag != "optimal":
                raise InternalInvariantError("LP range unbounded on a bounded region")
            ends.append((sum(map(mul, cost, nums)), den))
        return tuple(ends)

    def unique(self) -> bool:
        """Whether the last solve's optimum is the only optimum: a vertex
        whose basis duals are all positive (see the class)."""
        last = self._last
        if last is None:
            return False
        if not last:
            return self.cost[0] != 0
        return all(sum(map(mul, col, self.cost)) < 0 for col in zip(*last[1]))

    def solve(self, rhs) -> tuple:
        self._last = None
        if self._rhs_map is not None:
            for k, rel in self._fixed:
                b = rhs[k]
                if b < 0 or (rel == LT if b == 0 else rel == EQ):  # 0 rel b fails
                    return "infeasible", None, None
            rhs = [sign * rhs[k] for k, sign in self._rhs_map]
        dim, rows, cost = self.dim, self.rows, self.cost
        if dim == 1:
            tag, nums, den, vertex = _interval_solve(rows, rhs, cost[0])
            basis = () if vertex else None
        else:
            if self._kernel is None:
                self._kernel = _kernel_form(dim, rows)
            tag, nums, den, basis = _dual_simplex_min(dim, rows, rhs, self._kernel, cost,
                                                      self._basis)
            vertex = basis is not None
            if vertex:
                self._basis = basis
        if tag != "optimal":
            return tag, None, None
        if not vertex:
            nums, den = _purify_to_vertex(dim, rows, rhs, nums, den, cost)
        for a, b in zip(rows, rhs):
            if sum(map(mul, a, nums)) > b * den:
                raise InternalInvariantError("an LP optimum failed re-verification")
        self._last = basis
        return "optimal", nums, den


class StrictFamily:
    """Strict-feasibility checks over fixed rows (a, rel), rel "<=", "=" or
    "<", one per right-hand side, through the strict lift.

    The lift adds a variable t: a closed row keeps its coefficients with a 0
    for t, a nonconstant strict row a . x < b becomes a . x + t <= b, and
    0 <= t <= 1; it is an RhsFamily that maximizes t. The rows have a point
    meeting the closed rows and every strict row strictly exactly when the
    optimal t is positive. A constant row, closed or strict, is not lifted:
    it keeps its relation and a 0 for t, so that the lifted family settles
    it as 0 rel b before any pivot and the kernel never sees it.
    """

    __slots__ = ("lp", "order")

    def __init__(self, dim: int, rows):
        closed = [i for i, (a, rel) in enumerate(rows) if rel != LT or not any(a)]
        strict = [i for i, (a, rel) in enumerate(rows) if rel == LT and any(a)]
        lifted = [(rows[i][0] + (0,), rows[i][1]) for i in closed]
        lifted += [(rows[i][0] + (1,), LE) for i in strict]
        lifted += [((0,) * dim + (-1,), LE), ((0,) * dim + (1,), LE)]  # 0 <= t <= 1
        self.order = closed + strict
        self.lp = RhsFamily(dim + 1, lifted, (0,) * dim + (-1,))

    def point(self, rhs) -> Optional[tuple]:
        """(nums, den) of a point with the rows' right-hand sides rhs that
        meets every strict row strictly, or None when there is none."""
        tag, nums, den = self.lp.solve([rhs[i] for i in self.order] + [0, 1])
        if tag != "optimal" or not nums[-1]:
            return None
        return nums[:-1], den


# ---------------------------------------------------------------------------
# public operations


def _integer_cost(objective: Sequence, dim: int) -> tuple:
    """(cost, mult): the objective, a sequence of dim ints and Fractions,
    times mult, the lcm of its denominators, as integers. A wrong length or
    any other entry, a float, a bool or a str say, raises ValueError; the
    row builders scale a row with it too."""
    if len(objective) != dim:
        raise ValueError("objective dimension does not match the system")
    if any(type(v) is not int and type(v) is not Fraction for v in objective):
        raise ValueError("entries must be int or Fraction")
    mult = math.lcm(*(v.denominator for v in objective))
    return [v.numerator * (mult // v.denominator) for v in objective], mult


def lp_solve(sys: LinearSystem, objective: Sequence, sense: str = "min") -> LpOutcome:
    """Exact LP over a closed system with free variables.

    The objective is a sequence of dim ints and Fractions (a QVector is
    one); a wrong length or any other entry, a float or a bool say, raises
    ValueError. Returns Infeasible, Unbounded, or Optimal with an exact
    value and a point that is a vertex of the optimal face whenever one
    exists: a one-shot RhsFamily, started cold. The optimum is re-verified
    against every row in integer arithmetic; a miss raises
    InternalInvariantError.
    """
    if sense not in ("min", "max"):
        raise ValueError(f"sense must be 'min' or 'max', got {sense!r}")
    if sys.has_strict():
        raise ValueError("lp_solve takes closed rows only")
    iobjective, omult = _integer_cost(objective, sys.dim)
    cost = iobjective if sense == "min" else [-v for v in iobjective]
    family = RhsFamily(sys.dim, [(r.a, r.rel) for r in sys.rows], cost)
    tag, nums, den = family.solve([r.b for r in sys.rows])
    if tag == "infeasible":
        return _INFEASIBLE
    if tag == "unbounded":
        return _UNBOUNDED
    value = Fraction(sum(map(mul, iobjective, nums)), omult * den)
    return LpOutcome("optimal", value, QVector([Fraction(v, den) for v in nums]))


def lp_range(sys: LinearSystem, objective: Sequence) -> Optional[tuple]:
    """(min, max) of the objective, a sequence of ints and Fractions as
    lp_solve takes it, over a closed system, None when the system is empty:
    the span of a one-shot family, whose two solves each start cold, as
    lp_solve's, and return the optimum values alone. The caller knows the
    region bounded, so an unbounded LP raises InternalInvariantError."""
    if sys.has_strict():
        raise ValueError("lp_range takes closed rows only")
    cost, mult = _integer_cost(objective, sys.dim)
    family = RhsFamily(sys.dim, [(r.a, r.rel) for r in sys.rows], cost)
    ends = family.span([r.b for r in sys.rows])
    return None if ends is None else tuple(Fraction(v, mult * den) for v, den in ends)


def strict_feasible_point(sys: LinearSystem) -> Optional[QVector]:
    """A point satisfying closed rows and every strict row strictly, or None.

    One check of a one-shot StrictFamily, whose lifted family settles the
    constant rows, strict ones included, and re-verifies its optimum in
    integer arithmetic; the witness is checked again against every row. A
    miss raises InternalInvariantError.
    """
    found = StrictFamily(sys.dim, [(r.a, r.rel) for r in sys.rows]).point(
        [r.b for r in sys.rows])
    if found is None:
        return None
    nums, den = found
    if not all(r.holds_at(nums, den) for r in sys.rows):
        raise InternalInvariantError("strict feasibility witness failed re-verification")
    return QVector([Fraction(v, den) for v in nums])


def _truncated_cone(rows, dim: int) -> LinearSystem:
    """{y : a . y rel 0 for each row (a, rel), |y_j| <= 1} for closed integer
    rows; the cone rows come first."""
    cone = [LinRow(a, 0, rel) for a, rel in rows]
    for j in range(dim):
        cone.append(LinRow(_unit(dim, j), 1, LE))
        cone.append(LinRow(_unit(dim, j, -1), 1, LE))
    return LinearSystem(dim, tuple(cone))


def _projection_bounded(sys: LinearSystem, coords) -> bool:
    """True iff the closed system's recession cone has y_i = 0 for i in coords:
    the lp_range of each y_i over the truncated cone is (0, 0)."""
    cone = _truncated_cone([(r.a, r.rel) for r in sys.closure().rows], sys.dim)
    return all(lp_range(cone, _unit(sys.dim, i)) == (0, 0) for i in coords)


def recession_bounded(rows, ncols: int) -> bool:
    """Whether {y : rows y <= 0} is the origin alone, for integer rows of
    ncols entries each.

    A rank test and one LP. The rows must span R^ncols, else a direction w
    with rows w = 0 lies in the cone. Then the column sums 1^T rows are
    minimized over the truncated cone {rows y <= 0, |y_j| <= 1}: every
    (rows y)_i is <= 0 there, so an optimum of 0 forces rows y = 0, hence
    y = 0 by full rank, while a nonzero y in the cone has rows y != 0 and a
    negative sum.
    """
    if ncols == 0:
        return True
    if _nullspace_direction(rows, ncols) is not None:
        return False
    sums = [sum(col) for col in zip(*rows)]
    out = lp_solve(_truncated_cone([(a, LE) for a in rows], ncols), sums, "min")
    if not out.is_optimal:
        raise InternalInvariantError("truncated cone LP must be optimal")
    return out.value == 0


def vertices(sys: LinearSystem, config: SolverConfig = DEFAULT_CONFIG) -> list:
    """All vertices of the closed feasible region, deduplicated, in lex order.

    Infeasible systems give []. Raises on an unbounded (nonempty) region, and
    raises ResourceLimitError if C(rows, dim) exceeds the configured cap.
    """
    closed = sys.closure()
    feas = lp_solve(closed, (0,) * sys.dim, "min")
    if not feas.is_optimal:
        return []
    if sys.dim == 0:
        return [QVector(())]
    if not _projection_bounded(closed, range(sys.dim)):
        raise ValueError("vertex enumeration on an unbounded system")
    rows = [r for r in closed.rows if any(r.a)]  # a zero row bounds no vertex
    if math.comb(len(rows), sys.dim) > config.basis_cap:
        raise ResourceLimitError(f"basis_cap={config.basis_cap}: vertex enumeration over "
                                 f"{len(rows)} rows exceeds the basis cap")
    found = set()
    for subset in combinations(rows, sys.dim):
        x = _solve_square([r.a for r in subset], [r.b for r in subset], sys.dim)
        if x is None:
            continue
        nums, den = _over_common_denominator(x)
        if all(r.holds_at(nums, den) for r in closed.rows):
            found.add(tuple(x))
    return [QVector(v) for v in sorted(found)]


def _pinned(rows, rhs, dim: int, nums, den: int) -> bool:
    """Whether the rows (a, rel) at rhs tight at the point nums / den alone
    prove that it is the region's only point: the equality rows leave no
    free direction, or they leave exactly one, w, and two rows tight at the
    point bound it on opposite sides (a . w > 0 and a . w < 0, so the point
    plus t w leaves the region for every t != 0)."""
    equal = [a for a, rel in rows if rel == EQ]
    w = _nullspace_direction(equal, dim)
    if w is None:
        return True
    if _nullspace_direction(equal + [w], dim) is not None:
        return False
    sides = set()
    for (a, rel), b in zip(rows, rhs):
        if rel != EQ and sum(map(mul, a, nums)) == b * den:
            aw = sum(map(mul, a, w))
            if aw:
                sides.add(aw > 0)
    return len(sides) == 2


def affinely_independent_vertices(dim: int, rows, rhs):
    """(k, vertices): k affinely independent vertices of the closure of the
    rows (a, rel) at rhs, k = 1 + its affine dimension, by <= 2 dim + 1 LPs.

    The LPs are cold with_cost siblings of one RhsFamily over the closed
    rows, which share its row split and kernel form, so their pivots and
    vertices are those of lp_solve. v0 is the optimum of the zero cost.
    When the rows tight at v0 pin it (_pinned), the region is the point v0
    and the walk ends there, after one LP. Otherwise, while the directions
    found span less than R^dim, a w orthogonal to them is minimized and
    maximized: an optimal vertex v with w . v != w . v0 (the minimizer
    first) joins the output and v - v0 the directions; if none, w is an
    implicit equality and joins the directions. The w are independent and
    each is bounded both ways on a bounded region, so an unbounded region
    raises ValueError; an infeasible one gives (0, []). A row of another
    length than dim, or an rhs of another length than rows, raises
    ValueError before any LP.
    """
    rows = [(a, LE if rel == LT else rel) for a, rel in rows]
    if len(rhs) != len(rows):
        raise ValueError(f"{len(rows)} rows but {len(rhs)} right-hand sides")
    if any(len(a) != dim for a, _ in rows):
        raise ValueError(f"a row of another length than dim = {dim}")
    family = RhsFamily(dim, rows, (0,) * dim)
    tag, nums, den = family.solve(rhs)
    if tag != "optimal":
        return 0, []
    chosen = [QVector([Fraction(v, den) for v in nums])]
    if dim == 0 or _pinned(rows, rhs, dim, nums, den):
        return 1, chosen
    spanned = []
    while len(spanned) < dim:
        w = _nullspace_direction(spanned, dim)
        outs = [family.with_cost(cost).solve(rhs) for cost in (w, [-v for v in w])]
        if any(out[0] != "optimal" for out in outs):
            raise ValueError("vertex walk on an unbounded system")
        at_v0 = sum(map(mul, w, nums))  # over den
        off = next(((p, d) for _, p, d in outs if sum(map(mul, w, p)) * den != at_v0 * d), None)
        if off is None:
            spanned.append(w)
        else:
            p, d = off
            chosen.append(QVector([Fraction(v, d) for v in p]))
            spanned.append([v * den - v0 * d for v, v0 in zip(p, nums)])  # (v - v0) d den
    return len(chosen), chosen
