"""Exact linear programming and polyhedral predicates over the rationals.

The LP core is an integer dual simplex over a basis of `dim` rows, for LPs
in two or more variables; an LP in one variable has a closed form. The
basis inverse is kept as an integer adjugate over a positive denominator,
B^-1 = adj / det (Bareiss), so every intermediate quantity is an exact
integer and every reported optimum is an exact rational. A basis exchange
is one fraction-free update whose divisions are exact by construction; a
remainder would mean a bug, not bad data. The core reads "<=" rows alone,
an "=" row as its two sides, and per coordinate the rows whose only nonzero
is there (`_kernel_form`); no kernel function reads a relation. A cold
start is dual feasible, built from those unit rows, the tightest on the
side each cost pushes to, or from artificial bound rows far enough out to
cut off no vertex (`_vertex_bound`, Hadamard's bound, which the integer
search of `lattice` also takes for its unbranched bounds), and Bland's rule
on the dual ends every solve. The whole dual simplex, the cold start, the
pricing scan, the point adj b_B, the ratio test's adj^T cost and adj^T a,
the exchange and the exit test, is compiled once per dimension from one
template (`_kernel_source`, `_kernel_ops`): the basis, the adjugate and the
point are locals, every product a straight-line integer sum
a0 * x0 + a1 * x1 + ..., and the exchange is written out once per leaving
row, so a pivot builds no list. Its source grows as dim^3: 114 lines in
two variables, 234 in four. `_dual_simplex_min` is its one entry, and
reports with each solve the exchanges it made. The optimum leaves the
kernel as integer numerators over det. It is a vertex unless an artificial
row stays in the final basis; only then is it purified onto a vertex of
the optimal face. It is re-verified in that form, one pass of the same
generated scan over every kernel row, and becomes `Fraction`s once, for the
returned point and value.

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
LPs of `cells.valid_cells` read that test once per cell, those of
`pieces.PieceSearch` once per piece and x.
`StrictFamily` is the one strict lift: closed rows keep their coefficients
with a 0 for a new variable t, nonconstant strict rows get +t, 0 <= t <= 1
and t is maximized; `strict_feasible_point` checks a system with a
one-shot one, one whose strict rows are all constant, or absent, included,
the floor walk of `cells.valid_cells` checks its cells with one per walk,
`pieces.PieceSearch` its pieces with one per solve, and
`decide.DecisionScan.hits` runs one cold per check.

An objective is any sequence of ints and Fractions, integer data as it is;
`lp_solve` scales it once by the lcm of its denominators into an integer cost.
Anything else, a float, a bool or a str, raises ValueError, in an objective
or in a row built by `row_le`, `row_eq` or `row_lt`: one scaler,
`_integer_cost`, serves both.

There is one row form: an integer row (a, rel), its right-hand side b an
integer kept apart, one per row, as the families take them. The instance
keeps its rows so, the floor walk, the searches and the scans pose every
LP on such rows, and a `LinearSystem`, the input of the one-shot layer
(`lp_solve`, `lp_range`, `strict_feasible_point`, `vertices` and the
one-shot searches of `lattice`), holds its `rows` and `rhs` so, which that
layer hands to a family as they are. Its constructor takes ((a, rel), b)
pairs and rejects any entry but an int. `row_le`, `row_eq` and `row_lt`
build such a pair from rational data, such as a value row at a rational
threshold: they multiply the row once by the lcm of its denominators, with
no gcd reduction, so a row of integral data comes out with the integers it
was given. The dual simplex, the active-row test of vertex purification
and the re-verification all read that form: a point is put over one common
denominator and every row is checked with integer dot products
(`rows_hold`). Re-verification stays fatal: a family optimum, and so an
`lp_solve` one, or a strict witness that misses any row raises
`InternalInvariantError`.

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
settles each constant row as 0 rel b in the same pass, before any pivot
(`RhsFamily.kernel_rhs`); a StrictFamily leaves them unlifted for its
RhsFamily to settle. No caller filters them: the rounding of a
one-variable integer search in `lattice` reads its rows through a family
too, by `kernel_rhs` and the one-variable LP's line ends (`_line_ends`).
`RhsFamily.span` is the one min-then-max range of a cost, two cold
siblings that return the optimum values and build no point: over a system
in `lp_range`, and at each prefix in the integer walk of `lattice`.

`_nullspace_direction` is the package's one exact elimination routine:
`lattice` decides with it where the "=" rows pin a point. No solve path
calls `vertices`, the only code that tries all `C(rows, dim)` bases, up to
BASIS_CAP of them. Nothing else in this module reads a cap.

Conventions: systems are over free variables; rows are "<=", "=", or the
strict "<". Only closed rows ("<=", "=") are legal LP input, but for the
constant "<" rows that an RhsFamily settles; strict rows are the business of
StrictFamily and strict_feasible_point.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from operator import add, mul
from typing import Iterable, Optional, Sequence

from .errors import InternalInvariantError, ResourceLimitError
from .rational import QVector

LE = "<="
EQ = "="
LT = "<"
_RELATIONS = (LE, EQ, LT)

BASIS_CAP = 10**6  # row subsets tried by `vertices`; no solve calls it


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


def _unit(dim: int, i: int, sign: int = 1) -> tuple:
    return tuple(sign if j == i else 0 for j in range(dim))


def _integer_row(coeffs: Iterable, rhs, rel: str) -> tuple:
    """((a, rel), b): the rational row coeffs . x rel rhs times the lcm of its
    denominators, with no gcd reduction: the scaling of _integer_cost, which
    rejects any entry but an int or a Fraction."""
    coeffs = tuple(coeffs)
    scaled, _ = _integer_cost(coeffs + (rhs,), len(coeffs) + 1)
    return (tuple(scaled[:-1]), rel), scaled[-1]


def row_le(coeffs: Iterable, rhs) -> tuple:
    return _integer_row(coeffs, rhs, LE)


def row_eq(coeffs: Iterable, rhs) -> tuple:
    return _integer_row(coeffs, rhs, EQ)


def row_lt(coeffs: Iterable, rhs) -> tuple:
    return _integer_row(coeffs, rhs, LT)


@dataclass(frozen=True, slots=True, init=False)
class LinearSystem:
    """Integer rows (a, rel) over a fixed ambient dimension and their integer
    right-hand sides rhs, one per row: the rows a . x rel b, in the form the
    families take.

    Built from ((a, rel), b) pairs, as row_le, row_eq and row_lt return them
    and as zip(rows, rhs) gives them. A coefficient or a right-hand side that
    is not an int (a bool is not), an unknown relation or a row of another
    length than dim raises ValueError.
    """

    dim: int
    rows: tuple
    rhs: tuple

    def __init__(self, dim: int, pairs: Iterable):
        rows, rhs = [], []
        for (a, rel), b in pairs:
            a = tuple(a)
            if rel not in _RELATIONS:
                raise ValueError(f"unknown relation {rel!r}")
            if len(a) != dim:
                raise ValueError(f"row of dim {len(a)} in system of dim {dim}")
            if type(b) is not int or any(type(v) is not int for v in a):
                raise ValueError("LinearSystem takes integer coefficients and right-hand "
                                 "sides; row_le, row_eq and row_lt take rationals")
            rows.append((a, rel))
            rhs.append(b)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "rows", tuple(rows))
        object.__setattr__(self, "rhs", tuple(rhs))

    def closure(self) -> "LinearSystem":
        """Replace strict rows by their closed counterparts (idempotent)."""
        return LinearSystem(self.dim, (((a, LE if rel == LT else rel), b)
                                       for (a, rel), b in zip(self.rows, self.rhs)))

    def has_strict(self) -> bool:
        return any(rel == LT for _, rel in self.rows)

    def with_rows(self, extra: Iterable) -> "LinearSystem":
        """This system with the ((a, rel), b) pairs `extra` appended."""
        return LinearSystem(self.dim, [*zip(self.rows, self.rhs), *extra])

    def satisfied_by(self, point: Sequence) -> bool:
        if not isinstance(point, QVector):
            point = QVector(point)
        if point.dim != self.dim:
            raise ValueError(f"point of dim {point.dim} for a system of dim {self.dim}")
        return rows_hold(self.rows, self.rhs, *_over_common_denominator(point.entries))


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


# One template for every dimension. x, each row, the cost, the basis ids
# k{r} with their right-hand sides v{r}, and the adjugate's entries a{i}_{r}
# (coordinate i, basis position r) are locals, every product is a
# straight-line sum of them, and the exchange is written out once per
# leaving row, so a pivot builds no list.
_KERNEL = """
def first(A, b, x, den):
    [{xs}] = x
    for i, [{es}] in enumerate(A):
        if {ex} > b[i] * den:
            return i
    return None


def dots(rows, x):
    [{xs}] = x
    return [{ex} for [{es}] in rows]


def simplex(A, b, units, cost, start):
    [{cs}] = cost
    m = len(A)
    if start is None:
        extra = []
{cold}        if extra:
            big = _vertex_bound([sum(map(abs, a)) for a in A], b, {dim})
            A = A + extra
            b = [*b, *[big] * len(extra)]
{artificial}        det = abs({diag})
{inverse}    else:
        {basis}, det = start
{warm}    exchanges = 0
    while True:
{point}        for k, [{es}] in enumerate(A):
            if {ex} > b[k] * det:
                break
        else:
            break
{alpha}        out = -1
{ratio}        if out < 0:
            return "infeasible", None, None, None, exchanges
        exchanges += 1
{exchange}    if {kept}:
        return "optimal", [{xs}], det, ({basis}, det), exchanges
    if {unbounded}:
        return "unbounded", None, None, None, exchanges
    return "optimal", [{xs}], det, None, exchanges
"""

# the cold start's basis row for x{j}: the tightest unit row on the side its
# cost pushes it to, the first on a tie, the one nearest 0 for a zero cost,
# or else an artificial unit row, whose right-hand side is set once all are
# known
_COLD = """\
        k{j} = None
        if c{j}:
            up = c{j} < 0
            for i in units[{j}]:
                e = A[i][{j}]
                if (e > 0) == up and (k{j} is None or b[i] * abs(d{j}) < v{j} * abs(e)):
                    k{j}, d{j}, v{j} = i, e, b[i]
        else:
            for i in units[{j}]:
                e = A[i][{j}]
                if k{j} is None or abs(b[i] * d{j}) < abs(v{j} * e):
                    k{j}, d{j}, v{j} = i, e, b[i]
        if k{j} is None:
            k{j}, d{j} = m + len(extra), -1 if c{j} > 0 else 1
            extra.append(({unit}))
"""

# Bland's rule on the dual: the least y{r} / p{r} over p{r} > 0, the smaller
# basis id on a tie; (yb, pb, kb) is the best so far
_RATIO = """\
        if p{r} > 0:
            y{r} = -({ycol})
            if out < 0:
                out, yb, pb, kb = {r}, y{r}, p{r}, k{r}
            else:
                lhs, rhs = y{r} * pb, yb * p{r}
                if lhs < rhs or lhs == rhs and k{r} < kb:
                    out, yb, pb, kb = {r}, y{r}, p{r}, k{r}
"""


def _kernel_source(dim: int) -> str:
    """The source of the kernel in dim variables (_KERNEL), built from
    index numbers alone."""
    span = range(dim)

    def terms(form, sep=" + ", empty="0"):
        return sep.join(form.format(j=j) for j in span) or empty

    def col(r, vector):  # sum_i a{i}_{r} vector{i}: column r of adj against a vector
        return terms(f"a{{j}}_{r} * {vector}{{j}}")

    adj = "[" + terms("[" + ", ".join(f"a{{j}}_{r}" for r in span) + "]", ", ", "") + "]"
    exchange = []
    for r in span:
        # (p{r} adj - adj[:, r] (p - det e_r)^T) / det, column r kept
        cells = [(i, j) for i in span for j in span if j != r]
        lines = [f"a{i}_{j}, t{i}_{j} = divmod(p{r} * a{i}_{j} - a{i}_{r} * p{j}, det)"
                 for i, j in cells]
        if cells:
            lines += ["if " + " or ".join(f"t{i}_{j}" for i, j in cells) + ":",
                      '    raise InternalInvariantError("adjugate update lost integrality")']
        lines.append(f"det, k{r}, v{r} = p{r}, k, b[k]")
        exchange.append(f"        {'if' if r == 0 else 'elif'} out == {r}:\n"
                        + "".join(f"            {line}\n" for line in lines))
    return _KERNEL.format(
        dim=dim,
        xs=terms("x{j}", ", ", ""),
        es=terms("e{j}", ", ", ""),
        cs=terms("c{j}", ", ", ""),
        ex=terms("e{j} * x{j}"),
        cold="".join(_COLD.format(j=j, unit=" ".join(f"d{j}," if i == j else "0," for i in span))
                     for j in span),
        artificial=terms("            if k{j} >= m:\n                v{j} = big\n", "", ""),
        diag=terms("d{j}", " * ", "1"),
        inverse="".join(f"        a{i}_{i} = det // d{i}\n"
                        + "".join(f"        a{i}_{j} = 0\n" for j in span if j != i)
                        for i in span),
        basis=f"({terms('k{j},', ' ', '')}), {adj}",
        warm=terms("        v{j} = b[k{j}]\n", "", ""),
        point="".join(f"        x{i} = {terms(f'a{i}_{{j}} * v{{j}}')}\n" for i in span),
        alpha="".join(f"        p{r} = {col(r, 'e')}\n" for r in span),
        ratio="".join(_RATIO.format(r=r, ycol=col(r, "c")) for r in span),
        exchange="".join(exchange),
        kept=terms("k{j} < m", " and ", "True"),
        unbounded=" or ".join(f"k{r} >= m and {col(r, 'c')} < 0" for r in span) or "False")


@functools.cache
def _kernel_ops(dim: int) -> tuple:
    """(first, dots, simplex), the LP kernel in dim variables, compiled from
    _kernel_source(dim) once per dimension; in dimension 0 every product is
    0. first(A, b, x, den) is the index of the first row a of A with
    a . x > b_i den, or None, dots(rows, x) the list of a . x, and simplex
    the dual simplex of _dual_simplex_min. A row or an x of another length
    fails to unpack (ValueError)."""
    scope = {"_vertex_bound": _vertex_bound, "InternalInvariantError": InternalInvariantError}
    exec(compile(_kernel_source(dim), f"<LP kernel, dim {dim}>", "exec"), scope)
    return scope["first"], scope["dots"], scope["simplex"]


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
    Returns (tag, nums, den, basis, exchanges): an optimal point as integer
    numerators over one positive denominator, and the final basis as
    (ids, adj, det) when it holds no artificial row, so that the point is a
    vertex; None, None, None when there is no optimum; and the number of
    basis exchanges made.

    The basis is dim rows kept as an integer adjugate adj and a denominator
    det > 0 with B^-1 = adj / det, so the point is adj b_B / det and the
    duals are y det = -adj^T cost. A cold start is dual feasible: each x_j
    gets a row whose only nonzero is at j: the tightest on the side its
    cost pushes it to, the first in row order on a tie, or the one nearest
    0 for a zero cost; a coordinate without one gets the artificial row
    +-x_j <= M, where M exceeds every vertex coordinate by Hadamard's
    bound. Each iteration brings in the first violated row and drops the
    basis row of least y_r / alpha_r, alpha = adj^T a (Bland's rule on the
    dual, the smaller basis id on a tie); the duals are computed only then,
    when a row enters. The exchange is one fraction-free update (Bareiss),
    adj' = (alpha_r adj - adj[:, r] (alpha - det e_r)^T) / det over the new
    denominator alpha_r, whose divisions are exact when adj / det is the
    inverse of the old basis; a remainder raises InternalInvariantError. An
    artificial row left in the final basis means an unbounded LP when its
    dual is positive, the one dual computed at the exit; at a zero dual the
    point is optimal but may not be a vertex. The whole solve is the
    generated simplex of _kernel_ops(dim), on locals.
    """
    return _kernel_ops(dim)[2](A, b, units, cost, start)


# ---------------------------------------------------------------------------
# one-dimensional closed systems have a closed-form solution


def _line_ends(rows, rhs) -> tuple:
    """(lo, hi): the greatest lower and the least upper bound b / a that
    nonconstant "<=" rows (a,) in one variable set at the right-hand sides
    rhs, each an integer pair (num, den), den > 0, compared by
    cross-multiplication, or None where no row bounds x."""
    lo = None
    hi = None
    for (a,), b in zip(rows, rhs):
        if a < 0:
            bound = (-b, -a)
            if lo is None or bound[0] * lo[1] > lo[0] * bound[1]:
                lo = bound
        elif hi is None or b * hi[1] < hi[0] * a:
            hi = (b, a)
    return lo, hi


def _interval_solve(rows, rhs, cost: int):
    """Closed-form LP in one variable over nonconstant "<=" rows (a,) with
    right-hand sides rhs: the end (_line_ends) the cost pushes to. Returns
    (tag, nums, den, vertex): no vertex exists when the line has no end."""
    lo, hi = _line_ends(rows, rhs)
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


def _check_cost(cost, dim: int) -> None:
    if len(cost) != dim:
        raise ValueError(f"a cost of {len(cost)} entries for dim = {dim}")


def _check_rhs(rhs, count: int) -> None:
    if len(rhs) != count:
        raise ValueError(f"{count} rows but {len(rhs)} right-hand sides")


class RhsFamily:
    """The LPs min cost . x over fixed rows a . x rel b, one per right-hand
    side b, with free x.

    dim: the number of variables; rows: integer rows (a, rel), rel "<=" or
    "=", and a constant row (a = 0) may also be "<"; any other relation, a
    nonconstant "<" row included, raises ValueError; cost: integers.
    solve(rhs) takes one integer b per row and returns (tag, nums, den):
    "optimal" with an optimal point as integer numerators over one positive
    denominator, a vertex of the optimal face whenever one exists, or
    "infeasible" or "unbounded" with None, None.

    Construction splits the rows once. The attribute `rows` holds the
    kernel's "<=" rows: the nonconstant rows in their order, each "=" row
    followed at once by its negation. The constant rows are fixed. One map,
    a (k, sign) per kernel row, takes the caller's right-hand sides to the
    kernel's; it is None, and rhs is passed on as it is, when no row is
    constant or "=". kernel_rhs(rhs) settles each fixed row as 0 rel b at
    its b, giving None when one fails, and applies the map, in one pass; a
    solve starts with it, answering "infeasible" at None, before any
    pivot. The unit-row index of the kernel rows (_kernel_form)
    is built once, on the first solve in two or more variables. A solve
    starts from the last optimal basis that held no artificial row, and cold
    when there is none: the reduced costs of a basis depend on its rows and
    the cost alone, not on b, so an optimal basis for one rhs is dual
    feasible for every other, and the dual simplex goes on from it. An
    optimum whose basis keeps an artificial row is purified onto a vertex
    and stores no basis. One variable takes the closed form. Every optimum
    is re-verified against every kernel row in integer arithmetic, one full
    pass of the kernel's generated row scan; a miss raises
    InternalInvariantError. A row or a cost of another length than dim
    raises ValueError, here and in with_cost, and so does an rhs of another
    length than the rows, in solve before any pivot. with_cost(cost) gives
    the family of the same rows under another cost: it shares this family's
    row split, map and unit-row index, and starts cold; span(rhs) solves two
    such siblings for the cost's least and greatest value.

    unique() says whether the last solve's optimum is the only optimum. The
    family keeps the final basis of its last optimum for it, None when that
    optimum was purified or the solve found none, so the warm-start basis
    of an earlier right-hand side is never read: an optimal vertex whose
    basis duals, y det = -adj^T cost over det > 0, are all positive is the
    only optimum (Mangasarian 1979), since another optimal point would have
    to keep every basis row tight. In one variable the optimum is an end of
    an interval, the only optimum when the cost is nonzero.
    """

    __slots__ = ("dim", "rows", "cost", "_count", "_rhs_map", "_fixed", "_kernel", "_basis",
                 "_last")

    def __init__(self, dim: int, rows, cost):
        _check_cost(cost, dim)
        A, rhs_map, fixed = [], [], []
        for k, (a, rel) in enumerate(rows):
            if len(a) != dim:
                raise ValueError(f"a row of {len(a)} entries for dim = {dim}")
            if not any(a) and (rel == LE or rel == EQ or rel == LT):
                fixed.append((k, rel))
            elif rel == LE:
                A.append(a)
                rhs_map.append((k, 1))
            elif rel == EQ:
                A += [a, tuple(-v for v in a)]
                rhs_map += [(k, 1), (k, -1)]
            else:
                raise ValueError(f"an LP family takes '<=' and '=' rows and constant '<' rows, "
                                 f"not {a} {rel}")
        # None: every row is a nonconstant "<=" row, rhs is passed on as it is
        self._rhs_map = None if not fixed and len(A) == len(rows) else rhs_map
        self._fixed = fixed
        self._count = len(rows)
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
        _check_cost(cost, self.dim)
        if self._kernel is None and self.dim > 1:
            self._kernel = _kernel_form(self.dim, self.rows)
        other = object.__new__(RhsFamily)
        other.dim, other.rows, other.cost, other._count = self.dim, self.rows, cost, self._count
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
        _, dots, _ = _kernel_ops(self.dim)
        return all(v < 0 for v in dots(zip(*last[1]), self.cost))

    def kernel_rhs(self, rhs) -> Optional[list]:
        """The kernel rows' right-hand sides at the caller's rhs, or None
        when a constant row fails (see the class). An rhs of another
        length than the rows raises ValueError."""
        _check_rhs(rhs, self._count)
        if self._rhs_map is None:
            return rhs
        for k, rel in self._fixed:
            b = rhs[k]
            if b < 0 or (rel == LT if b == 0 else rel == EQ):  # 0 rel b fails
                return None
        return [sign * rhs[k] for k, sign in self._rhs_map]

    def solve(self, rhs) -> tuple:
        self._last = None
        rhs = self.kernel_rhs(rhs)
        if rhs is None:
            return "infeasible", None, None
        dim, rows, cost = self.dim, self.rows, self.cost
        if dim == 1:
            tag, nums, den, vertex = _interval_solve(rows, rhs, cost[0])
            basis = () if vertex else None
        else:
            if self._kernel is None:
                self._kernel = _kernel_form(dim, rows)
            tag, nums, den, basis, _ = _dual_simplex_min(dim, rows, rhs, self._kernel, cost,
                                                         self._basis)
            vertex = basis is not None
            if vertex:
                self._basis = basis
        if tag != "optimal":
            return tag, None, None
        if not vertex:
            nums, den = _purify_to_vertex(dim, rows, rhs, nums, den, cost)
        first = _kernel_ops(dim)[0]
        if first(rows, rhs, nums, den) is not None:
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

    __slots__ = ("lp", "order", "rows")

    def __init__(self, dim: int, rows):
        self.rows = rows
        closed = [i for i, (a, rel) in enumerate(rows) if rel != LT or not any(a)]
        strict = [i for i, (a, rel) in enumerate(rows) if rel == LT and any(a)]
        lifted = [(rows[i][0] + (0,), rows[i][1]) for i in closed]
        lifted += [(rows[i][0] + (1,), LE) for i in strict]
        lifted += [((0,) * dim + (-1,), LE), ((0,) * dim + (1,), LE)]  # 0 <= t <= 1
        self.order = closed + strict
        self.lp = RhsFamily(dim + 1, lifted, (0,) * dim + (-1,))

    def point(self, rhs) -> Optional[tuple]:
        """(nums, den) of a point with the rows' right-hand sides rhs that
        meets every strict row strictly, or None when there is none. The
        point is checked again against the rows as given (rows_hold), and a
        miss raises InternalInvariantError. An rhs of another length than
        the rows raises ValueError."""
        _check_rhs(rhs, len(self.order))
        tag, nums, den = self.lp.solve([rhs[i] for i in self.order] + [0, 1])
        if tag != "optimal" or not nums[-1]:
            return None
        nums = nums[:-1]
        if not rows_hold(self.rows, rhs, nums, den):
            raise InternalInvariantError("a strict witness failed re-verification")
        return nums, den


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
    tag, nums, den = RhsFamily(sys.dim, sys.rows, cost).solve(sys.rhs)
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
    ends = RhsFamily(sys.dim, sys.rows, cost).span(sys.rhs)
    return None if ends is None else tuple(Fraction(v, mult * den) for v, den in ends)


def strict_feasible_point(sys: LinearSystem) -> Optional[QVector]:
    """A point satisfying closed rows and every strict row strictly, or None.

    One check of a one-shot StrictFamily, whose lifted family settles the
    constant rows, strict ones included, and re-verifies its optimum in
    integer arithmetic, and which checks the witness again against every
    row of the system. A miss raises InternalInvariantError.
    """
    found = StrictFamily(sys.dim, sys.rows).point(sys.rhs)
    if found is None:
        return None
    nums, den = found
    return QVector([Fraction(v, den) for v in nums])


def _truncated_cone(rows, dim: int) -> LinearSystem:
    """{y : a . y rel 0 for each row (a, rel), |y_j| <= 1} for closed integer
    rows; the cone rows come first."""
    cone = [(row, 0) for row in rows]
    for j in range(dim):
        cone += [((_unit(dim, j), LE), 1), ((_unit(dim, j, -1), LE), 1)]
    return LinearSystem(dim, cone)


def _projection_bounded(sys: LinearSystem, coords) -> bool:
    """True iff the closed system's recession cone has y_i = 0 for i in coords:
    the lp_range of each y_i over the truncated cone is (0, 0). The rows go
    into the cone as they are, so a strict row raises lp_range's
    ValueError."""
    cone = _truncated_cone(sys.rows, sys.dim)
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


def vertices(sys: LinearSystem) -> list:
    """All vertices of the closed feasible region, deduplicated, in lex order.

    Infeasible systems give []. Raises on an unbounded (nonempty) region, and
    raises ResourceLimitError if C(rows, dim) exceeds BASIS_CAP.
    """
    closed = sys.closure()
    feas = lp_solve(closed, (0,) * sys.dim, "min")
    if not feas.is_optimal:
        return []
    if sys.dim == 0:
        return [QVector(())]
    if not _projection_bounded(closed, range(sys.dim)):
        raise ValueError("vertex enumeration on an unbounded system")
    # a zero row bounds no vertex
    rows = [(a, b) for (a, _), b in zip(closed.rows, closed.rhs) if any(a)]
    if math.comb(len(rows), sys.dim) > BASIS_CAP:
        raise ResourceLimitError(f"basis_cap={BASIS_CAP}: vertex enumeration over "
                                 f"{len(rows)} rows exceeds the basis cap")
    found = set()
    for subset in combinations(rows, sys.dim):
        x = _solve_square([a for a, _ in subset], [b for _, b in subset], sys.dim)
        if x is None:
            continue
        if rows_hold(closed.rows, closed.rhs, *_over_common_denominator(x)):
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
    length than dim, or an rhs of another length than rows, raises the
    family's ValueError before any LP.
    """
    rows = [(a, LE if rel == LT else rel) for a, rel in rows]
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
