"""Exact linear programming and polyhedral predicates over the rationals.

The LP core is a two-phase simplex with Bland's rule. The tableau is kept as
an integer matrix over a common positive denominator (fraction-free pivoting),
so every intermediate quantity is an exact integer and every reported optimum
is an exact rational. Divisibility of each pivot update is asserted; a failure
would mean a bug, not bad data.

Each row is scaled to integers once: `LinRow.scaled` multiplies it by the lcm
of its denominators and is cached on the immutable row, so a row shared by
many LPs (a system reused under branch-and-bound rows, a follower system
solved for several objectives) is scaled a single time. The simplex tableau,
the active-row test of vertex purification and the re-verification all read
that integer form: a point is put over one common denominator and every row
is checked with integer dot products. Re-verification stays fatal: an
`lp_solve` optimum or a `strict_feasible_point` witness that misses any row
raises `InternalInvariantError`.

Boundedness is proved once and carried. A system built from rows whose
recession cone `{y : rows y <= 0}` is already proved to be `{0}` (instance
validation proves it for the follower matrix and for the upper-level region)
is made with `_bounded_system`; adding rows only shrinks a cone, so
`with_rows` and `closure` keep the proof, and the integer searches and
`vertices` skip their cone LPs on such systems. A system built through the
public constructor carries no proof and is still checked.

Conventions: systems are over free variables; rows are "<=", "=", or the
strict "<". Only closed rows ("<=", "=") are legal LP input; strict rows are
the business of strict_feasible_point.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from operator import mul
from typing import Iterable, Optional, Sequence

from .config import DEFAULT_CONFIG, SolverConfig
from .errors import InternalInvariantError, ResourceLimitError
from .rational import QMatrix, QVector, Rat

LE = "<="
EQ = "="
LT = "<"
_RELATIONS = (LE, EQ, LT)


def _over_common_denominator(point) -> tuple:
    """(nums, den): integer numerators over one positive denominator."""
    den = math.lcm(*(v.denominator for v in point)) if point else 1
    return [v.numerator * (den // v.denominator) for v in point], den


@dataclass(frozen=True, slots=True)
class LinRow:
    """One linear constraint: coeffs . x  rel  rhs."""

    coeffs: QVector
    rhs: Fraction
    rel: str
    # integer form and its multiplier, filled on first use of `scaled`
    _scaled: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)
    _mult: int = field(default=0, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.rel not in _RELATIONS:
            raise ValueError(f"unknown relation {self.rel!r}")
        if not isinstance(self.coeffs, QVector):
            object.__setattr__(self, "coeffs", QVector(self.coeffs))
        if not isinstance(self.rhs, Fraction):
            object.__setattr__(self, "rhs", Fraction(self.rhs))

    @property
    def scaled(self) -> tuple:
        """(a, b): integer coefficients and rhs of the row times the lcm of its
        denominators; a . x rel b holds exactly when the row does. Computed
        once per row."""
        if self._scaled is None:
            entries = self.coeffs.entries
            mult = math.lcm(*(f.denominator for f in entries), self.rhs.denominator)
            self._set_scaled((tuple(f.numerator * (mult // f.denominator) for f in entries),
                              self.rhs.numerator * (mult // self.rhs.denominator)), mult)
        return self._scaled

    def _set_scaled(self, scaled: tuple, mult: int):
        object.__setattr__(self, "_scaled", scaled)
        object.__setattr__(self, "_mult", mult)

    def _lifted(self, slack: int) -> "LinRow":
        """The closed row coeffs . x + slack * t  rel'  rhs over (x, t), with its
        integer form derived from this row's instead of recomputed. A strict
        row becomes "<=" (the caller's slack t makes it strict)."""
        a, b = self.scaled
        out = LinRow(QVector(self.coeffs.entries + (Fraction(slack),)), self.rhs,
                     LE if self.rel == LT else self.rel)
        out._set_scaled((a + (slack * self._mult,), b), self._mult)
        return out

    def constant_truth(self) -> Optional[bool]:
        """None if some coefficient is nonzero; otherwise whether 0 rel rhs holds."""
        if any(self.coeffs.entries):
            return None
        b = self.rhs
        if self.rel == LE:
            return b >= 0
        if self.rel == EQ:
            return b == 0
        return b > 0

    def holds_at(self, nums, den: int) -> bool:
        """Whether the row holds at the point nums / den (den > 0)."""
        a, b = self.scaled
        lhs = sum(map(mul, a, nums))
        rhs = b * den
        if self.rel == LE:
            return lhs <= rhs
        if self.rel == EQ:
            return lhs == rhs
        return lhs < rhs

    def closed(self) -> "LinRow":
        if self.rel != LT:
            return self
        out = LinRow(self.coeffs, self.rhs, LE)
        if self._scaled is not None:
            out._set_scaled(self._scaled, self._mult)
        return out

    def satisfied_by(self, point: Sequence) -> bool:
        if not isinstance(point, QVector):
            point = QVector(point)
        if point.dim != self.coeffs.dim:
            raise ValueError(f"point of dim {point.dim} for a row of dim {self.coeffs.dim}")
        return self.holds_at(*_over_common_denominator(point.entries))


def row_le(coeffs: Iterable, rhs) -> LinRow:
    return LinRow(QVector(coeffs), Fraction(rhs), LE)


def row_eq(coeffs: Iterable, rhs) -> LinRow:
    return LinRow(QVector(coeffs), Fraction(rhs), EQ)


def row_lt(coeffs: Iterable, rhs) -> LinRow:
    return LinRow(QVector(coeffs), Fraction(rhs), LT)


@dataclass(frozen=True, slots=True)
class LinearSystem:
    """A finite set of rows over a fixed ambient dimension.

    `proved_bounded` records a proof that the recession cone of the closed
    system is {0}. The constructor always sets it False; only
    `_bounded_system` sets it, and `with_rows` and `closure` keep it.
    """

    dim: int
    rows: tuple
    proved_bounded: bool = field(default=False, init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.rows))
        for r in self.rows:
            if not isinstance(r, LinRow):
                raise ValueError("LinearSystem rows must be LinRow")
            if r.coeffs.dim != self.dim:
                raise ValueError(f"row of dim {r.coeffs.dim} in system of dim {self.dim}")

    def _carrying_proof(self, rows) -> "LinearSystem":
        out = LinearSystem(self.dim, rows)
        if self.proved_bounded:
            object.__setattr__(out, "proved_bounded", True)
        return out

    def closure(self) -> "LinearSystem":
        """Replace strict rows by their closed counterparts (idempotent)."""
        return self._carrying_proof(tuple(r.closed() for r in self.rows))

    def has_strict(self) -> bool:
        return any(r.rel == LT for r in self.rows)

    def with_rows(self, extra: Iterable[LinRow]) -> "LinearSystem":
        return self._carrying_proof(self.rows + tuple(extra))

    def satisfied_by(self, point: Sequence) -> bool:
        if not isinstance(point, QVector):
            point = QVector(point)
        if point.dim != self.dim:
            raise ValueError(f"point of dim {point.dim} for a system of dim {self.dim}")
        nums, den = _over_common_denominator(point.entries)
        return all(r.holds_at(nums, den) for r in self.rows)


def _bounded_system(dim: int, rows) -> LinearSystem:
    """A system marked as having the recession cone {0}.

    Only for rows that include a set whose cone is already proved trivial;
    the caller states which proof it relies on.
    """
    out = LinearSystem(dim, rows)
    object.__setattr__(out, "proved_bounded", True)
    return out


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
# fraction-free simplex


class _Tableau:
    """Integer simplex tableau: true entries are self.t[i][j] / self.den."""

    def __init__(self, t, den, basis, nrows):
        self.t = t            # list of lists of int, objective rows included
        self.den = den        # positive int
        self.basis = basis    # basis column per constraint row
        self.nrows = nrows    # number of constraint rows (objectives follow)

    def pivot(self, pr: int, pc: int):
        t, den = self.t, self.den
        piv = t[pr][pc]
        if piv == 0:
            raise InternalInvariantError("pivot on a zero element")
        prow = t[pr]
        for i, row in enumerate(t):
            if i == pr:
                continue
            f = row[pc]
            new = [a * piv - f * b for a, b in zip(row, prow)]
            if den != 1:
                if any(v % den for v in new):
                    raise InternalInvariantError("fraction-free pivot lost integrality")
                new = [v // den for v in new]
            t[i] = new
        self.den = piv
        self.basis[pr] = pc
        if self.den < 0:
            self.den = -self.den
            for i, row in enumerate(t):
                t[i] = [-v for v in row]

    def value(self, i: int, j: int) -> Fraction:
        return Fraction(self.t[i][j], self.den)


def _run_phase(tab: _Tableau, objrow: int, allowed, rhs_col: int) -> str:
    """Bland-rule simplex on one objective row; returns 'optimal' or 'unbounded'."""
    t = tab.t
    while True:
        obj = t[objrow]
        pc = None
        for j in allowed:
            if obj[j] < 0:
                pc = j
                break
        if pc is None:
            return "optimal"
        best = None
        for i in range(tab.nrows):
            a = t[i][pc]
            if a <= 0:
                continue
            if best is None:
                best = i
                continue
            lhs = t[i][rhs_col] * t[best][pc]
            rhs = t[best][rhs_col] * a
            if lhs < rhs or (lhs == rhs and tab.basis[i] < tab.basis[best]):
                best = i
        if best is None:
            return "unbounded"
        tab.pivot(best, pc)


def _simplex_free_min(dim: int, rows, cost):
    """Minimize cost . x over closed rows with x free.

    rows: closed LinRows. Returns (tag, point list[Fraction] | None).
    """
    kept = []
    for r in rows:
        truth = r.constant_truth()
        if truth is None:
            kept.append(r.scaled + (r.rel,))
        elif not truth:
            return "infeasible", None

    cmult = math.lcm(*(f.denominator for f in cost))
    icost = [f.numerator * (cmult // f.denominator) for f in cost]

    m = len(kept)
    nslack = sum(1 for r in kept if r[2] == LE)
    base_cols = 2 * dim + nslack
    body = []
    slack_seen = 0
    art_rows = []
    for i, (a, b, rel) in enumerate(kept):
        row = [0] * base_cols
        for j, v in enumerate(a):
            row[j] = v
            row[dim + j] = -v
        if rel == LE:
            row[2 * dim + slack_seen] = 1
            slack_seen += 1
        if b < 0:
            row = [-v for v in row]
            b = -b
        body.append((row, b, rel))

    # basis: a slack column with +1 where available, otherwise an artificial
    art_start = base_cols
    basis = []
    columns = base_cols
    for i, (row, b, rel) in enumerate(body):
        slack_col = None
        if rel == LE:
            for j in range(2 * dim, base_cols):
                if row[j] == 1:
                    slack_col = j
                    break
        if slack_col is not None:
            basis.append(slack_col)
        else:
            basis.append(columns)
            art_rows.append(i)
            columns += 1
    nart = columns - art_start

    rhs_col = columns
    t = []
    for i, (row, b, rel) in enumerate(body):
        full = row + [0] * nart + [0]
        if basis[i] >= art_start:
            full[basis[i]] = 1
        full[rhs_col] = b
        t.append(full)

    # phase-2 objective row: costs on u and v, slack and artificial costs zero
    p2 = [0] * (columns + 1)
    for j in range(dim):
        p2[j] = icost[j]
        p2[dim + j] = -icost[j]
    t.append(p2)
    p2row = m

    tab = _Tableau(t, 1, basis, m)
    non_art = list(range(base_cols))

    if nart:
        # phase-1 objective: reduced costs of sum(artificials) given the basis
        p1 = [0] * (columns + 1)
        for j in range(columns + 1):
            s = 0
            for i in art_rows:
                s += t[i][j]
            p1[j] = -s
        for j in range(art_start, columns):
            p1[j] += 1
        t.append(p1)
        p1row = m + 1
        tag = _run_phase(tab, p1row, non_art, rhs_col)
        if tag != "optimal":
            raise InternalInvariantError("phase 1 cannot be unbounded")
        for i in range(tab.nrows):
            if tab.basis[i] >= art_start and tab.t[i][rhs_col] != 0:
                return "infeasible", None
        # pivot remaining zero-valued artificials out, dropping redundant rows
        i = 0
        while i < tab.nrows:
            if tab.basis[i] >= art_start:
                pc = next((j for j in non_art if tab.t[i][j] != 0), None)
                if pc is None:
                    del tab.t[i]
                    del tab.basis[i]
                    tab.nrows -= 1
                    p2row -= 1
                    continue
                tab.pivot(i, pc)
            i += 1
        tab.t.pop()  # phase-1 row

    tag = _run_phase(tab, p2row, non_art, rhs_col)
    if tag == "unbounded":
        return "unbounded", None

    values = [Fraction(0)] * columns
    for i in range(tab.nrows):
        values[tab.basis[i]] = tab.value(i, rhs_col)
    point = [values[j] - values[dim + j] for j in range(dim)]
    return "optimal", point


# ---------------------------------------------------------------------------
# one-dimensional closed systems have a closed-form solution


def _interval_solve(rows, cost: Fraction):
    """Closed-form LP in one variable; bounds are kept as integer pairs
    (num, den), den > 0, and compared by cross-multiplication."""
    lo = None  # None encodes the infinite end
    hi = None
    for r in rows:
        truth = r.constant_truth()
        if truth is not None:
            if not truth:
                return "infeasible", None
            continue
        (a,), b = r.scaled
        bound = (b, a) if a > 0 else (-b, -a)
        if r.rel == EQ or a < 0:
            if lo is None or bound[0] * lo[1] > lo[0] * bound[1]:
                lo = bound
        if r.rel == EQ or a > 0:
            if hi is None or bound[0] * hi[1] < hi[0] * bound[1]:
                hi = bound
    if lo is not None and hi is not None and lo[0] * hi[1] > hi[0] * lo[1]:
        return "infeasible", None
    if cost > 0:
        end = lo
    elif cost < 0:
        end = hi
    else:
        end = lo if lo is not None else hi
        if end is None:
            return "optimal", [Fraction(0)]
    if end is None:
        return "unbounded", None
    return "optimal", [Fraction(*end)]


# ---------------------------------------------------------------------------
# exact Gaussian helpers


def _rref(vectors, dim):
    """Reduced row echelon form; returns (rows, pivot column list)."""
    rows = []
    pivots = []
    for vec in vectors:
        v = list(vec)
        for r, p in zip(rows, pivots):
            if v[p] != 0:
                f = v[p]
                for j in range(dim):
                    v[j] -= f * r[j]
        lead = next((j for j in range(dim) if v[j] != 0), None)
        if lead is None:
            continue
        f = v[lead]
        v = [e / f for e in v]
        for r, p in zip(rows, pivots):
            if r[lead] != 0:
                g = r[lead]
                for j in range(dim):
                    r[j] -= g * v[j]
        rows.append(v)
        pivots.append(lead)
    return rows, pivots


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
    """Unique solution of the dim x dim system, or None when singular."""
    aug = [list(v) + [b] for v, b in zip(vectors, rhs)]
    rows, pivots = _rref(aug, dim + 1)
    if dim in pivots:  # a row reduced to 0 = nonzero
        return None
    if len(pivots) < dim:
        return None
    x = [Fraction(0)] * dim
    for r, p in zip(rows, pivots):
        x[p] = r[dim]
    return x


def _purify_to_vertex(dim, rows, point, objective):
    """Slide an optimal point along the optimal face onto a vertex.

    Keeps every row satisfied and the objective value fixed. If the optimal
    face contains a line (only possible for unbounded feasible sets) the
    current point is returned unchanged. `objective` holds integer
    coefficients (any positive multiple of the objective); rows are tested
    for activity in their integer form against the point over one common
    denominator.
    """
    x = list(point)
    while True:
        nums, den = _over_common_denominator(x)
        active = [objective]
        for r in rows:
            a, b = r.scaled
            if r.rel == EQ or sum(map(mul, a, nums)) == b * den:
                active.append(a)
        w = _nullspace_direction(active, dim)
        if w is None:
            return x
        t_plus = None
        t_minus = None
        for r in rows:
            a, b = r.scaled
            aw = sum(map(mul, a, w))
            if aw == 0:
                continue
            step = Fraction(b * den - sum(map(mul, a, nums)), den * abs(aw))
            if aw > 0:
                if t_plus is None or step < t_plus:
                    t_plus = step
            elif t_minus is None or step < t_minus:
                t_minus = step
        if t_plus is not None:
            x = [v + t_plus * d for v, d in zip(x, w)]
        elif t_minus is not None:
            x = [v - t_minus * d for v, d in zip(x, w)]
        else:
            return x


# ---------------------------------------------------------------------------
# public operations


def lp_solve(sys: LinearSystem, objective: QVector, sense: str = "min",
             config: SolverConfig = DEFAULT_CONFIG) -> LpOutcome:
    """Exact LP over a closed system with free variables.

    Returns Infeasible, Unbounded, or Optimal with an exact value and a point
    that is a vertex of the optimal face whenever one exists. The optimum is
    re-verified against every row in integer arithmetic; a miss raises
    InternalInvariantError.
    """
    if sense not in ("min", "max"):
        raise ValueError(f"sense must be 'min' or 'max', got {sense!r}")
    if sys.has_strict():
        raise ValueError("lp_solve takes closed rows only")
    if objective.dim != sys.dim:
        raise ValueError("objective dimension does not match the system")

    rows = sys.rows
    cost = list(objective.entries)
    if sense == "max":
        cost = [-f for f in cost]

    if sys.dim == 0:
        ok = all(r.constant_truth() for r in rows)
        return LpOutcome("optimal", Fraction(0), QVector(())) if ok else _INFEASIBLE
    if sys.dim == 1:
        tag, point = _interval_solve(rows, cost[0])
    else:
        tag, point = _simplex_free_min(sys.dim, rows, cost)

    if tag == "infeasible":
        return _INFEASIBLE
    if tag == "unbounded":
        return _UNBOUNDED

    omult = math.lcm(*(f.denominator for f in objective.entries))
    iobjective = [f.numerator * (omult // f.denominator) for f in objective.entries]
    point = _purify_to_vertex(sys.dim, rows, point, iobjective)
    nums, den = _over_common_denominator(point)
    for r in rows:
        if not r.holds_at(nums, den):
            raise InternalInvariantError("lp_solve produced an infeasible point")
    value = Fraction(sum(map(mul, iobjective, nums)), omult * den)
    return LpOutcome("optimal", value, QVector(point))


def strict_feasible_point(sys: LinearSystem,
                          config: SolverConfig = DEFAULT_CONFIG) -> Optional[QVector]:
    """A point satisfying closed rows and every strict row strictly, or None.

    Maximizes one uniform slack t in [0, 1] applied to all strict rows; a
    point exists exactly when the optimum slack is positive. The witness is
    re-verified against every row in integer arithmetic; a miss raises
    InternalInvariantError.
    """
    closed = []
    strict = []
    for r in sys.rows:
        truth = r.constant_truth()
        if truth is None:
            (strict if r.rel == LT else closed).append(r)
        elif not truth:
            return None

    if not strict:
        out = lp_solve(LinearSystem(sys.dim, tuple(closed)), QVector([0] * sys.dim), "min", config)
        return out.point if out.is_optimal else None

    dim = sys.dim + 1
    lifted = [r._lifted(0) for r in closed] + [r._lifted(1) for r in strict]
    lifted.append(row_le([0] * sys.dim + [-1], 0))   # t >= 0
    lifted.append(row_le([0] * sys.dim + [1], 1))    # t <= 1
    objective = QVector([0] * sys.dim + [1])
    out = lp_solve(LinearSystem(dim, tuple(lifted)), objective, "max", config)
    if not out.is_optimal or out.value == 0:
        return None
    point = QVector(out.point.entries[:sys.dim])
    nums, den = _over_common_denominator(point.entries)
    for r in sys.rows:
        if not r.holds_at(nums, den):
            raise InternalInvariantError("strict feasibility witness failed re-verification")
    return point


def recession_rows(sys: LinearSystem):
    """Coefficient rows of the recession cone of the closed system."""
    out = []
    for r in sys.closure().rows:
        out.append(tuple(r.coeffs.entries))
        if r.rel == EQ:
            out.append(tuple(-f for f in r.coeffs.entries))
    return out


def _cone_coords_zero(coeff_rows, dim: int, coords,
                      config: SolverConfig = DEFAULT_CONFIG) -> bool:
    """True iff every y with (rows) . y <= 0 has y_i = 0 for i in coords."""
    rows = [row_le(r, 0) for r in coeff_rows]
    for j in range(dim):
        unit = [0] * dim
        unit[j] = 1
        rows.append(row_le(unit, 1))
        rows.append(row_le([-v for v in unit], 1))
    cone = LinearSystem(dim, tuple(rows))
    for i in coords:
        unit = [0] * dim
        unit[i] = 1
        for sense in ("max", "min"):
            out = lp_solve(cone, QVector(unit), sense, config)
            if not out.is_optimal:
                raise InternalInvariantError("truncated cone LP must be optimal")
            if out.value != 0:
                return False
    return True


def _projection_bounded(sys: LinearSystem, coords,
                        config: SolverConfig = DEFAULT_CONFIG) -> bool:
    """True iff the closed system's recession cone has y_i = 0 for i in coords.

    A carried boundedness proof answers without solving the cone LPs.
    """
    if sys.proved_bounded:
        return True
    return _cone_coords_zero(recession_rows(sys), sys.dim, coords, config)


def recession_bounded(m: QMatrix, config: SolverConfig = DEFAULT_CONFIG) -> bool:
    """Whether {y : m y <= 0} is the origin alone."""
    if m.ncols == 0:
        return True
    return _cone_coords_zero([tuple(row) for row in m.entries], m.ncols, range(m.ncols), config)


def vertices(sys: LinearSystem, config: SolverConfig = DEFAULT_CONFIG) -> list:
    """All vertices of the closed feasible region, deduplicated, in lex order.

    Infeasible systems give []. Raises on an unbounded (nonempty) region, and
    raises ResourceLimitError if C(rows, dim) exceeds the configured cap.
    """
    closed = sys.closure()
    feas = lp_solve(closed, QVector([0] * sys.dim), "min", config)
    if not feas.is_optimal:
        return []
    if sys.dim == 0:
        return [QVector(())]
    if not _projection_bounded(closed, range(sys.dim), config):
        raise ValueError("vertex enumeration on an unbounded system")
    rows = [r for r in closed.rows if r.constant_truth() is None]
    if math.comb(len(rows), sys.dim) > config.basis_cap:
        raise ResourceLimitError(f"basis_cap={config.basis_cap}: vertex enumeration over "
                                 f"{len(rows)} rows exceeds the basis cap")
    found = set()
    for subset in combinations(rows, sys.dim):
        x = _solve_square([list(r.coeffs.entries) for r in subset],
                          [r.rhs for r in subset], sys.dim)
        if x is None:
            continue
        nums, den = _over_common_denominator(x)
        if all(r.holds_at(nums, den) for r in closed.rows):
            found.add(tuple(x))
    return [QVector(v) for v in sorted(found)]


def affinely_independent_vertices(sys: LinearSystem,
                                  config: SolverConfig = DEFAULT_CONFIG):
    """(k, vertices) with k = 1 + affine dimension of the feasible region.

    Vertices are chosen greedily from the lex-ordered vertex list; an
    infeasible system gives (0, []).
    """
    verts = vertices(sys, config)
    if not verts:
        return 0, []
    chosen = [verts[0]]
    echelon = []
    pivots = []
    for v in verts[1:]:
        diff = list((v - chosen[0]).entries)
        for r, p in zip(echelon, pivots):
            if diff[p] != 0:
                f = diff[p]
                for j in range(len(diff)):
                    diff[j] -= f * r[j]
        lead = next((j for j in range(len(diff)) if diff[j] != 0), None)
        if lead is None:
            continue
        f = diff[lead]
        echelon.append([e / f for e in diff])
        pivots.append(lead)
        chosen.append(v)
    return len(chosen), chosen
