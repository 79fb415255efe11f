"""Decision oracles over the cell decomposition.

decide_le answers "is there a bilevel-feasible point, satisfying the extra
rows, with objective at most alpha"; decide_eq asks for exact equality and
hands back a witness; witness_le hands back the witness of decide_le;
decide_le_pure is the all-integer variant.

The three mixed queries are each one pass of DecisionScan.hits, the only
loop over the cells here. On one cell the objective is affine in z over a
half-open region Q, and the thresholds alpha for which Q has a point of
value <= alpha form a ray, [low, inf) or (low, inf), where low is the LP
minimum of the objective over the closure of Q. A scan keeps each cell's
low, found once by the first query that reaches the cell, and answers from
it: a threshold below low skips the cell and a value <= alpha query above
low is a hit, both without an LP. Only a threshold equal to low, and an
equality query above it, run a strict-feasibility check; so does a witness
request, to produce the point.

The all-integer variant's one loop is pure_responses, the table of the best
leader response at each integer z: decide_le_pure is one pass of it, and the
pure driver lists it once per solve and answers every threshold query from
the list.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .cells import Cell, Instance, cell_index, integer_candidates, specialize_row
from .config import DEFAULT_CONFIG, SolverConfig
from .errors import InternalInvariantError
from .lattice import integer_min, integer_min_value
from .linear import (LT, LinRow, LinearSystem, lp_solve, row_eq, row_le,
                     strict_feasible_point)
from .rational import QVector, floor_rat

MIXED = "mixed"
PURE = "pure"


@dataclass(frozen=True)
class GeneralizedProblem:
    """An instance plus extra rows over (x, z), prefix fixing, and objective.

    The original problem is the GeneralizedProblem with no extras; the
    engine's subproblems (value-equality slices, lexicographic component
    minimizations) are all expressed this way. The objective defaults to the
    leader's (c, e).
    """

    base: Instance
    extra_rows: tuple = ()
    fixed_x_prefix: tuple = ()
    objective: Optional[QVector] = None
    variant: str = MIXED

    def __post_init__(self):
        object.__setattr__(self, "extra_rows", tuple(self.extra_rows))
        object.__setattr__(self, "fixed_x_prefix",
                           tuple(int(v) for v in self.fixed_x_prefix))
        if self.variant not in (MIXED, PURE):
            raise ValueError(f"unknown variant {self.variant!r}")
        if len(self.fixed_x_prefix) > self.base.n:
            raise ValueError("prefix longer than the follower dimension")
        dim = self.base.joint_dim()
        for r in self.extra_rows:
            if not isinstance(r, LinRow) or r.coeffs.dim != dim:
                raise ValueError("extra rows must be LinRow over (x, z)")
        if self.objective is not None and self.objective.dim != dim:
            raise ValueError("objective must be over (x, z)")

    def effective_objective(self) -> QVector:
        if self.objective is not None:
            return self.objective
        return self.base.objective_vector()

    def effective_extras(self) -> tuple:
        """Extra rows with the prefix fixing appended as equality rows."""
        rows = list(self.extra_rows)
        dim = self.base.joint_dim()
        for j, val in enumerate(self.fixed_x_prefix):
            coeffs = [0] * dim
            coeffs[j] = 1
            rows.append(row_eq(coeffs, val))
        return tuple(rows)


def as_problem(prob) -> GeneralizedProblem:
    if isinstance(prob, GeneralizedProblem):
        return prob
    if isinstance(prob, Instance):
        return GeneralizedProblem(prob)
    raise TypeError("expected an Instance or GeneralizedProblem")


@dataclass
class _CellItem:
    cell: Cell
    obj_shift: Fraction   # objective restricted to the cell: shift + obj_z . z
    system: LinearSystem  # region plus specialized extras, over z
    nonempty: Optional[bool] = None  # the system has a strictly feasible point
    low: Optional[Fraction] = None   # min of obj_z over the system's closure


class DecisionScan:
    """Reusable threshold oracle for one problem across many queries.

    Holds each valid cell, in lex order of (x, r), with its objective and
    its region Q under the extras specialized to the cell's x; cells that an
    extra row kills are dropped. Each cell keeps two facts, found the first
    time a query reaches it: whether Q is nonempty (known without work when
    no extra specializes to a row, since the index build proved the region
    strictly feasible; else one strict-feasibility check), and `low`, the LP
    minimum of the objective over the closure cl(Q).

    Why `low` answers most queries exactly: when Q is nonempty, the closed
    system cl(Q), its strict rows relaxed, is the closure of Q, so Q is
    dense in it. For y in cl(Q) and q in Q, the points y + t (q - y) with
    0 < t <= 1 meet the closed rows, meet every strict row strictly, and
    tend to y as t -> 0. Taking y where the objective attains `low`, Q meets
    {value <= alpha} for every alpha > low; as Q lies in cl(Q), it misses
    {value <= alpha}, and so {value = alpha}, for every alpha < low. Only
    alpha = low (is the minimum attained on Q?) and equality queries above
    `low` (does Q reach that value?) need a strict-feasibility check of the
    region with the value row.
    """

    def __init__(self, prob, config: SolverConfig = DEFAULT_CONFIG):
        self.prob = as_problem(prob)
        self.config = config
        inst = self.prob.base
        extras = self.prob.effective_extras()
        obj = self.prob.effective_objective()
        self.obj_z = QVector(obj.entries[inst.n:])
        self.items = []
        for entry in cell_index(inst, config).entries:
            sp = [specialize_row(r, entry.cell.x, inst.n) for r in extras]
            sp = [s for s in sp if s is not None]
            if any(s.constant_truth() is False for s in sp):
                continue
            shift = sum((a * b for a, b in zip(obj.entries[:inst.n], entry.cell.x)),
                        Fraction(0))
            self.items.append(_CellItem(entry.cell, shift, entry.region.with_rows(sp),
                                        nonempty=True if not sp else None))

    def low_of(self, it: _CellItem) -> Optional[Fraction]:
        """The item's `low`, or None when its region is empty; computed once."""
        if it.nonempty is None:
            it.nonempty = strict_feasible_point(it.system, self.config) is not None
        if it.nonempty and it.low is None:
            out = lp_solve(it.system.closure(), self.obj_z, "min", self.config)
            if not out.is_optimal:
                raise InternalInvariantError("nonempty bounded cell region has no LP minimum")
            it.low = out.value
        return it.low if it.nonempty else None

    def hits(self, row, alpha, witness: bool = True):
        """Cells whose region meets value <= alpha (row=row_le) or value =
        alpha (row=row_eq), in lex order: (cell, strictly feasible z, the
        cell's system with the value row).

        Beyond the item's own `low`, found once, a cell costs no LP when its
        region is empty or alpha lies below its least value obj_shift + low
        (skipped), nor when a value <= alpha query lies above that value (a
        hit, whose z is None unless `witness` asks for it).
        """
        alpha = Fraction(alpha)
        for it in self.items:
            low = self.low_of(it)
            target = alpha - it.obj_shift
            if low is None or target < low:
                continue
            system = it.system.with_rows([row(self.obj_z.entries, target)])
            sure = row is row_le and target > low
            if sure and not witness:
                yield it.cell, None, system
                continue
            z = strict_feasible_point(system, self.config)
            if z is not None:
                yield it.cell, z, system
            elif sure:
                raise InternalInvariantError("cell with a minimum below alpha has no witness")


def _first_hit(prob, row, alpha, config, scan, witness=True) -> Optional[tuple]:
    if scan is None:
        scan = DecisionScan(prob, config)
    for cell, z, _ in scan.hits(row, alpha, witness):
        return cell.x, z
    return None


def decide_le(prob, alpha, config: SolverConfig = DEFAULT_CONFIG,
              telemetry=None, scan: Optional[DecisionScan] = None) -> bool:
    """True iff some bilevel-feasible point under the extras has value <= alpha.

    A caller running many queries against one problem should pass a
    DecisionScan built from that problem; it must match prob and config.
    The same holds for decide_eq and witness_le.
    """
    if telemetry is not None:
        telemetry.decision_queries += 1
    return _first_hit(prob, row_le, alpha, config, scan, witness=False) is not None


def decide_eq(prob, value, config: SolverConfig = DEFAULT_CONFIG,
              telemetry=None, scan: Optional[DecisionScan] = None) -> Optional[tuple]:
    """A bilevel-feasible point with objective exactly `value`, or None.

    The first cell in lex order whose value slice is strictly realizable
    supplies the witness (x, z).
    """
    if telemetry is not None:
        telemetry.decision_queries += 1
    return _first_hit(prob, row_eq, value, config, scan)


def witness_le(prob, alpha, config: SolverConfig = DEFAULT_CONFIG,
               scan: Optional[DecisionScan] = None) -> Optional[tuple]:
    """Like decide_le but returns the witness (x, z) from the lex-least cell."""
    return _first_hit(prob, row_le, alpha, config, scan)


# ---------------------------------------------------------------------------
# pure variant


def strictify_for_integers(row: LinRow) -> LinRow:
    """Turn a strict row into the equivalent closed row over integer points.

    With integer coefficients a, a . y < beta over y in Z is a . y <=
    ceil(beta) - 1 for integral beta and a . y <= floor(beta) otherwise;
    rational coefficients are first scaled to integers.
    """
    if row.rel != LT:
        return row
    scale = math.lcm(*(f.denominator for f in row.coeffs))
    coeffs = [f * scale for f in row.coeffs]
    rhs = row.rhs * scale
    tight = rhs - 1 if rhs.denominator == 1 else Fraction(floor_rat(rhs))
    return row_le(coeffs, tight)


def fix_z_suffix(row: LinRow, z: QVector, n: int) -> Optional[LinRow]:
    """Restrict a row over (x, z) to fixed z; returns a row over x or None."""
    coeffs = row.coeffs.entries
    shift = QVector(coeffs[n:]).dot(z)
    out = LinRow(QVector(coeffs[:n]), row.rhs - shift, row.rel)
    truth = out.constant_truth()
    if truth is None:
        return out
    return None if truth else row_le([0] * n, -1)


def z_first(rows, n: int) -> list:
    """Rows over (x, z) rewritten over (z, x), so that integer_candidates
    lists the leader's z first."""
    out = []
    for r in rows:
        co = r.coeffs.entries
        out.append(LinRow(QVector(co[n:] + co[:n]), r.rhs, r.rel))
    return out


def pure_responses(prob, config: SolverConfig = DEFAULT_CONFIG, alpha=None):
    """The all-integer variant's response table, one entry per leader z.

    Lists the integer z of the closed joint relaxation (upper rows, follower
    relaxation, extras tightened to closed rows over integers, and value <=
    alpha when alpha is given) in lex order. At each z it solves the
    follower, fixes the upper rows and extras at z, and minimizes the
    leader's objective over the follower's argmin under them; when that set
    is nonempty it yields (value, x, z) with x its lex-least minimizer and x
    and z as tuples of ints. Every bilevel-feasible point of value v at a
    listed z has an entry of value <= v at that z.
    """
    prob = as_problem(prob)
    inst = prob.base
    obj = prob.effective_objective()
    obj_z = QVector(obj.entries[inst.n:])
    obj_x = QVector(obj.entries[:inst.n])
    extras = [strictify_for_integers(r) for r in prob.effective_extras()]
    if any(r.constant_truth() is False for r in extras):
        return
    fixable = inst.upper_rows() + extras
    joint = inst.upper_rows() + inst.follower_relax_rows() + extras
    if alpha is not None:
        joint.append(row_le(obj.entries, alpha))
    budget = [0]
    for z_ints in integer_candidates(z_first(joint, inst.n), inst.joint_dim(), inst.d,
                                     config, budget):
        z = QVector([Fraction(v) for v in z_ints])
        follower = inst.follower_system_at(z)
        fopt = integer_min_value(inst.psi, follower, config)
        if fopt is None:
            continue
        fixed = [fix_z_suffix(r, z, inst.n) for r in fixable]
        fixed = [r for r in fixed if r is not None]
        if any(r.constant_truth() is False for r in fixed):
            continue
        leader = follower.with_rows([row_eq(inst.psi.entries, fopt)] + fixed)
        lopt = integer_min(obj_x, leader, config=config)
        if lopt.is_optimal:
            x = tuple(int(v) for v in lopt.point.entries)
            yield lopt.value + obj_z.dot(z), x, z_ints


def decide_le_pure(prob, alpha, config: SolverConfig = DEFAULT_CONFIG,
                   telemetry=None) -> bool:
    """All-integer variant: leader z is integral too.

    One pass of pure_responses with value <= alpha added to the relaxation,
    stopping at the first entry of value <= alpha.
    """
    if telemetry is not None:
        telemetry.decision_queries += 1
    alpha = Fraction(alpha)
    return any(v <= alpha for v, _, _ in pure_responses(prob, config, alpha))
