"""Decision oracles over the cell decomposition.

decide_le answers "is there a bilevel-feasible point, satisfying the extra
rows, with objective at most alpha"; decide_eq asks for exact equality and
hands back a witness; witness_le hands back the witness of decide_le;
decide_le_pure is the all-integer variant. The three mixed queries are each
one pass of DecisionScan.hits, the only loop over the cells here. These are
the only queries the search engine ever makes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .cells import Cell, Instance, cell_index, integer_candidates, specialize_row
from .config import DEFAULT_CONFIG, SolverConfig
from .lattice import integer_min
from .linear import (LT, LinRow, LinearSystem, row_eq, row_le,
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
    max_false: Optional[Fraction] = None


class DecisionScan:
    """Reusable threshold oracle for one problem across many queries.

    Holds each valid cell, in lex order of (x, r), with its objective and
    its region under the extras specialized to the cell's x; cells that an
    extra row kills are dropped. Remembers per cell the largest alpha for
    which {value <= alpha} missed the cell. That set only grows with alpha
    and contains {value = alpha}, so the cutoff skips le, eq and witness
    checks alike.
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
            self.items.append(_CellItem(entry.cell, shift, entry.region.with_rows(sp)))

    def hits(self, row, alpha):
        """Cells whose region meets value <= alpha (row=row_le) or value =
        alpha (row=row_eq), in lex order: (cell, strictly feasible z, the
        cell's system with the value row)."""
        alpha = Fraction(alpha)
        for it in self.items:
            if it.max_false is not None and alpha <= it.max_false:
                continue
            system = it.system.with_rows([row(self.obj_z.entries, alpha - it.obj_shift)])
            z = strict_feasible_point(system, self.config)
            if z is not None:
                yield it.cell, z, system
            elif row is row_le:
                it.max_false = alpha


def _first_hit(prob, row, alpha, config, scan) -> Optional[tuple]:
    if scan is None:
        scan = DecisionScan(prob, config)
    for cell, z, _ in scan.hits(row, alpha):
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
    return _first_hit(prob, row_le, alpha, config, scan) is not None


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


def decide_le_pure(prob, alpha, config: SolverConfig = DEFAULT_CONFIG,
                   telemetry=None) -> bool:
    """All-integer variant: leader z is integral too.

    Enumerates integer z over the closed joint relaxation, solves the
    follower exactly at each z, then minimizes the leader objective over
    the follower's argmin under upper rows and extras.
    """
    if telemetry is not None:
        telemetry.decision_queries += 1
    prob = as_problem(prob)
    inst = prob.base
    alpha = Fraction(alpha)
    obj = prob.effective_objective()
    obj_z = QVector(obj.entries[inst.n:])
    obj_x = QVector(obj.entries[:inst.n])
    extras = [strictify_for_integers(r) for r in prob.effective_extras()]
    if any(r.constant_truth() is False for r in extras):
        return False

    joint = inst.upper_rows() + inst.follower_relax_rows() + extras
    joint.append(row_le(obj.entries, alpha))
    swapped = []
    for r in joint:
        co = r.coeffs.entries
        swapped.append(LinRow(QVector(co[inst.n:] + co[:inst.n]), r.rhs, r.rel))
    budget = [0]
    for z_ints in integer_candidates(swapped, inst.joint_dim(), inst.d, config, budget):
        z = QVector([Fraction(v) for v in z_ints])
        follower = inst.follower_system_at(z)
        fopt = integer_min(inst.psi, follower, config=config)
        if not fopt.is_optimal:
            continue
        leader_rows = [row_eq(inst.psi.entries, fopt.value)]
        dead = False
        for r in inst.upper_rows() + extras:
            fixed = fix_z_suffix(r, z, inst.n)
            if fixed is None:
                continue
            if fixed.constant_truth() is False:
                dead = True
                break
            leader_rows.append(fixed)
        if dead:
            continue
        lopt = integer_min(obj_x, follower.with_rows(leader_rows), config=config)
        if not lopt.is_optimal:
            continue
        if lopt.value + obj_z.dot(z) <= alpha:
            return True
    return False
