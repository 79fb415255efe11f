"""Integer and mixed-integer search over polyhedra.

Feasibility and optimization run branch-and-bound on exact LP relaxations:
branch on the lowest-index fractional coordinate, lower branch first, so
results and tie-breaks are deterministic. Enumeration is a separate
bounds-guided depth-first walk and serves as the independent cross-check.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .config import DEFAULT_CONFIG, SolverConfig
from .errors import BoundednessError, InternalInvariantError, ResourceLimitError
from .linear import (LinearSystem, LpOutcome, lp_solve, row_eq, row_le, substitute_first,
                     _projection_bounded)
from .rational import QVector, ceil_rat, floor_rat


@dataclass(frozen=True)
class MixedPattern:
    """Which coordinates of a system must be integer."""

    dim: int
    integer_coords: frozenset

    def __post_init__(self):
        object.__setattr__(self, "integer_coords", frozenset(self.integer_coords))
        if not all(0 <= i < self.dim for i in self.integer_coords):
            raise ValueError("integer coordinate index out of range")

    @classmethod
    def all_integer(cls, dim: int) -> "MixedPattern":
        return cls(dim, frozenset(range(dim)))


def _require_closed(sys: LinearSystem):
    if sys.has_strict():
        raise ValueError("lattice operations take closed rows only")


def _check_bounded(sys: LinearSystem, coords, config: SolverConfig, message: str):
    """Raise BoundednessError unless the projection onto coords is bounded.

    A system carrying a boundedness proof passes without cone LPs.
    """
    if not _projection_bounded(sys, coords, config):
        raise BoundednessError(message)


def _unit(dim: int, i: int):
    e = [Fraction(0)] * dim
    e[i] = Fraction(1)
    return e


def _integer_bounds(sys: LinearSystem, coords, config: SolverConfig):
    """Integer interval per required coordinate, or None when one is empty."""
    bounds = {}
    for i in coords:
        unit = QVector(_unit(sys.dim, i))
        lo_out = lp_solve(sys, unit, "min", config)
        if not lo_out.is_optimal:
            return None if lo_out.tag == "infeasible" else _raise_unbounded()
        hi_out = lp_solve(sys, unit, "max", config)
        if not hi_out.is_optimal:
            return None if hi_out.tag == "infeasible" else _raise_unbounded()
        lo, hi = ceil_rat(lo_out.value), floor_rat(hi_out.value)
        if lo > hi:
            return None
        bounds[i] = (lo, hi)
    return bounds


def _raise_unbounded():
    raise BoundednessError("LP relaxation unbounded despite the boundedness pre-check")


def mixed_feasible(sys: LinearSystem, pattern: MixedPattern,
                   config: SolverConfig = DEFAULT_CONFIG) -> Optional[QVector]:
    """A feasible point with the patterned coordinates integer, or None."""
    _require_closed(sys)
    if pattern.dim != sys.dim:
        raise ValueError("pattern dimension does not match the system")
    coords = sorted(pattern.integer_coords)
    _check_bounded(sys, coords, config,
                   "projection onto the integer coordinates is unbounded")
    bounds = _integer_bounds(sys, coords, config)
    if bounds is None:
        return None
    box = []
    for i, (lo, hi) in bounds.items():
        box.append(row_le(_unit(sys.dim, i), hi))
        box.append(row_le([-v for v in _unit(sys.dim, i)], -lo))
    zero = QVector([0] * sys.dim)

    nodes = 0
    stack = [tuple(box)]
    while stack:
        extra = stack.pop()
        nodes += 1
        if nodes > config.node_cap:
            raise ResourceLimitError(
                f"node_cap={config.node_cap}: branch and bound node cap exceeded")
        out = lp_solve(sys.with_rows(extra), zero, "min", config)
        if out.tag == "infeasible":
            continue
        if not out.is_optimal:
            _raise_unbounded()
        pt = out.point
        frac = next((i for i in coords if pt[i].denominator != 1), None)
        if frac is None:
            return pt
        fl = floor_rat(pt[frac])
        up = extra + (row_le([-v for v in _unit(sys.dim, frac)], -(fl + 1)),)
        down = extra + (row_le(_unit(sys.dim, frac), fl),)
        stack.append(up)
        stack.append(down)  # popped first: lower branch leads
    return None


def _bb_min_value(objective: QVector, sys: LinearSystem, coords,
                  config: SolverConfig) -> Optional[Fraction]:
    """Minimum of the objective over integer-patterned points, None if empty."""
    nodes = 0
    best = None
    stack = [()]
    while stack:
        extra = stack.pop()
        nodes += 1
        if nodes > config.node_cap:
            raise ResourceLimitError(
                f"node_cap={config.node_cap}: branch and bound node cap exceeded")
        out = lp_solve(sys.with_rows(extra), objective, "min", config)
        if out.tag == "infeasible":
            continue
        if not out.is_optimal:
            _raise_unbounded()
        if best is not None and out.value >= best:
            continue
        pt = out.point
        frac = next((i for i in coords if pt[i].denominator != 1), None)
        if frac is None:
            best = out.value
            continue
        fl = floor_rat(pt[frac])
        up = extra + (row_le([-v for v in _unit(sys.dim, frac)], -(fl + 1)),)
        down = extra + (row_le(_unit(sys.dim, frac), fl),)
        stack.append(up)
        stack.append(down)
    return best


def integer_min_value(objective: QVector, sys: LinearSystem,
                      config: SolverConfig = DEFAULT_CONFIG) -> Optional[Fraction]:
    """Exact integer minimum value of the objective, None when no integer
    point exists. The feasible region must be bounded."""
    _require_closed(sys)
    if objective.dim != sys.dim:
        raise ValueError("objective dimension mismatch")
    _check_bounded(sys, range(sys.dim), config, "integer_min needs a bounded feasible region")
    return _bb_min_value(objective, sys, range(sys.dim), config)


def integer_min(objective: QVector, sys: LinearSystem,
                pattern: Optional[MixedPattern] = None,
                config: SolverConfig = DEFAULT_CONFIG) -> LpOutcome:
    """Exact integer minimum with the lexicographically smallest optimum.

    The pattern must mark every coordinate integer; the feasible region must
    be bounded. Stage one finds the optimum value (integer_min_value), stage
    two fixes coordinates left to right at their minimum values.
    """
    if pattern is None:
        pattern = MixedPattern.all_integer(sys.dim)
    if pattern.dim != sys.dim or pattern.integer_coords != frozenset(range(sys.dim)):
        raise ValueError("integer_min needs an all-integer pattern")
    best = integer_min_value(objective, sys, config)
    if best is None:
        return LpOutcome("infeasible")
    coords = range(sys.dim)
    cur = sys.with_rows([row_eq(objective.entries, best)])
    point = []
    for j in coords:
        vj = _bb_min_value(QVector(_unit(sys.dim, j)), cur, coords, config)
        if vj is None or vj.denominator != 1:
            raise InternalInvariantError("lex fixing lost feasibility or integrality")
        point.append(vj)
        cur = cur.with_rows([row_eq(_unit(sys.dim, j), vj)])
    return LpOutcome("optimal", best, QVector(point))


def enumerate_integers(sys: LinearSystem,
                       config: SolverConfig = DEFAULT_CONFIG) -> list:
    """All integer points of a bounded closed system, in lex order."""
    _require_closed(sys)
    _check_bounded(sys, range(sys.dim), config, "enumerate_integers needs a bounded region")

    out = []

    def emit(prefix):
        out.append(QVector(prefix))
        if len(out) > config.integer_point_cap:
            raise ResourceLimitError(
                f"integer_point_cap={config.integer_point_cap}: integer point cap exceeded")

    def walk(prefix, rows, remaining):
        if remaining == 0:
            if all(r.constant_truth() for r in rows):
                emit(prefix)
            return
        sub = LinearSystem(remaining, tuple(rows))
        unit = QVector(_unit(remaining, 0))
        lo_out = lp_solve(sub, unit, "min", config)
        if lo_out.tag == "infeasible":
            return
        hi_out = lp_solve(sub, unit, "max", config)
        if not (lo_out.is_optimal and hi_out.is_optimal):
            _raise_unbounded()
        for v in range(ceil_rat(lo_out.value), floor_rat(hi_out.value) + 1):
            walk(prefix + [Fraction(v)], substitute_first(rows, Fraction(v)), remaining - 1)

    walk([], list(sys.rows), sys.dim)
    return out
