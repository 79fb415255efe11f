"""Integer and mixed-integer search over polyhedra: one walk, one
branch-and-bound, sharing no search code, so each cross-checks the other.

Both name the integer coordinates by index. The walk, integer_candidates,
lists in lex order the integer values of a range of coordinates that keep a
closed system feasible, taking the exact LP range (lp_range) of one
coordinate per level; every value tried counts against cell_cap. It lists
the cell candidates (x, the leading range), the pure table's leader points
(z, the trailing range) and, over every coordinate, enumerate_integers.
_branch_and_bound serves feasibility (zero objective) and minimization: it
branches on the lowest-index fractional coordinate, lower branch first, so
results and tie-breaks are deterministic. A bounded projection onto the
integer coordinates, checked first, bounds every branch, so no box is
needed. The search stops once the incumbent's value equals the root
relaxation's (Land and Doig, 1960): every node is a subproblem of the root,
so none does better. An objective is any sequence of ints and Fractions,
as linear.lp_solve takes it: integer data goes to the LPs as it is.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from .config import DEFAULT_CONFIG, SolverConfig
from .errors import BoundednessError, InternalInvariantError, ResourceLimitError
from .linear import (LE, LinRow, LinearSystem, LpOutcome, fix_block, lp_range, lp_solve, row_eq,
                     _projection_bounded)
from .rational import QVector, ceil_rat, floor_rat


def _require_closed(sys: LinearSystem):
    if sys.has_strict():
        raise ValueError("lattice operations take closed rows only")


def _check_bounded(sys: LinearSystem, coords, message: str):
    """Raise BoundednessError unless the projection onto coords is bounded.

    A system carrying a boundedness proof passes without cone LPs.
    """
    if not _projection_bounded(sys, coords):
        raise BoundednessError(message)


def _unit(dim: int, i: int, sign: int = 1) -> tuple:
    return tuple(sign if j == i else 0 for j in range(dim))


def _branch_and_bound(objective: Sequence, sys: LinearSystem, coords,
                      config: SolverConfig) -> Optional[LpOutcome]:
    """The LP optimum at the first node of least value whose point is integer
    on coords, or None when there is none. A node no better than the
    incumbent is pruned; an incumbent at the root relaxation's value ends
    the search."""
    nodes = 0
    best = root = None
    stack = [()]
    while stack:
        extra = stack.pop()
        nodes += 1
        if nodes > config.node_cap:
            raise ResourceLimitError(
                f"node_cap={config.node_cap}: branch and bound node cap exceeded")
        out = lp_solve(sys.with_rows(extra), objective, "min")
        if out.tag == "infeasible":
            continue
        if not out.is_optimal:
            raise BoundednessError("LP relaxation unbounded despite the boundedness pre-check")
        if not extra:
            root = out.value
        if best is not None and out.value >= best.value:
            continue
        pt = out.point
        frac = next((i for i in coords if pt[i].denominator != 1), None)
        if frac is None:
            best = out
            if best.value == root:
                break
            continue
        fl = floor_rat(pt[frac])
        up = extra + (LinRow(_unit(sys.dim, frac, -1), -(fl + 1), LE),)
        down = extra + (LinRow(_unit(sys.dim, frac), fl, LE),)
        stack.append(up)
        stack.append(down)  # popped first: lower branch leads
    return best


def mixed_feasible(sys: LinearSystem, integer_coords,
                   config: SolverConfig = DEFAULT_CONFIG) -> Optional[QVector]:
    """A feasible point with the coordinates whose indices integer_coords
    lists (a range, say) integer and the others continuous, or None."""
    _require_closed(sys)
    coords = sorted(set(integer_coords))
    if not all(0 <= i < sys.dim for i in coords):
        raise ValueError("integer coordinate index out of range")
    _check_bounded(sys, coords, "projection onto the integer coordinates is unbounded")
    out = _branch_and_bound((0,) * sys.dim, sys, coords, config)
    return None if out is None else out.point


def integer_min_value(objective: Sequence, sys: LinearSystem,
                      config: SolverConfig = DEFAULT_CONFIG) -> Optional[Fraction]:
    """Exact integer minimum value of the objective, a sequence of ints and
    Fractions, None when no integer point exists. The feasible region must
    be bounded."""
    _require_closed(sys)
    if len(objective) != sys.dim:
        raise ValueError("objective dimension mismatch")
    _check_bounded(sys, range(sys.dim), "integer_min needs a bounded feasible region")
    out = _branch_and_bound(objective, sys, range(sys.dim), config)
    return None if out is None else out.value


def integer_min(objective: Sequence, sys: LinearSystem,
                config: SolverConfig = DEFAULT_CONFIG) -> LpOutcome:
    """Exact integer minimum with the lexicographically smallest optimum.

    The objective is a sequence of ints and Fractions. Every coordinate is
    integer; the feasible region must be bounded. Stage one finds the
    optimum value (integer_min_value), stage two fixes coordinates left to
    right at their minimum values, each a unit objective.
    """
    best = integer_min_value(objective, sys, config)
    if best is None:
        return LpOutcome("infeasible")
    coords = range(sys.dim)
    cur = sys.with_rows([row_eq(objective, best)])
    point = []
    for j in coords:
        out = _branch_and_bound(_unit(sys.dim, j), cur, coords, config)
        if out is None or out.value.denominator != 1:
            raise InternalInvariantError("lex fixing lost feasibility or integrality")
        point.append(out.value)
        cur = cur.with_rows([row_eq(_unit(sys.dim, j), out.value)])
    return LpOutcome("optimal", best, QVector(point))


def _charge(budget, config: SolverConfig):
    """Count one unit of enumeration work against cell_cap."""
    budget[0] += 1
    if budget[0] > config.cell_cap:
        raise ResourceLimitError(f"cell_cap={config.cell_cap}: cell enumeration cap exceeded")


def integer_candidates(rows, total_dim: int, coords: range, config: SolverConfig,
                       budget) -> list:
    """Integer assignments of the coordinates in `coords`, a step-1 range,
    that keep the closed system feasible with the others continuous.

    Lex order; each level fixes coordinate coords.start, where the next one
    of the range then sits. `budget` is a one-element mutable counter shared
    with the caller's cap, charged once per integer value tried.
    """
    if not coords:  # the empty assignment, when the system has a point
        sys = LinearSystem(total_dim, tuple(rows))
        return [()] if lp_solve(sys, (0,) * total_dim, "min").is_optimal else []
    at = coords.start
    out = []

    def walk(prefix, cur):
        dim = total_dim - len(prefix)
        span = lp_range(LinearSystem(dim, tuple(cur)), _unit(dim, at))
        if span is None:
            return
        for v in range(ceil_rat(span[0]), floor_rat(span[1]) + 1):
            _charge(budget, config)
            if len(prefix) + 1 == len(coords):  # a leaf: nothing reads the substituted rows
                out.append(tuple(prefix) + (v,))
            else:
                walk(prefix + [v], fix_block(cur, (v,), at))

    walk([], list(rows))
    return out


def enumerate_integers(sys: LinearSystem,
                       config: SolverConfig = DEFAULT_CONFIG) -> list:
    """All integer points of a bounded closed system, in lex order: one
    integer_candidates walk over every coordinate, charged to cell_cap."""
    _require_closed(sys)
    _check_bounded(sys, range(sys.dim), "enumerate_integers needs a bounded region")
    return [QVector(p) for p in integer_candidates(sys.rows, sys.dim, range(sys.dim), config, [0])]
