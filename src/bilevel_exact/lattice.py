"""Integer and mixed-integer search over polyhedra: one walk, one
branch-and-bound, sharing no search code, so each cross-checks the other.

Both name the integer coordinates by index. The walk, integer_candidates,
lists in lex order the integer values of a range of coordinates that keep
closed rows (a, rel) feasible at integer right-hand sides, taking the
exact LP range of one coordinate per level; every value tried counts
against cell_cap. Each level keeps one
linear.RhsFamily over the rows with the fixed coordinates' columns dropped,
so a prefix is a right-hand side, and each range is the family's span, as
in lp_range. It lists the cell candidates (x, the leading range), the pure
table's leader points (z, the trailing range) and, over every coordinate,
enumerate_integers.

The branch-and-bound, IntegerSearch, holds fixed rows (a, rel) plus an
upper and a lower bound row per integer coordinate as one
linear.RhsFamily, so a node is a right-hand side: a branch replaces the
bound on one side of one coordinate, and each node's LP starts from the
family's last optimal basis, which stays dual feasible as right-hand sides
move. An unbranched bound sits at linear._vertex_bound of that call's rows,
which cuts nothing. It branches on the lowest-index fractional coordinate,
lower branch first, so results and tie-breaks are deterministic, prunes a
node no better than the incumbent, and stops once the incumbent's value
equals the root relaxation's (Land and Doig, 1960): every node is a
subproblem of the root, so none does better. node_cap counts the nodes of
each call. LexMin adds integer_min's lex stage: one search per coordinate
over the rows and the value row, fixing the earlier coordinates through
their bound rows, up to the first coordinate from which the "=" rows and
the value row pin the rest, so a point that they pin at once costs the
level search alone. The floor walk and the pure table keep one search per
walk or solve, the floor walk's mixed-feasibility screen and
cells.bilevel_feasible build one per call, each over rows that instance
validation proved bounded. mixed_feasible (an IntegerSearch) and
integer_min (a LexMin) are the one-shot uses over a LinearSystem, as
lp_solve is a one-shot family. They and enumerate_integers share one
prologue, _closed_bounded: strict rows are rejected and the projection
onto the integer coordinates checked bounded by its cone LPs before any
search. An objective is any sequence of ints and Fractions, as
linear.lp_solve takes it: integer data goes to the LPs as it is.
"""
from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import Optional, Sequence

from .config import DEFAULT_CONFIG, SolverConfig
from .errors import BoundednessError, InternalInvariantError, ResourceLimitError
from .linear import (EQ, LE, LinearSystem, LpOutcome, RhsFamily, _integer_cost,
                     _nullspace_direction, _projection_bounded, _unit, _vertex_bound)
from .rational import QVector


def _closed_bounded(sys: LinearSystem, coords, message: str) -> tuple:
    """(rows, rhs): the rows (a, rel) of sys and their right-hand sides.

    Raises ValueError on a strict row and BoundednessError(message) unless
    the cone LPs of _projection_bounded find the projection onto coords
    bounded.
    """
    if sys.has_strict():
        raise ValueError("lattice operations take closed rows only")
    if not _projection_bounded(sys, coords):
        raise BoundednessError(message)
    return [(r.a, r.rel) for r in sys.rows], [r.b for r in sys.rows]


class IntegerSearch:
    """Branch and bound over fixed rows (a, rel) in dim variables, integer
    on the coordinates `coords` (sorted), minimizing an integer cost.

    The rows must bound the region's projection onto coords for every
    right-hand side the search is given. minimize(rhs, config, fixed)
    takes one integer per row, and the integer values `fixed` of the first
    len(fixed) coordinates of coords, and returns (nums, den), the LP
    optimum at the first node of least cost whose point is integer on
    coords, or None when there is none.
    """

    __slots__ = ("dim", "coords", "cost", "lp", "_norms")

    def __init__(self, dim: int, rows, coords, cost):
        self.dim = dim
        self.coords = coords = sorted(set(coords))
        self.cost = cost
        self._norms = [sum(map(abs, a)) for a, _ in rows]
        bounds = [(_unit(dim, j, sign), LE) for j in coords for sign in (1, -1)]
        self.lp = RhsFamily(dim, list(rows) + bounds, cost)

    def minimize(self, rhs, config: SolverConfig, fixed=()) -> Optional[tuple]:
        coords, cost = self.coords, self.cost
        rhs = list(rhs)
        far = _vertex_bound(self._norms, rhs, self.dim)
        bounds = [far] * (2 * len(coords))  # per coordinate: x_j <= b, then -x_j <= b
        for t, v in enumerate(fixed):
            bounds[2 * t] = v
            bounds[2 * t + 1] = -v
        nodes = 0
        best = root = None  # values as (cost . nums, den), the incumbent with its point
        stack = [bounds]
        while stack:
            bounds = stack.pop()
            nodes += 1
            if nodes > config.node_cap:
                raise ResourceLimitError(
                    f"node_cap={config.node_cap}: branch and bound node cap exceeded")
            tag, nums, den = self.lp.solve(rhs + bounds)
            if tag == "infeasible":
                continue
            if tag != "optimal":
                raise BoundednessError("LP relaxation unbounded despite the boundedness pre-check")
            value = sum(map(mul, cost, nums))
            if root is None:
                root = (value, den)
            if best is not None and value * best[1] >= best[0] * den:
                continue
            t = next((t for t, j in enumerate(coords) if nums[j] % den), None)
            if t is None:
                best = (value, den, nums)
                if value * root[1] == root[0] * den:
                    break
                continue
            fl = nums[coords[t]] // den
            up = bounds.copy()
            up[2 * t + 1] = -(fl + 1)
            down = bounds.copy()
            down[2 * t] = fl
            stack.append(up)
            stack.append(down)  # popped first: lower branch leads
        return None if best is None else (best[2], best[1])


class LexMin:
    """integer_min over fixed rows (a, rel) in dim variables, every
    coordinate integer, for one right-hand side after another.

    solve(rhs, config) returns (level, point): the least value level of the
    integer cost and the lex-least integer point attaining it, or None when
    there is no integer point. The rows must bound the region.

    A first IntegerSearch finds the level; then, for each coordinate j in
    turn, the search over the rows with cost . x = level minimizes x_j
    with the earlier coordinates fixed at their values through their bound
    rows. The "=" rows and cost . x = level pin the point once its first
    `pinned` coordinates are fixed, the least count at which those rows
    restricted to the coordinates pinned, ..., dim - 1 have full column
    rank: only the coordinates before it get a search, and the others are
    read off the last point found, the level search's when pinned is 0,
    which is the only integer point with its prefix at the level.
    """

    __slots__ = ("first", "lex")

    def __init__(self, dim: int, rows, cost):
        self.first = IntegerSearch(dim, rows, range(dim), cost)
        equal = [a for a, rel in rows if rel == EQ] + [tuple(cost)]
        pinned = next((j for j in range(dim)
                       if _nullspace_direction([a[j:] for a in equal], dim - j) is None), dim)
        rows = list(rows) + [(tuple(cost), EQ)]
        self.lex = [IntegerSearch(dim, rows, range(dim), _unit(dim, j)) for j in range(pinned)]

    def solve(self, rhs, config: SolverConfig) -> Optional[tuple]:
        found = self.first.minimize(rhs, config)
        if found is None:
            return None
        nums, den = found
        level = sum(map(mul, self.first.cost, nums)) // den  # an integer point: exact
        rhs = list(rhs) + [level]
        point = []
        for j, search in enumerate(self.lex):
            found = search.minimize(rhs, config, point)
            if found is None:
                raise InternalInvariantError("lex fixing lost feasibility")
            nums, den = found
            point.append(nums[j] // den)
        return level, point + [v // den for v in nums[len(point):]]


def mixed_feasible(sys: LinearSystem, integer_coords,
                   config: SolverConfig = DEFAULT_CONFIG) -> Optional[QVector]:
    """A feasible point with the coordinates whose indices integer_coords
    lists (a range, say) integer and the others continuous, or None: the
    one-shot IntegerSearch of the zero cost."""
    coords = sorted(set(integer_coords))
    if not all(0 <= i < sys.dim for i in coords):
        raise ValueError("integer coordinate index out of range")
    rows, rhs = _closed_bounded(sys, coords, "projection onto the integer coordinates is unbounded")
    found = IntegerSearch(sys.dim, rows, coords, (0,) * sys.dim).minimize(rhs, config)
    if found is None:
        return None
    nums, den = found
    return QVector([Fraction(v, den) for v in nums])


def integer_min(objective: Sequence, sys: LinearSystem,
                config: SolverConfig = DEFAULT_CONFIG) -> LpOutcome:
    """Exact integer minimum with the lexicographically smallest optimum.

    The objective is a sequence of ints and Fractions. Every coordinate is
    integer; the feasible region must be bounded. The one-shot LexMin of
    the system's rows: the optimum value first, then the coordinates fixed
    left to right at their minimum values, each a unit objective. node_cap
    counts the nodes of each search, whatever rows pin the point.
    """
    cost, mult = _integer_cost(objective, sys.dim)
    rows, rhs = _closed_bounded(sys, range(sys.dim), "integer_min needs a bounded feasible region")
    found = LexMin(sys.dim, rows, cost).solve(rhs, config)
    if found is None:
        return LpOutcome("infeasible")
    level, point = found
    return LpOutcome("optimal", Fraction(level, mult), QVector(point))


def _charge(budget, config: SolverConfig):
    """Count one unit of enumeration work against cell_cap."""
    budget[0] += 1
    if budget[0] > config.cell_cap:
        raise ResourceLimitError(f"cell_cap={config.cell_cap}: cell enumeration cap exceeded")


def integer_candidates(rows, rhs, total_dim: int, coords: range, config: SolverConfig,
                       budget) -> list:
    """Integer assignments of the coordinates in `coords`, a step-1 range,
    that keep the closed rows (a, rel) at the integer right-hand sides rhs
    feasible with the others continuous.

    Lex order; level t fixes coordinate coords.start + t. Each level keeps
    one RhsFamily over the rows with the columns of the coordinates fixed
    above it dropped, minimizing its coordinate, so only right-hand sides
    move with the prefix: fixing a coordinate at v subtracts its column
    times v. A prefix takes the coordinate's range from the family's span,
    two cold siblings that share its row split and kernel form. `budget` is
    a one-element mutable counter shared with the caller's cap, charged
    once per integer value tried.
    """
    if not coords:  # the empty assignment, when the rows have a point
        family = RhsFamily(total_dim, rows, (0,) * total_dim)
        return [()] if family.solve(rhs)[0] == "optimal" else []
    at = coords.start
    levels = []  # per level: its family and its coordinate's column
    out = []

    def walk(prefix, rhs):
        t = len(prefix)
        if t == len(levels):
            dim = total_dim - t
            levels.append((RhsFamily(dim, [(a[:at] + a[at + t:], rel) for a, rel in rows],
                                     _unit(dim, at)), [a[at + t] for a, _ in rows]))
        family, column = levels[t]
        ends = family.span(rhs)
        if ends is None:
            return
        (lo, lo_den), (hi, hi_den) = ends
        for v in range(-(-lo // lo_den), hi // hi_den + 1):
            _charge(budget, config)
            if t + 1 == len(coords):  # a leaf: nothing reads the moved right-hand sides
                out.append(tuple(prefix) + (v,))
            else:
                walk(prefix + [v], [b - a * v for a, b in zip(column, rhs)])

    walk([], rhs)
    return out


def enumerate_integers(sys: LinearSystem,
                       config: SolverConfig = DEFAULT_CONFIG) -> list:
    """All integer points of a bounded closed system, in lex order: one
    integer_candidates walk over every coordinate, charged to cell_cap."""
    rows, rhs = _closed_bounded(sys, range(sys.dim), "enumerate_integers needs a bounded region")
    return [QVector(p)
            for p in integer_candidates(rows, rhs, sys.dim, range(sys.dim), config, [0])]
