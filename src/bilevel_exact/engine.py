"""Top-level solvers.

With one follower variable (n = 1) the mixed driver lists no cell: it
reads v*, x*, the floor vector r, z* and the eps point off the at most m
blocking-row pieces of one pieces.PieceSearch, a binary search over each
piece's convex value F(x), and no such solve reaches the floor walk, the
cell index or the follower checks. The floor vector and z* come from the
same refinement and barycenter as below, run over the pieces' slices at
x*, and the eps point from the same cold strict check of its cell, so a
report is the one the scan path gives, which stays the judge at n = 1
(infimum, lex_extract and eps_point of one DecisionScan).

For n >= 2 the mixed driver reads the infimum off one DecisionScan and
scans the value slices at it once; each of its steps (infimum,
lex_extract, eps_point) takes that scan, which carries its instance, and
the driver counts the one decision query, as at n = 1. The infimum is
attained exactly when some cell's slice is nonempty, and then the
lex-first such cell, the scan's first hit, gives the lexicographically
minimal optimum: its x is x*, its floor vector is the one that the
floor-vector refinement would isolate, and z* is a barycenter of vertices
of its slice's closure: the vertex of the cell's closure LP when
that LP proved it the only optimum, else the vertices that at most 2d + 1
LPs find. The scan holds, for each valid cell, one LP minimum of the
objective over the cell's closure, which the index build found. The
half-open cell is dense in its closure, so that minimum is the cell's
infimum, and the least of them is v*. No solve bisects: bisect_decision and
rational_reconstruct, the search that a decomposition known only through
its decision oracle needs, stay exported for callers, and no telemetry
counts their steps. Strict-feasibility checks remain for the value slices
and for witnesses. After the index build every LP, and every check of a
point, reads the scan's integer rows and right-hand sides. The pure driver
lists the response table over integer leader points once and reads v*, x*
and z* off its least entry.
The reference oracle checks both drivers from the cell definition, with no
floor walk, cell index, DecisionScan or response table
(see reference_oracle for what it shares): `solve --engine both`, the
`oracle` command and the acceptance tests compare the drivers with it, a
solve does not.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from operator import mul
from typing import Callable, Optional

from .cells import (Cell, Instance, bilevel_feasible, cell_infimum, cell_region, is_valid_cell,
                    _region_rhs, _region_rows)
from .decide import DecisionScan, pure_responses, witness_le
from .errors import (InfeasibleProblemError, InfeasibleRelaxationError, InternalInvariantError)
from .lattice import LexMin, _charge
from .linear import (EQ, LE, LT, LinearSystem, StrictFamily, affinely_independent_vertices,
                     lp_range, lp_solve, row_eq, rows_hold, _over_common_denominator, _unit)
from .pieces import PieceSearch
from .rational import QVector, as_rat, ceil_rat, floor_rat, subdeterminant_bound

MIXED = "mixed"
PURE = "pure"

INFEASIBLE = "Infeasible"
ATTAINED = "Attained"
UNATTAINED = "Unattained"


@dataclass
class Telemetry:
    decision_queries: int = 0
    bisection_steps: int = 0
    reconstruction_steps: int = 0
    cells: int = 0

    def as_dict(self) -> dict:
        return {
            "decision_queries": self.decision_queries,
            "bisection_steps": self.bisection_steps,
            "reconstruction_steps": self.reconstruction_steps,
            "cells": self.cells,
        }


@dataclass(frozen=True)
class EpsSolution:
    x: tuple
    z: QVector
    value: Fraction
    eps: Fraction


@dataclass(frozen=True)
class LexTrace:
    """Everything produced on the way to the lex-minimal optimum.

    q_system (Q: the cell's region with e . z = e . z*, which is v* - c . x*)
    and rho_i, the least value of B_i z + u_i over cl(Q), are computed on
    their first read and kept, rho by one LP per row. A solve reads neither.
    """

    x_star: tuple
    r: tuple
    k: int
    vertices: tuple
    z_star: QVector
    delta_denominator: int
    instance: Instance = field(compare=False, repr=False)

    @cached_property
    def q_system(self) -> LinearSystem:
        inst = self.instance
        value = sum(map(mul, inst.e, self.z_star.entries))
        return cell_region(inst, Cell(self.x_star, self.r)).with_rows([row_eq(inst.e, value)])

    @cached_property
    def rho(self) -> tuple:
        inst = self.instance
        closed = self.q_system.closure()
        rho = []
        for br, uv in zip(inst.B, inst.u):
            out = lp_solve(closed, br, "min")
            if not out.is_optimal:
                raise InternalInvariantError("attaining slice lost feasibility")
            rho.append(out.value + uv)
        return tuple(rho)


@dataclass
class SolveReport:
    status: str
    infimum: Optional[Fraction] = None
    solution: Optional[tuple] = None
    eps_solution: Optional[EpsSolution] = None
    telemetry: Telemetry = field(default_factory=Telemetry)
    lex_trace: Optional[LexTrace] = None
    oracle_agreement: Optional[bool] = None


# ---------------------------------------------------------------------------
# bounds, caps, reconstruction


def objective_bounds(inst: Instance):
    """LP min and max of the objective over the upper-level system.

    The bilevel constraint is dropped, so [v_lo, v_hi] brackets every
    feasible value.
    """
    span = lp_range(inst.upper_system(), inst.c + inst.e)
    if span is None:
        raise InfeasibleRelaxationError("upper-level system is empty")
    return span


def denominator_cap(inst: Instance) -> int:
    """Upper bound L on the denominator of the infimum.

    Hadamard-style column bound over the stacked z-coefficient rows of the
    slice LPs: rows of D and rows of B. Unit rows (z >= 0 and friends) are
    covered by the max(1, .) per-column clamp.
    """
    return subdeterminant_bound(inst.D + inst.B, inst.d)


def _simplest_in_interval(lo: Fraction, hi: Fraction) -> Fraction:
    """The unique minimal-denominator rational in the closed interval."""
    sign = 1
    if hi < 0:
        lo, hi, sign = -hi, -lo, -1
    if lo <= 0 <= hi:
        return Fraction(0)
    terms = []
    while True:
        a = ceil_rat(lo)
        if a <= hi:
            terms.append(a)
            break
        a -= 1
        terms.append(a)
        lo, hi = 1 / (hi - a), 1 / (lo - a)
    value = Fraction(terms[-1])
    for t in reversed(terms[:-1]):
        value = t + 1 / value
    return sign * value


def rational_reconstruct(lo, hi, cap: int) -> Fraction:
    """The unique rational with denominator <= cap inside [lo, hi].

    The interval must be narrower than 1/cap^2 so at most one candidate
    exists; the continued-fraction walk finds the simplest rational in the
    interval, and a simplest rational with a larger denominator proves no
    candidate exists, which falsifies the denominator bound and aborts.
    A cap other than an int (not a bool) of at least 1 raises ValueError.
    """
    lo, hi = as_rat(lo), as_rat(hi)
    if type(cap) is not int or cap < 1:
        raise ValueError(f"cap must be an int of at least 1, got {cap!r}")
    if lo > hi:
        raise ValueError("empty interval")
    value = _simplest_in_interval(lo, hi)
    if value.denominator > cap:
        raise InternalInvariantError(
            f"no rational with denominator <= {cap} in [{lo}, {hi}]")
    return value


def bisect_decision(decide: Callable[[Fraction], bool], lo, hi, width):
    """Shrink [lo, hi] keeping decide(lo) false and decide(hi) true.

    The caller vouches for the endpoint answers; they are not re-queried.
    Stops as soon as hi - lo < width. lo, hi and width are read by as_rat,
    and a width that is not positive raises ValueError.
    """
    lo, hi, width = as_rat(lo), as_rat(hi), as_rat(width)
    if lo >= hi:
        raise ValueError("need lo < hi")
    if width <= 0:
        raise ValueError("width must be positive")
    while hi - lo >= width:
        mid = (lo + hi) / 2
        if decide(mid):
            hi = mid
        else:
            lo = mid
    return lo, hi


def _capped(inst: Instance, v_star: Fraction) -> Fraction:
    """v*, unless its denominator exceeds denominator_cap, which falsifies
    the subdeterminant bound and raises InternalInvariantError."""
    cap = denominator_cap(inst)
    if v_star.denominator > cap:
        raise InternalInvariantError(f"infimum {v_star} has a denominator above the cap {cap}")
    return v_star


def infimum(scan: DecisionScan) -> Fraction:
    """Exact infimum of the scan's instance, when feasible: the least
    shift + low over the scan's items.

    Each item's shift + low is its cell's infimum (see DecisionScan), so
    their minimum is v*; reading it makes no decision query. A v* whose
    denominator exceeds denominator_cap falsifies the subdeterminant bound
    and raises InternalInvariantError.
    """
    if not scan.items:
        raise InfeasibleProblemError("no bilevel-feasible point")
    return _capped(scan.inst, Fraction(min(it.shift + it.low for it in scan.items)))


# ---------------------------------------------------------------------------
# mixed driver


def _value_slice(inst: Instance, x: tuple, r: tuple, rel, value: Fraction) -> tuple:
    """(rows, rhs): the region of the cell (x, r) with the value row
    c . x + e . z rel value, posed as DecisionScan.hits poses it."""
    q = value.denominator
    rows = _region_rows(inst) + [(tuple(q * v for v in inst.e), rel)]
    return rows, _region_rhs(inst, x, r) + [value.numerator - q * sum(map(mul, inst.c, x))]


def _extracted(inst: Instance, x_star: tuple, r: tuple, v_star: Fraction, rows, rhs,
               vertex) -> LexTrace:
    """The lex trace of the cell (x*, r), whose value slice Q at v*, the
    rows at rhs, is nonempty. z* is the barycenter of k affinely independent
    vertices of cl(Q), which span its affine hull, so z* lands strictly
    inside Q. A `vertex` (nums, den) that an LP proved the only point of
    cl(Q) is that barycenter, with k = 1 and no LP; otherwise the vertices
    are found by at most 2d + 1 LPs. Either way z* is checked against Q,
    for bilevel feasibility and for the value v*."""
    if vertex is not None:
        nums, den = vertex
        k, verts = 1, [QVector([Fraction(v, den) for v in nums])]
    else:
        k, verts = affinely_independent_vertices(inst.d, rows, rhs)
        if k == 0:
            raise InternalInvariantError("attaining slice closure has no vertices")
    z_star = QVector([sum(coords) / k for coords in zip(*verts)])
    if not rows_hold(rows, rhs, *_over_common_denominator(z_star.entries)):
        raise InternalInvariantError("barycenter violates a row of the value slice")
    if not bilevel_feasible(inst, x_star, z_star):
        raise InternalInvariantError("extracted optimum is not bilevel feasible")
    if inst.objective_value(x_star, z_star) != v_star:
        raise InternalInvariantError("extracted optimum misses the optimal value")
    denom = math.lcm(*(coord.denominator for v in verts for coord in v))
    return LexTrace(x_star, r, k, tuple(verts), z_star, k * denom, inst)


def lex_extract(scan: DecisionScan, v_star) -> Optional[LexTrace]:
    """Lex-minimal optimum (x*, z*) at value v*, with its trace; None when
    no bilevel-feasible point has value v* (an unattained infimum).

    One value-equality query scans the cells in lex order of (x, r), and
    its first hit is the lex-least cell (x*, r) whose value slice Q at v* is
    nonempty: x* is the least x of an optimum, and r the least floor vector
    among that x's attaining cells. The floor-vector refinement, which
    keeps, one row at a time, the attaining cells of x* with the least
    floor of the minimum of B_i z + u_i over their slices' closures, ends
    at that cell: a nonempty slice puts that minimum in [r_i, r_i + 1), so
    each step keeps the cells of least r_i. z* and its checks are those of
    _extracted. When the index entry keeps its closure LP's vertex, that LP
    proved it the only point of the cell's closure at v*, so cl(Q) is that
    point and z* is the vertex. The trace's rho is left to its first read
    (see LexTrace).
    """
    v_star = as_rat(v_star)
    hit = next(scan.hits(EQ, v_star, witness=False), None)
    if hit is None:
        return None
    entry, _, (rows, rhs) = hit
    return _extracted(scan.inst, entry.cell.x, entry.cell.r, v_star, rows, rhs, entry.vertex)


def _eps_solution(inst: Instance, x: tuple, z: QVector, v_star, eps) -> EpsSolution:
    """The eps point (x, z), checked for its value of at most v* + eps."""
    value = inst.objective_value(x, z)
    if value > v_star + eps:
        raise InternalInvariantError("eps witness exceeds the allowed value")
    return EpsSolution(x, z, value, eps)


def eps_point(scan: DecisionScan, v_star, eps) -> EpsSolution:
    """A bilevel-feasible point with value at most v* + eps."""
    eps = as_rat(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    v_star = as_rat(v_star)
    hit = witness_le(scan, v_star + eps)
    if hit is None:
        raise InternalInvariantError("eps-optimal point must exist for a feasible problem")
    x, z = hit
    return _eps_solution(scan.inst, x, z, v_star, eps)


def _piece_infimum(search: PieceSearch) -> Fraction:
    """v* at n = 1: the least minimum over the pieces, capped as infimum's."""
    if not search.ranges:
        raise InfeasibleProblemError("no bilevel-feasible point")
    return _capped(search.inst, min(search.minima))


def _piece_trace(search: PieceSearch, v_star) -> Optional[LexTrace]:
    """lex_extract at n = 1: the cell (x*, r) of PieceSearch.cell at v*,
    whose points of value <= v* have value v*, and z* as in _extracted."""
    found = search.cell(v_star)
    if found is None:
        return None
    x_star, r, vertex = found
    inst = search.inst
    return _extracted(inst, x_star, r, v_star, *_value_slice(inst, x_star, r, EQ, v_star),
                      vertex)


def _piece_eps(search: PieceSearch, v_star, eps) -> EpsSolution:
    """eps_point at n = 1: the cell of PieceSearch.cell at v* + eps, and
    its witness from one cold StrictFamily check of the cell's region with
    the value row, as DecisionScan.hits finds it."""
    eps = as_rat(eps)
    alpha = v_star + eps
    found = search.cell(alpha)
    if found is None:
        raise InternalInvariantError("eps-optimal point must exist for a feasible problem")
    x, r, _ = found
    inst = search.inst
    rows, rhs = _value_slice(inst, x, r, LE, alpha)
    point = StrictFamily(inst.d, rows).point(rhs)
    if point is None:
        raise InternalInvariantError("cell with a point on the value row has no witness")
    nums, den = point
    return _eps_solution(inst, x, QVector([Fraction(v, den) for v in nums]), v_star, eps)


def solve_mixed(inst: Instance, eps=None) -> SolveReport:
    """Full mixed pipeline: the infimum, then the lex-minimal optimum or,
    when the infimum is not attained and eps is given, an eps point.

    At n = 1 the steps read the blocking-row pieces of one PieceSearch,
    which lists no cell; `telemetry.cells` counts the pieces that hold an
    integer x. Otherwise they read one DecisionScan (infimum, lex_extract,
    eps_point), and `telemetry.cells` counts its valid cells. Either way
    one decision query is counted when the instance is feasible.
    """
    if eps is not None and as_rat(eps) <= 0:
        raise ValueError("eps must be positive")
    telemetry = Telemetry()
    report = SolveReport(INFEASIBLE, telemetry=telemetry)
    if inst.n == 1:
        source = PieceSearch(inst)
        telemetry.cells = len(source.ranges)
        read_infimum, extract, eps_at = _piece_infimum, _piece_trace, _piece_eps
    else:
        source = DecisionScan(inst)
        telemetry.cells = len(source.items)
        read_infimum, extract, eps_at = infimum, lex_extract, eps_point
    try:
        v_star = read_infimum(source)
    except InfeasibleProblemError:
        return report
    report.infimum = v_star
    telemetry.decision_queries += 1
    trace = extract(source, v_star)
    if trace is not None:
        report.status = ATTAINED
        report.solution = (trace.x_star, trace.z_star)
        report.lex_trace = trace
    else:
        report.status = UNATTAINED
        if eps is not None:
            report.eps_solution = eps_at(source, v_star, eps)
    return report


# ---------------------------------------------------------------------------
# pure driver


def solve_pure(inst: Instance) -> SolveReport:
    """Pure-integer solve by the response-table driver alone.

    Lists the response table (pure_responses) and takes its least entry
    (value, x, z): the least value is v*, and (x*, z*) is the least (x, z)
    among the entries of value v*. An optimal point (x, z) minimizes the
    leader's objective at its z, so the entry at z has value v* and an x no
    larger, and the least such entry is the lex-least optimum. Its
    independent second computation is the pure reference oracle;
    `solve --engine both` and the tests compare the two.
    """
    report = SolveReport(INFEASIBLE, telemetry=Telemetry())
    best = min(pure_responses(inst), default=None)
    if best is None:
        return report
    v_star, x_star, z_ints = best
    report.status = ATTAINED
    report.infimum = v_star
    report.solution = (x_star, QVector([Fraction(v) for v in z_ints]))
    return report


# ---------------------------------------------------------------------------
# reference oracle


def _cells_by_definition(inst: Instance) -> list:
    """The valid cells in lex order of (x, r): every integer x of the upper
    region's x box with every floor vector r of B z + u over that region,
    each pair charged to lattice.CELL_CAP and kept when is_valid_cell accepts it."""
    upper = inst.upper_system()
    ranges = []
    for j in range(inst.n):
        span = lp_range(upper, _unit(inst.joint_dim(), j))
        if span is None:
            return []
        ranges.append(range(ceil_rat(span[0]), floor_rat(span[1]) + 1))
    for br, uv in zip(inst.B, inst.u):
        lo, hi = lp_range(upper, (0,) * inst.n + br)
        ranges.append(range(floor_rat(lo + uv), floor_rat(hi + uv) + 1))
    budget = [0]
    cells = []
    for point in itertools.product(*ranges):
        _charge(budget)
        cell = Cell(point[:inst.n], point[inst.n:])
        if is_valid_cell(inst, cell):
            cells.append(cell)
    return cells


def reference_oracle(inst: Instance, variant: str = MIXED) -> SolveReport:
    """Solve from the cells of _cells_by_definition, to cross-check the drivers.

    Mixed: v* is the least cell_infimum; the first cell attaining it gives
    x* and, from cell_infimum's witness, z* strictly inside its optimal
    slice. Pure: an integer z in a cell (x, r) has B z + u = r, so each
    strict row a . z < b of its region, in integral form, tightens to
    a . z <= b - 1; one LexMin over _region_rows so tightened, the search
    of integer_min, posed at each cell's _region_rhs, gives the cell's
    lex-least optimum, and the least (value, x, z) over the cells wins.
    Instance validation proved every region bounded, so no cell pays a
    cone check. The boxes of x and of the floors are lp_range over
    inst.upper_system(). Shared with the engines: the instance's upper
    rows, the rows of _region_rows and _region_rhs (cell_region's),
    is_valid_cell's _follower_improves (an IntegerSearch) and StrictFamily
    (through strict_feasible_point), LexMin, and cell_infimum's LP over a
    cell's closure, the LP behind the engine's per-cell low. No solve calls
    cell_region or strict_feasible_point.
    """
    if variant not in (MIXED, PURE):
        raise ValueError(f"unknown variant {variant!r}")
    telemetry = Telemetry()
    cells = _cells_by_definition(inst)
    if variant == PURE:
        region = _region_rows(inst)
        search = LexMin(inst.d, [(a, LE if rel == LT else rel) for a, rel in region], inst.e)
        found = []
        for cell in cells:
            rhs = _region_rhs(inst, cell.x, cell.r)
            out = search.solve([b - 1 if rel == LT else b for (_, rel), b in zip(region, rhs)])
            if out is not None:
                level, z = out
                found.append((sum(map(mul, inst.c, cell.x)) + Fraction(level), cell.x, z))
        if not found:
            return SolveReport(INFEASIBLE, telemetry=telemetry)
        value, x, z = min(found)
        return SolveReport(ATTAINED, infimum=value, solution=(x, QVector(z)), telemetry=telemetry)

    telemetry.cells = len(cells)
    if not cells:
        return SolveReport(INFEASIBLE, telemetry=telemetry)
    obj = inst.objective_vector()
    # the least infimum, attained before unattained, then the lex-first cell
    v_star, attained, witness, cell = min((cell_infimum(inst, c, obj) + (c,) for c in cells),
                                          key=lambda t: (t[0], not t[1]))
    if not attained:
        return SolveReport(UNATTAINED, infimum=v_star, telemetry=telemetry)
    return SolveReport(ATTAINED, infimum=v_star, solution=(cell.x, QVector(witness[inst.n:])),
                       telemetry=telemetry)


def disagreement(inst, searched: SolveReport, oracled: SolveReport,
                 variant: str = MIXED) -> Optional[str]:
    """Why a search report and the reference oracle's report disagree, or None.

    Both must give the same status and infimum, and the infimum's
    denominator must respect denominator_cap. A search report's eps point
    is checked from the definition: bilevel feasible, its stated value its
    objective, and that value in (v*, v* + eps]. When attained, each
    solution is checked from the definition (bilevel feasible, objective
    equal to the infimum). For a mixed report the search x* must equal the
    oracle's: both take the x of the lex-first cell whose value slice at v*
    is nonempty, so a difference means one of them lost a cell. For a pure
    report, whose oracle finds each cell's lex-least integer optimum,
    (x*, z*) must be the oracle's exactly. Any other variant raises
    ValueError, as in reference_oracle.
    """
    if variant not in (MIXED, PURE):
        raise ValueError(f"unknown variant {variant!r}")
    if searched.status != oracled.status or searched.infimum != oracled.infimum:
        return (f"{searched.status}/{searched.infimum} vs "
                f"{oracled.status}/{oracled.infimum}")
    if searched.infimum is not None and searched.infimum.denominator > denominator_cap(inst):
        return f"infimum {searched.infimum} exceeds the denominator cap"
    found = searched.eps_solution
    if found is not None:
        if not bilevel_feasible(inst, found.x, found.z):
            return "search eps point is not bilevel feasible"
        value = inst.objective_value(found.x, found.z)
        if value != found.value:
            return f"search eps point has value {value}, not its stated {found.value}"
        if not searched.infimum < value <= searched.infimum + found.eps:
            return f"search eps point value {value} is not within {found.eps} above the infimum"
    if searched.status != ATTAINED:
        return None
    for name, report in (("search", searched), ("oracle", oracled)):
        x, z = report.solution
        if not bilevel_feasible(inst, x, z):
            return f"{name} solution is not bilevel feasible"
        value = inst.objective_value(x, z)
        if value != report.infimum:
            return f"{name} solution has value {value}, not {report.infimum}"
    if variant == PURE:
        got, want = ((tuple(x), z) for x, z in (searched.solution, oracled.solution))
        if got != want:
            return f"search (x*, z*) {got} is not the oracle's {want}"
    elif tuple(searched.solution[0]) != tuple(oracled.solution[0]):
        return f"search x* {searched.solution[0]} is not the oracle's {oracled.solution[0]}"
    return None
