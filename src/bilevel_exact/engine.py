"""Top-level solvers.

The mixed driver reads the infimum off one DecisionScan and scans the value
slices at it once: the infimum is attained exactly when some cell's slice is
nonempty, and then the lex-first such cell, the scan's first hit, gives the
lexicographically minimal optimum: its x is x*, its floor vector is the one
that the floor-vector refinement would isolate, and z* is a barycenter of
vertices of its slice's closure: the vertex of the cell's closure LP when
that LP proved it the only optimum, else the vertices that at most 2d + 1
LPs find. The scan holds, for each valid cell, one LP minimum of the
objective over the cell's closure, which the index build found. The
half-open cell is dense in its closure, so that minimum is the cell's
infimum, and the least of them is v*. No solve bisects: bisect_decision and
rational_reconstruct, the search that a decomposition known only through
its decision oracle needs, stay exported for callers. Strict-feasibility
checks remain for the value slices and for witnesses. After the index
build every LP, and every check of a point, reads the scan's integer rows
and right-hand sides: a solve builds no LinRow. The pure driver lists the
response table over integer leader points once and reads v*, x* and z* off
its least entry. The reference oracle checks both drivers from the cell
definition, with no floor walk, cell index, DecisionScan or response table
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

from .cells import Cell, Instance, bilevel_feasible, cell_infimum, cell_region, is_valid_cell
from .config import DEFAULT_CONFIG, SolverConfig
from .decide import DecisionScan, pure_responses, witness_le, _scan_for
from .errors import (InfeasibleProblemError, InfeasibleRelaxationError, InternalInvariantError)
from .lattice import integer_min, _charge
from .linear import (EQ, LE, LT, LinRow, LinearSystem, affinely_independent_vertices, lp_range,
                     lp_solve, row_eq, rows_hold, _over_common_denominator, _unit)
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


def _simplest_in_interval(lo: Fraction, hi: Fraction, telemetry=None) -> Fraction:
    """The unique minimal-denominator rational in the closed interval."""
    sign = 1
    if hi < 0:
        lo, hi, sign = -hi, -lo, -1
    if lo <= 0 <= hi:
        return Fraction(0)
    terms = []
    while True:
        if telemetry is not None:
            telemetry.reconstruction_steps += 1
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


def rational_reconstruct(lo, hi, cap: int, telemetry=None) -> Fraction:
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
    value = _simplest_in_interval(lo, hi, telemetry)
    if value.denominator > cap:
        raise InternalInvariantError(
            f"no rational with denominator <= {cap} in [{lo}, {hi}]")
    return value


def bisect_decision(decide: Callable[[Fraction], bool], lo, hi, width,
                    telemetry=None):
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
        if telemetry is not None:
            telemetry.bisection_steps += 1
        if decide(mid):
            hi = mid
        else:
            lo = mid
    return lo, hi


def infimum(inst: Instance, config: SolverConfig = DEFAULT_CONFIG,
            scan: Optional[DecisionScan] = None) -> Fraction:
    """Exact infimum of a feasible mixed instance: the least shift + low
    over the scan's items.

    Each item's shift + low is its cell's infimum (see DecisionScan), so
    their minimum is v*; reading it makes no decision query. A v* whose
    denominator exceeds denominator_cap falsifies the subdeterminant bound
    and raises InternalInvariantError.
    """
    scan = _scan_for(inst, config, scan)
    if not scan.items:
        raise InfeasibleProblemError("no bilevel-feasible point")
    v_star = Fraction(min(it.shift + it.low for it in scan.items))
    cap = denominator_cap(inst)
    if v_star.denominator > cap:
        raise InternalInvariantError(f"infimum {v_star} has a denominator above the cap {cap}")
    return v_star


# ---------------------------------------------------------------------------
# mixed driver


def lex_extract(inst: Instance, v_star, config: SolverConfig = DEFAULT_CONFIG,
                telemetry=None, scan: Optional[DecisionScan] = None) -> Optional[LexTrace]:
    """Lex-minimal optimum (x*, z*) at value v*, with its trace; None when
    no bilevel-feasible point has value v* (an unattained infimum).

    One value-equality query scans the cells in lex order of (x, r), and
    its first hit is the lex-least cell (x*, r) whose value slice Q at v* is
    nonempty: x* is the least x of an optimum, and r the least floor vector
    among that x's attaining cells. The floor-vector refinement, which
    keeps, one row at a time, the attaining cells of x* with the least
    floor of the minimum of B_i z + u_i over their slices' closures, ends
    at that cell: a nonempty slice puts that minimum in [r_i, r_i + 1), so
    each step keeps the cells of least r_i. z* is the barycenter of k
    affinely independent vertices of cl(Q), which span its affine hull, so
    z* lands strictly inside Q. When the index entry keeps its closure LP's
    vertex, that LP proved it the only point of the cell's closure at v*,
    so cl(Q) is that point: k = 1 and z* is the vertex, with no LP.
    Otherwise the vertices are found by at most 2d + 1 LPs. Either way z* is
    checked against Q, for bilevel feasibility and for the value v*. The
    trace's rho is left to its first read (see LexTrace).
    """
    v_star = as_rat(v_star)
    if telemetry is not None:
        telemetry.decision_queries += 1
    hit = next(_scan_for(inst, config, scan).hits(EQ, v_star, witness=False), None)
    if hit is None:
        return None
    entry, _, (rows, rhs) = hit
    x_star = entry.cell.x
    if entry.vertex is not None:  # the closure LP's only optimum: cl(Q) at v* is one point
        nums, den = entry.vertex
        k, verts = 1, [QVector([Fraction(v, den) for v in nums])]
    else:
        k, verts = affinely_independent_vertices(inst.d, rows, rhs)
        if k == 0:
            raise InternalInvariantError("attaining slice closure has no vertices")
    z_star = QVector([sum(coords) / k for coords in zip(*verts)])
    if not rows_hold(rows, rhs, *_over_common_denominator(z_star.entries)):
        raise InternalInvariantError("barycenter violates a row of the value slice")
    if not bilevel_feasible(inst, x_star, z_star, config):
        raise InternalInvariantError("extracted optimum is not bilevel feasible")
    if inst.objective_value(x_star, z_star) != v_star:
        raise InternalInvariantError("extracted optimum misses the optimal value")

    denom = math.lcm(*(coord.denominator for v in verts for coord in v))
    return LexTrace(x_star, entry.cell.r, k, tuple(verts), z_star, k * denom, inst)


def eps_point(inst: Instance, v_star, eps, config: SolverConfig = DEFAULT_CONFIG,
              scan: Optional[DecisionScan] = None) -> EpsSolution:
    """A bilevel-feasible point with value at most v* + eps."""
    eps = as_rat(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    v_star = as_rat(v_star)
    hit = witness_le(inst, v_star + eps, config, scan)
    if hit is None:
        raise InternalInvariantError("eps-optimal point must exist for a feasible problem")
    x, z = hit
    value = inst.objective_value(x, z)
    if value > v_star + eps:
        raise InternalInvariantError("eps witness exceeds the allowed value")
    return EpsSolution(x, z, value, eps)


def solve_mixed(inst: Instance, eps=None, config: SolverConfig = DEFAULT_CONFIG) -> SolveReport:
    """Full mixed pipeline: one DecisionScan (no cell is Infeasible), infimum, extraction."""
    if eps is not None and as_rat(eps) <= 0:
        raise ValueError("eps must be positive")
    telemetry = Telemetry()
    report = SolveReport(INFEASIBLE, telemetry=telemetry)
    scan = DecisionScan(inst, config)
    telemetry.cells = len(scan.items)
    try:
        v_star = infimum(inst, config, scan)
    except InfeasibleProblemError:
        return report
    report.infimum = v_star
    trace = lex_extract(inst, v_star, config, telemetry, scan)
    if trace is not None:
        report.status = ATTAINED
        report.solution = (trace.x_star, trace.z_star)
        report.lex_trace = trace
    else:
        report.status = UNATTAINED
        if eps is not None:
            report.eps_solution = eps_point(inst, v_star, eps, config, scan)
    return report


# ---------------------------------------------------------------------------
# pure driver


def solve_pure(inst: Instance, config: SolverConfig = DEFAULT_CONFIG) -> SolveReport:
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
    best = min(pure_responses(inst, config), default=None)
    if best is None:
        return report
    v_star, x_star, z_ints = best
    report.status = ATTAINED
    report.infimum = v_star
    report.solution = (x_star, QVector([Fraction(v) for v in z_ints]))
    return report


# ---------------------------------------------------------------------------
# reference oracle


def _cells_by_definition(inst: Instance, config: SolverConfig) -> list:
    """The valid cells in lex order of (x, r): every integer x of the upper
    region's x box with every floor vector r of B z + u over that region,
    each pair charged to cell_cap and kept when is_valid_cell accepts it."""
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
        _charge(budget, config)
        cell = Cell(point[:inst.n], point[inst.n:])
        if is_valid_cell(inst, cell, config):
            cells.append(cell)
    return cells


def reference_oracle(inst: Instance, variant: str = MIXED,
                     config: SolverConfig = DEFAULT_CONFIG) -> SolveReport:
    """Solve from the cells of _cells_by_definition, to cross-check the drivers.

    Mixed: v* is the least cell_infimum; the first cell attaining it gives
    x* and, from cell_infimum's witness, z* strictly inside its optimal
    slice. Pure: an integer z in a cell (x, r) has B z + u = r, so each
    strict row a . z < b of its region, in integral form, tightens to
    a . z <= b - 1; integer_min over those rows, which checks each such
    system bounded by its own cone LPs, gives the cell's lex-least optimum,
    and the least (value, x, z) over the cells wins. The boxes of x and of
    the floors are lp_range over inst.upper_system(). Shared with the
    engines: the instance's upper rows, the rows of _region_rows and
    _region_rhs (cell_region's), is_valid_cell's _follower_improves (an
    IntegerSearch) and StrictFamily (through strict_feasible_point),
    integer_min (a LexMin), and cell_infimum's LP over a cell's closure,
    the LP behind the engine's per-cell low. No solve calls cell_region or
    strict_feasible_point.
    """
    if variant not in (MIXED, PURE):
        raise ValueError(f"unknown variant {variant!r}")
    telemetry = Telemetry()
    cells = _cells_by_definition(inst, config)
    if variant == PURE:
        found = []
        for cell in cells:
            rows = [LinRow(r.a, r.b - 1, LE) if r.rel == LT else r
                    for r in cell_region(inst, cell).rows]
            out = integer_min(inst.e, LinearSystem(inst.d, rows), config)
            if out.is_optimal:
                found.append((sum(map(mul, inst.c, cell.x)) + out.value, cell.x,
                              out.point.entries))
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
                 config: SolverConfig = DEFAULT_CONFIG,
                 variant: str = MIXED) -> Optional[str]:
    """Why a search report and the reference oracle's report disagree, or None.

    Both must give the same status and infimum, and the infimum's
    denominator must respect denominator_cap. When attained, each solution
    is checked from the definition (bilevel feasible, objective equal to the
    infimum). For a mixed report the search x* must equal the oracle's:
    both take the x of the lex-first cell whose value slice at v* is
    nonempty, so a difference means one of them lost a cell. For a pure
    report, whose oracle finds each cell's lex-least integer optimum,
    (x*, z*) must be the oracle's exactly.
    """
    if searched.status != oracled.status or searched.infimum != oracled.infimum:
        return (f"{searched.status}/{searched.infimum} vs "
                f"{oracled.status}/{oracled.infimum}")
    if searched.infimum is not None and searched.infimum.denominator > denominator_cap(inst):
        return f"infimum {searched.infimum} exceeds the denominator cap"
    if searched.status != ATTAINED:
        return None
    for name, report in (("search", searched), ("oracle", oracled)):
        x, z = report.solution
        if not bilevel_feasible(inst, x, z, config):
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
