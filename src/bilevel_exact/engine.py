"""Top-level solvers.

The mixed driver brackets the infimum by bisection over the decision
oracle, reconstructs the exact rational from a width < 1/(2L^2) interval
(L the denominator cap), tests attainment through the value-equality
oracle, and extracts the lexicographically minimal optimum: x* is the x of
the lex-first cell whose value slice at v* is nonempty, and z* comes from
the floor-vector refinement and a barycenter of vertices. All of these
queries share one DecisionScan. The pure driver runs the same search over
integer leader points with plain integer snapping, and is always
cross-checked against direct enumeration.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

from .cells import bilevel_feasible, cell_index, cell_infimum, integer_candidates
from .config import DEFAULT_CONFIG, SolverConfig
from .decide import (MIXED, PURE, DecisionScan, GeneralizedProblem, as_problem, decide_eq,
                     decide_le, decide_le_pure, fix_z_suffix, strictify_for_integers,
                     witness_le)
from .errors import (InfeasibleProblemError, InfeasibleRelaxationError, InternalInvariantError)
from .lattice import MixedPattern, enumerate_integers, integer_min, mixed_feasible
from .linear import (LinRow, LinearSystem, affinely_independent_vertices, lp_solve, row_eq,
                     strict_feasible_point)
from .rational import QMatrix, QVector, ceil_rat, floor_rat, subdeterminant_bound

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
    """Everything produced on the way to the lex-minimal optimum."""

    x_star: tuple
    rho: tuple
    r: tuple
    q_system: LinearSystem
    k: int
    vertices: tuple
    z_star: QVector
    delta_denominator: int


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


def objective_bounds(prob, config: SolverConfig = DEFAULT_CONFIG):
    """LP min and max of the objective over the closed upper-level system.

    Extras participate through their closures; the bilevel constraint is
    dropped, so [v_lo, v_hi] brackets every feasible value.
    """
    prob = as_problem(prob)
    inst = prob.base
    rows = inst.upper_rows() + [r.closed() for r in prob.effective_extras()]
    sys = LinearSystem(inst.joint_dim(), tuple(rows))
    obj = prob.effective_objective()
    mn = lp_solve(sys, obj, "min", config)
    if mn.tag == "infeasible":
        raise InfeasibleRelaxationError("upper-level system with extras is empty")
    if not mn.is_optimal:
        raise InternalInvariantError("LP unbounded over a bounded upper-level region")
    mx = lp_solve(sys, obj, "max", config)
    if not mx.is_optimal:
        raise InternalInvariantError("LP unbounded over a bounded upper-level region")
    return mn.value, mx.value


def denominator_cap(prob) -> int:
    """Upper bound L on the denominator of the infimum.

    Hadamard-style column bound over the stacked z-coefficient rows of the
    slice LPs: rows of D, rows of B, and z-parts of extra rows scaled to
    integers. Unit rows (z >= 0 and friends) are covered by the max(1, .)
    per-column clamp.
    """
    prob = as_problem(prob)
    inst = prob.base
    rows = [tuple(r) for r in inst.D.entries] + [tuple(r) for r in inst.B.entries]
    for r in prob.effective_extras():
        zpart = r.coeffs.entries[inst.n:]
        if all(f == 0 for f in zpart):
            continue
        scale = math.lcm(*(f.denominator for f in zpart), r.rhs.denominator)
        rows.append(tuple(f * scale for f in zpart))
    return subdeterminant_bound(QMatrix(rows, ncols=inst.d))


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
    """
    lo, hi = Fraction(lo), Fraction(hi)
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
    Stops as soon as hi - lo < width.
    """
    lo, hi = Fraction(lo), Fraction(hi)
    if lo >= hi:
        raise ValueError("need lo < hi")
    while hi - lo >= width:
        mid = (lo + hi) / 2
        if telemetry is not None:
            telemetry.bisection_steps += 1
        if decide(mid):
            hi = mid
        else:
            lo = mid
    return lo, hi


def infimum(prob, config: SolverConfig = DEFAULT_CONFIG, telemetry=None,
            scan: Optional[DecisionScan] = None) -> Fraction:
    """Exact infimum of a feasible mixed problem."""
    prob = as_problem(prob)
    if prob.variant == PURE:
        raise ValueError("infimum handles the mixed variant; use solve_pure")
    if telemetry is None:
        telemetry = Telemetry()
    v_lo, v_hi = objective_bounds(prob, config)
    if scan is None:
        scan = DecisionScan(prob, config)

    def dec(alpha):
        return decide_le(prob, alpha, config, telemetry, scan)

    if not dec(v_hi):
        raise InfeasibleProblemError("no bilevel-feasible point satisfies the extras")
    cap = denominator_cap(prob)
    width = Fraction(1, 2 * cap * cap)
    lo, hi = bisect_decision(dec, v_lo - 1, v_hi, width, telemetry)
    return rational_reconstruct(lo, hi, cap, telemetry)


# ---------------------------------------------------------------------------
# mixed driver


def _integer_bisect(dec, lo, hi, telemetry) -> int:
    """Integer target identification: bisect to width < 1 and snap."""
    lo, hi = bisect_decision(dec, lo, hi, Fraction(1), telemetry)
    val = floor_rat(hi)
    if not (lo < val <= hi):
        raise InternalInvariantError("no integer left in the final interval")
    return val


def lex_extract(prob, v_star, config: SolverConfig = DEFAULT_CONFIG,
                telemetry=None, scan: Optional[DecisionScan] = None) -> LexTrace:
    """Lex-minimal optimum (x*, z*) of an attained problem, with its trace.

    One value-equality query scans the cells in lex order of (x, r): x* is
    the x of the first cell whose value slice at v* is nonempty, and the
    pool is that cell with the following hits of the same x. The floor
    vector r is then refined one row at a time: rho_i is the least value of
    B_i z + u_i over the closures of the value slices of the still-compatible
    attaining cells, r_i its floor, and cells disagreeing on r_i are
    discarded. The survivor's half-open value slice Q yields z* as the
    barycenter of affinely independent vertices of its closure, which lands
    strictly inside Q.
    """
    prob = as_problem(prob)
    inst = prob.base
    v_star = Fraction(v_star)
    obj = prob.effective_objective()
    if telemetry is not None:
        telemetry.decision_queries += 1
    if scan is None:
        scan = DecisionScan(prob, config)
    pool = []
    for cell, _, sliced in scan.hits(row_eq, v_star):
        if pool and cell.x != pool[0][0].x:
            break
        pool.append((cell, sliced))
    if not pool:
        raise InternalInvariantError("no cell attains the optimal value")
    x_star = pool[0][0].x

    rho = []
    r_vec = []
    for i in range(inst.m):
        best = None
        for _, sliced in pool:
            out = lp_solve(sliced.closure(), QVector(inst.B.entries[i]), "min", config)
            if not out.is_optimal:
                raise InternalInvariantError("attaining slice lost feasibility")
            val = out.value + inst.u.entries[i]
            if best is None or val < best:
                best = val
        rho.append(best)
        ri = floor_rat(best)
        r_vec.append(ri)
        pool = [(cell, sliced) for cell, sliced in pool if cell.r[i] == ri]
        if not pool:
            raise InternalInvariantError("floor refinement emptied the cell pool")
    if len(pool) != 1:
        raise InternalInvariantError("full floor vector did not isolate one cell")
    _, q_system = pool[0]

    k, verts = affinely_independent_vertices(q_system, config)
    if k == 0:
        raise InternalInvariantError("attaining slice closure has no vertices")
    total = verts[0]
    for v in verts[1:]:
        total = total + v
    z_star = total.scaled(Fraction(1, k))
    for row in q_system.rows:
        if not row.satisfied_by(z_star):
            raise InternalInvariantError(f"barycenter violates a region row: {row!r}")
    if not bilevel_feasible(inst, x_star, z_star, config):
        raise InternalInvariantError("extracted optimum is not bilevel feasible")
    joint = QVector(list(map(Fraction, x_star)) + list(z_star.entries))
    if obj.dot(joint) != v_star:
        raise InternalInvariantError("extracted optimum misses the optimal value")

    denom = 1
    for v in verts:
        for coord in v:
            denom = math.lcm(denom, coord.denominator)
    return LexTrace(x_star, tuple(rho), tuple(r_vec), q_system, k, tuple(verts),
                    z_star, k * denom)


def eps_point(prob, v_star, eps, config: SolverConfig = DEFAULT_CONFIG,
              scan: Optional[DecisionScan] = None) -> EpsSolution:
    """A bilevel-feasible point with value at most v* + eps."""
    prob = as_problem(prob)
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    v_star = Fraction(v_star)
    hit = witness_le(prob, v_star + eps, config, scan)
    if hit is None:
        raise InternalInvariantError("eps-optimal point must exist for a feasible problem")
    x, z = hit
    value = prob.effective_objective().dot(QVector(list(map(Fraction, x)) + list(z.entries)))
    if value > v_star + eps:
        raise InternalInvariantError("eps witness exceeds the allowed value")
    return EpsSolution(x, z, value, eps)


def solve_mixed(inst, eps=None, config: SolverConfig = DEFAULT_CONFIG) -> SolveReport:
    """Full mixed pipeline: feasibility, infimum, attainment, extraction."""
    prob = as_problem(inst)
    if prob.variant != MIXED:
        raise ValueError("solve_mixed needs a mixed problem")
    inst = prob.base
    telemetry = Telemetry()
    report = SolveReport(INFEASIBLE, telemetry=telemetry)
    try:
        objective_bounds(prob, config)
    except InfeasibleRelaxationError:
        return report
    joint = inst.upper_system().with_rows(
        inst.follower_relax_rows() + [r.closed() for r in prob.effective_extras()])
    pattern = MixedPattern(inst.joint_dim(), frozenset(range(inst.n)))
    if mixed_feasible(joint, pattern, config) is None:
        return report

    scan = DecisionScan(prob, config)
    telemetry.cells = len(cell_index(inst, config).entries)
    try:
        v_star = infimum(prob, config, telemetry, scan)
    except InfeasibleProblemError:
        return report
    report.infimum = v_star
    witness = decide_eq(prob, v_star, config, telemetry, scan)
    if witness is not None:
        trace = lex_extract(prob, v_star, config, telemetry, scan)
        report.status = ATTAINED
        report.solution = (trace.x_star, trace.z_star)
        report.lex_trace = trace
    else:
        report.status = UNATTAINED
        if eps is not None:
            report.eps_solution = eps_point(prob, v_star, eps, config, scan)
    return report


# ---------------------------------------------------------------------------
# pure driver and enumeration cross-check


def _as_pure(prob) -> GeneralizedProblem:
    prob = as_problem(prob)
    if prob.variant == PURE:
        return prob
    return GeneralizedProblem(prob.base, prob.extra_rows, prob.fixed_x_prefix,
                              prob.objective, PURE)


def _pure_driver(prob: GeneralizedProblem, config: SolverConfig, telemetry):
    """Bisection-based pure solve: (v*, x*, z*) or None when infeasible."""
    inst = prob.base
    try:
        v_lo, v_hi = objective_bounds(prob, config)
    except InfeasibleRelaxationError:
        return None

    def dec(alpha, sub=prob):
        return decide_le_pure(sub, alpha, config, telemetry)

    if not dec(v_hi):
        return None
    v_star = Fraction(_integer_bisect(dec, v_lo - 1, v_hi, telemetry))

    obj = prob.effective_objective()
    extras = prob.extra_rows + (row_eq(obj.entries, v_star),)
    dim = inst.joint_dim()
    prefix = list(prob.fixed_x_prefix)
    for j in range(len(prefix), inst.n):
        unit = [Fraction(0)] * dim
        unit[j] = Fraction(1)
        sub = GeneralizedProblem(inst, extras, tuple(prefix), QVector(unit), PURE)
        s_lo, s_hi = objective_bounds(sub, config)

        def dec_j(alpha, sub=sub):
            return decide_le_pure(sub, alpha, config, telemetry)

        if not dec_j(s_hi):
            raise InternalInvariantError("pure value-equality subproblem is infeasible")
        prefix.append(_integer_bisect(dec_j, s_lo - 1, s_hi, telemetry))
    x_star = tuple(prefix)

    z_vals = []
    zfix = []
    for j in range(inst.d):
        unit = [Fraction(0)] * dim
        unit[inst.n + j] = Fraction(1)
        sub = GeneralizedProblem(inst, extras + tuple(zfix), x_star, QVector(unit), PURE)
        s_lo, s_hi = objective_bounds(sub, config)

        def dec_j(alpha, sub=sub):
            return decide_le_pure(sub, alpha, config, telemetry)

        if not dec_j(s_hi):
            raise InternalInvariantError("pure leader-component subproblem is infeasible")
        zj = _integer_bisect(dec_j, s_lo - 1, s_hi, telemetry)
        z_vals.append(zj)
        zfix.append(row_eq(unit, zj))
    z_star = QVector([Fraction(v) for v in z_vals])
    return v_star, x_star, z_star


def _pure_enumeration(prob: GeneralizedProblem, config: SolverConfig):
    """Direct scan of the finite pure feasible set; lex-least optimum."""
    inst = prob.base
    obj = prob.effective_objective()
    extras = [strictify_for_integers(r) for r in prob.effective_extras()]
    rows = inst.upper_rows() + inst.follower_relax_rows() + extras
    swapped = []
    for r in rows:
        co = r.coeffs.entries
        swapped.append(LinRow(QVector(co[inst.n:] + co[:inst.n]), r.rhs, r.rel))
    budget = [0]
    best = None
    for z_ints in integer_candidates(swapped, inst.joint_dim(), inst.d, config, budget):
        z = QVector([Fraction(v) for v in z_ints])
        follower = inst.follower_system_at(z)
        fopt = integer_min(inst.psi, follower, config=config)
        if not fopt.is_optimal:
            continue
        response_rows = [row_eq(inst.psi.entries, fopt.value)]
        dead = False
        for r in inst.upper_rows() + extras:
            fixed = fix_z_suffix(r, z, inst.n)
            if fixed is None:
                continue
            if fixed.constant_truth() is False:
                dead = True
                break
            response_rows.append(fixed)
        if dead:
            continue
        for x in enumerate_integers(follower.with_rows(response_rows), config):
            x_ints = tuple(int(v) for v in x.entries)
            value = obj.dot(QVector(list(x.entries) + list(z.entries)))
            cand = (value, x_ints, z_ints)
            if best is None or cand < best:
                best = cand
    if best is None:
        return None
    value, x_ints, z_ints = best
    return value, x_ints, QVector([Fraction(v) for v in z_ints])


def solve_pure(inst, config: SolverConfig = DEFAULT_CONFIG) -> SolveReport:
    """Pure-integer solve; the two independent drivers must agree exactly."""
    prob = _as_pure(inst)
    telemetry = Telemetry()
    report = SolveReport(INFEASIBLE, telemetry=telemetry)
    searched = _pure_driver(prob, config, telemetry)
    enumerated = _pure_enumeration(prob, config)
    if (searched is None) != (enumerated is None):
        raise InternalInvariantError(
            f"pure drivers disagree on feasibility: {searched} vs {enumerated}")
    if searched is None:
        return report
    if searched != enumerated:
        raise InternalInvariantError(
            f"pure drivers disagree: {searched} vs {enumerated}")
    v_star, x_star, z_star = searched
    report.status = ATTAINED
    report.infimum = v_star
    report.solution = (x_star, z_star)
    return report


# ---------------------------------------------------------------------------
# reference oracle


def reference_oracle(inst, variant: str = MIXED,
                     config: SolverConfig = DEFAULT_CONFIG) -> SolveReport:
    """Brute-force solve used to cross-check the search drivers.

    Mixed: every valid cell's infimum, then the lex-first attaining cell
    with greedy coordinatewise z minimization. Pure: the enumeration pass.
    """
    prob = as_problem(inst)
    if prob.extra_rows or prob.fixed_x_prefix:
        raise ValueError("the reference oracle works on plain instances")
    inst = prob.base
    telemetry = Telemetry()
    if variant == PURE:
        got = _pure_enumeration(_as_pure(prob), config)
        if got is None:
            return SolveReport(INFEASIBLE, telemetry=telemetry)
        value, x_ints, z = got
        return SolveReport(ATTAINED, infimum=value, solution=(x_ints, z),
                           telemetry=telemetry)
    if variant != MIXED:
        raise ValueError(f"unknown variant {variant!r}")

    obj = prob.effective_objective()
    index = cell_index(inst, config)
    telemetry.cells = len(index.entries)
    results = []
    for entry in index.entries:
        inf, attained, _ = cell_infimum(inst, entry.cell, obj, config)
        results.append((entry, inf, attained))
    if not results:
        return SolveReport(INFEASIBLE, telemetry=telemetry)
    v_star = min(inf for _, inf, _ in results)
    winner = next(((e, inf) for e, inf, att in results if inf == v_star and att), None)
    report = SolveReport(UNATTAINED, infimum=v_star, telemetry=telemetry)
    if winner is None:
        return report
    entry, _ = winner
    obj_z = QVector(obj.entries[inst.n:])
    shift = sum((a * Fraction(b) for a, b in zip(obj.entries[:inst.n], entry.cell.x)),
                Fraction(0))
    sliced = entry.region.with_rows([row_eq(obj_z.entries, v_star - shift)])
    for j in range(inst.d):
        unit = [Fraction(0)] * inst.d
        unit[j] = Fraction(1)
        mn = lp_solve(sliced.closure(), QVector(unit), "min", config)
        if not mn.is_optimal:
            raise InternalInvariantError("winning slice lost feasibility")
        trial = sliced.with_rows([row_eq(unit, mn.value)])
        if strict_feasible_point(trial, config) is not None:
            sliced = trial
    z = strict_feasible_point(sliced, config)
    if z is None:
        raise InternalInvariantError("winning slice has no strictly feasible point")
    report.status = ATTAINED
    report.solution = (entry.cell.x, z)
    return report


def disagreement(inst, searched: SolveReport, oracled: SolveReport,
                 config: SolverConfig = DEFAULT_CONFIG) -> Optional[str]:
    """Why a search report and the reference oracle's report disagree, or None.

    Both must give the same status and infimum, and the infimum's
    denominator must respect denominator_cap. When attained, each solution
    is checked from the definition (bilevel feasible, objective equal to the
    infimum), and the search x* must be lexicographically no larger than
    the oracle's.
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
        value = inst.objective_vector().dot(QVector(list(x) + list(z.entries)))
        if value != report.infimum:
            return f"{name} solution has value {value}, not {report.infimum}"
    if tuple(searched.solution[0]) > tuple(oracled.solution[0]):
        return f"search x* {searched.solution[0]} is lex above the oracle's"
    return None
