"""Instance model and the half-open cell decomposition of the leader space.

A cell is a pair (x, r): a candidate integer follower response x together
with the vector r of floors of the follower row activities B_i z + u_i. Over
one cell the follower's feasible set is constant, so bilevel feasibility
reduces to per-cell checks and the leader's infimum to per-cell LPs. Cell
regions are half open: the floor rows hold as r_i <= B_i z + u_i < r_i + 1,
the upper-level rows and z >= 0 are closed.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from .config import DEFAULT_CONFIG, SolverConfig
from .errors import InternalInvariantError, ResourceLimitError, ValidationError
from .lattice import MixedPattern, integer_min, mixed_feasible
from .linear import (LinRow, LinearSystem, lp_solve, recession_bounded, row_eq, row_le,
                     row_lt, strict_feasible_point, _bounded_system)
from .rational import QMatrix, QVector, Rat, ceil_rat, floor_rat


@dataclass(frozen=True)
class Instance:
    """One bilevel instance with all-integer data.

    Leader variables z (continuous, z >= 0 implicit), follower variables x
    (integer). Upper level: C x + D z <= p. Follower: x minimizes psi . x
    over A x <= B z + u. Construction validates shapes, integrality, that
    the upper-level region is bounded, and that the follower polyhedra are
    bounded for every z.
    """

    n: int
    d: int
    A: QMatrix
    B: QMatrix
    C: QMatrix
    D: QMatrix
    c: QVector
    e: QVector
    psi: QVector
    u: QVector
    p: QVector

    def __post_init__(self):
        if self.n < 1 or self.d < 1:
            raise ValidationError("bad-shape", "need n >= 1 and d >= 1")
        try:
            for name, ncols in (("A", self.n), ("B", self.d), ("C", self.n), ("D", self.d)):
                val = getattr(self, name)
                if not isinstance(val, QMatrix):
                    object.__setattr__(self, name, QMatrix(val, ncols=ncols))
            for name in ("c", "e", "psi", "u", "p"):
                val = getattr(self, name)
                if not isinstance(val, QVector):
                    object.__setattr__(self, name, QVector(val))
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise ValidationError("bad-shape", f"cannot build instance data: {exc}") from exc
        m, h = self.A.nrows, self.C.nrows
        shape_ok = (self.A.ncols == self.n and self.B.nrows == m and self.B.ncols == self.d
                    and self.C.ncols == self.n and self.D.nrows == h and self.D.ncols == self.d
                    and self.c.dim == self.n and self.e.dim == self.d and self.psi.dim == self.n
                    and self.u.dim == m and self.p.dim == h)
        if not shape_ok:
            raise ValidationError("bad-shape", "matrix and vector shapes are inconsistent")
        for name in ("A", "B", "C", "D"):
            if not getattr(self, name).is_integral():
                raise ValidationError("nonintegral-data", f"matrix {name} has a non-integer entry")
        for name in ("c", "e", "psi", "u", "p"):
            if not getattr(self, name).is_integral():
                raise ValidationError("nonintegral-data", f"vector {name} has a non-integer entry")
        cone_rows = [tuple(cr) + tuple(dr) for cr, dr in zip(self.C.entries, self.D.entries)]
        for i in range(self.d):
            unit = [Fraction(0)] * (self.n + self.d)
            unit[self.n + i] = Fraction(-1)
            cone_rows.append(tuple(unit))
        if not recession_bounded(QMatrix(cone_rows, ncols=self.n + self.d)):
            raise ValidationError("unbounded-P", "upper-level region C x + D z <= p, z >= 0 is unbounded")
        if not recession_bounded(self.A):
            raise ValidationError("unbounded-follower", "follower regions A x <= B z + u are unbounded")
        object.__setattr__(self, "_index_cache", {})

    @property
    def m(self) -> int:
        return self.A.nrows

    @property
    def h(self) -> int:
        return self.C.nrows

    def joint_dim(self) -> int:
        return self.n + self.d

    def objective_vector(self) -> QVector:
        return QVector(tuple(self.c.entries) + tuple(self.e.entries))

    def upper_rows(self) -> list:
        """C x + D z <= p plus z >= 0, over (x, z)."""
        rows = []
        for cr, dr, rhs in zip(self.C.entries, self.D.entries, self.p.entries):
            rows.append(row_le(tuple(cr) + tuple(dr), rhs))
        for i in range(self.d):
            coeffs = [0] * (self.n + self.d)
            coeffs[self.n + i] = -1
            rows.append(row_le(coeffs, 0))
        return rows

    def follower_relax_rows(self) -> list:
        """A x - B z <= u over (x, z)."""
        rows = []
        for ar, br, rhs in zip(self.A.entries, self.B.entries, self.u.entries):
            rows.append(row_le(tuple(ar) + tuple(-f for f in br), rhs))
        return rows

    def upper_system(self) -> LinearSystem:
        """The upper rows as a system over (x, z), carrying the boundedness
        proof that validation made for them (code "unbounded-P")."""
        return _bounded_system(self.joint_dim(), self.upper_rows())

    def follower_system(self, rhs) -> LinearSystem:
        """A x <= rhs, carrying the proof that validation made for A
        (code "unbounded-follower")."""
        rows = [row_le(ar, rv) for ar, rv in zip(self.A.entries, rhs)]
        return _bounded_system(self.n, rows)

    def follower_system_at(self, z: QVector) -> LinearSystem:
        """A x <= B z + u for a fixed leader point z."""
        rhs = self.B.matvec(z)
        return self.follower_system([rv + uv for rv, uv in zip(rhs, self.u.entries)])


@dataclass(frozen=True)
class Cell:
    x: tuple
    r: tuple

    def __post_init__(self):
        object.__setattr__(self, "x", tuple(int(v) for v in self.x))
        object.__setattr__(self, "r", tuple(int(v) for v in self.r))


def specialize_row(row: LinRow, x: Iterable, n: int) -> Optional[LinRow]:
    """Restrict a row over (x, z) to fixed integer x; returns a row over z.

    Constant rows that become trivially true collapse to None; trivially
    false ones come back as an unsatisfiable closed row so downstream LPs
    report infeasibility.
    """
    coeffs = row.coeffs.entries
    xs = list(x)
    if len(coeffs) < n or len(xs) != n:
        raise ValueError("row does not match the fixed prefix")
    shift = sum((coeffs[j] * Fraction(xs[j]) for j in range(n)), Fraction(0))
    out = LinRow(QVector(coeffs[n:]), row.rhs - shift, row.rel)
    truth = out.constant_truth()
    if truth is None:
        return out
    return None if truth else row_le([0] * (len(coeffs) - n), -1)


def floor_rhs(inst: Instance, z: QVector) -> tuple:
    """Componentwise floor of B z + u at the given leader point."""
    if z.dim != inst.d:
        raise ValueError("leader point has the wrong dimension")
    return tuple(floor_rat(v + uv) for v, uv in zip(inst.B.matvec(z), inst.u.entries))


def cell_region(inst: Instance, cell: Cell, extras: Iterable[LinRow] = ()) -> LinearSystem:
    """The half-open region of leader points that realize the cell.

    Rows over z: D z <= p - C x (closed), z >= 0 (closed), r_i <= B_i z + u_i
    (closed), B_i z + u_i < r_i + 1 (strict), plus any extra rows over (x, z)
    specialized to the cell's x. The region carries a boundedness proof: its
    recession cone lies in {z : D z <= 0, z >= 0}, the x = 0 slice of the
    upper-level cone that validation proved to be {0}.
    """
    if len(cell.x) != inst.n or len(cell.r) != inst.m:
        raise ValueError("cell does not match the instance shape")
    rows = []
    cx = inst.C.matvec(QVector(cell.x))
    for dr, rhs, shift in zip(inst.D.entries, inst.p.entries, cx):
        coeffs = list(dr)
        if all(f == 0 for f in coeffs):
            if rhs - shift < 0:
                rows.append(row_le([0] * inst.d, -1))
            continue
        rows.append(row_le(coeffs, rhs - shift))
    for i in range(inst.d):
        coeffs = [0] * inst.d
        coeffs[i] = -1
        rows.append(row_le(coeffs, 0))
    for br, uv, ri in zip(inst.B.entries, inst.u.entries, cell.r):
        lowrhs = Fraction(uv) - ri          # -B_i z <= u_i - r_i
        uprhs = Fraction(ri + 1) - uv       # B_i z < r_i + 1 - u_i
        if all(f == 0 for f in br):
            if not (0 <= uv - ri and uv - ri < 1):
                rows.append(row_le([0] * inst.d, -1))
            continue
        rows.append(row_le([-f for f in br], lowrhs))
        rows.append(row_lt(list(br), uprhs))
    for extra in extras:
        sp = specialize_row(extra, cell.x, inst.n)
        if sp is not None:
            rows.append(sp)
    return _bounded_system(inst.d, tuple(rows))


def _follower_improves(inst: Instance, cell: Cell, config: SolverConfig) -> bool:
    """Whether an integer x' with A x' <= r beats the cell's x by >= 1 in psi."""
    target = inst.psi.dot(QVector(cell.x)) - 1
    sys = inst.follower_system(cell.r).with_rows([row_le(inst.psi.entries, target)])
    return mixed_feasible(sys, MixedPattern.all_integer(inst.n), config) is not None


def is_valid_cell(inst: Instance, cell: Cell, extras: Iterable[LinRow] = (),
                  config: SolverConfig = DEFAULT_CONFIG) -> bool:
    """Feasible response, follower-optimal, and a strictly realizable region."""
    ax = inst.A.matvec(QVector(cell.x))
    if any(av > rv for av, rv in zip(ax, cell.r)):
        return False
    if _follower_improves(inst, cell, config):
        return False
    return strict_feasible_point(cell_region(inst, cell, extras), config) is not None


def bilevel_feasible(inst: Instance, x, z: QVector,
                     config: SolverConfig = DEFAULT_CONFIG) -> bool:
    """Direct definition: upper rows hold and x solves the follower at z."""
    xv = QVector(x)
    if not xv.is_integral():
        return False
    if z.dim != inst.d or xv.dim != inst.n:
        raise ValueError("point has the wrong shape")
    if any(v < 0 for v in z):
        return False
    cx = inst.C.matvec(xv)
    dz = inst.D.matvec(z)
    if any(a + b > rhs for a, b, rhs in zip(cx, dz, inst.p.entries)):
        return False
    follower = inst.follower_system_at(z)
    if not follower.satisfied_by(xv):
        return False
    opt = integer_min(inst.psi, follower, config=config)
    if not opt.is_optimal:
        raise InternalInvariantError("follower was feasible at x yet integer_min found nothing")
    return opt.value == inst.psi.dot(xv)


# ---------------------------------------------------------------------------
# enumeration and the per-instance index


def _substitute_first(rows, value: Fraction):
    out = []
    for r in rows:
        coeffs = r.coeffs.entries
        out.append(LinRow(QVector(coeffs[1:]), r.rhs - coeffs[0] * value, r.rel))
    return out


def integer_candidates(rows, total_dim: int, count: int, config: SolverConfig,
                       budget) -> list:
    """Integer assignments of the first `count` coordinates that keep the
    closed system feasible with the remaining coordinates continuous.

    Lex order; `budget` is a one-element mutable counter shared with the
    caller's cap.
    """
    out = []

    def walk(prefix, cur, remaining_first):
        if remaining_first == 0:
            out.append(tuple(prefix))
            return
        dim = total_dim - len(prefix)
        sub = LinearSystem(dim, tuple(cur))
        unit = [Fraction(0)] * dim
        unit[0] = Fraction(1)
        lo_out = lp_solve(sub, QVector(unit), "min", config)
        if lo_out.tag == "infeasible":
            return
        hi_out = lp_solve(sub, QVector(unit), "max", config)
        if not (lo_out.is_optimal and hi_out.is_optimal):
            raise InternalInvariantError("candidate enumeration hit an unbounded direction")
        for v in range(ceil_rat(lo_out.value), floor_rat(hi_out.value) + 1):
            budget[0] += 1
            if budget[0] > config.cell_cap:
                raise ResourceLimitError(
                    f"cell_cap={config.cell_cap}: cell enumeration cap exceeded")
            walk(prefix + [v], _substitute_first(cur, Fraction(v)), remaining_first - 1)

    walk([], list(rows), count)
    return out


@dataclass
class CellEntry:
    cell: Cell
    region: LinearSystem


class CellIndex:
    """Lex-ordered valid cells of an instance, built once and reused."""

    def __init__(self, inst: Instance, config: SolverConfig):
        self.instance = inst
        self.config = config
        self.entries = self._build()

    def _build(self):
        inst, config = self.instance, self.config
        budget = [0]
        joint = inst.upper_rows()
        xs = integer_candidates(joint, inst.joint_dim(), inst.n, config, budget)
        entries = []
        improve_memo = {}
        for x in xs:
            base = []
            infeasible = False
            cx = inst.C.matvec(QVector(x))
            for dr, rhs, shift in zip(inst.D.entries, inst.p.entries, cx):
                if all(f == 0 for f in dr):
                    if rhs - shift < 0:
                        infeasible = True
                        break
                    continue
                base.append(row_le(list(dr), rhs - shift))
            if infeasible:
                continue
            for i in range(inst.d):
                coeffs = [0] * inst.d
                coeffs[i] = -1
                base.append(row_le(coeffs, 0))
            ax = inst.A.matvec(QVector(x)).entries
            self._walk_floors(x, ax, base, [], entries, improve_memo, budget)
        return entries

    def _walk_floors(self, x, ax, cur_rows, r_prefix, entries, improve_memo, budget):
        inst, config = self.instance, self.config
        i = len(r_prefix)
        if i == inst.m:
            budget[0] += 1
            if budget[0] > config.cell_cap:
                raise ResourceLimitError(
                    f"cell_cap={config.cell_cap}: cell enumeration cap exceeded")
            cell = Cell(x, tuple(r_prefix))
            key = (cell.r, inst.psi.dot(QVector(x)))
            better = improve_memo.get(key)
            if better is None:
                better = _follower_improves(inst, cell, config)
                improve_memo[key] = better
            if better:
                return
            region = cell_region(inst, cell)
            if strict_feasible_point(region, config) is not None:
                entries.append(CellEntry(cell, region))
            return
        br = inst.B.entries[i]
        uv = inst.u.entries[i]
        if all(f == 0 for f in br):
            lo = hi = floor_rat(uv)
        else:
            sub = LinearSystem(inst.d, tuple(cur_rows))
            mn = lp_solve(sub, QVector(br), "min", config)
            if mn.tag == "infeasible":
                return
            mx = lp_solve(sub, QVector(br), "max", config)
            if not (mn.is_optimal and mx.is_optimal):
                raise InternalInvariantError("floor range LP unbounded on a bounded region")
            lo = floor_rat(mn.value + uv)
            hi = floor_rat(mx.value + uv)
        axi = ax[i]
        if axi > lo:  # response must stay feasible: A_i x <= r_i
            lo = ceil_rat(axi)
        for ri in range(lo, hi + 1):
            if all(f == 0 for f in br):
                added = []
                if not (ri <= uv < ri + 1):
                    continue
            else:
                added = [row_le([-f for f in br], Fraction(uv) - ri),
                         row_le(list(br), Fraction(ri + 1) - uv)]
            self._walk_floors(x, ax, cur_rows + added, r_prefix + [ri],
                              entries, improve_memo, budget)


def cell_index(inst: Instance, config: SolverConfig = DEFAULT_CONFIG) -> CellIndex:
    cache = inst._index_cache
    idx = cache.get(config)
    if idx is None:
        idx = CellIndex(inst, config)
        cache[config] = idx
    return idx


def enumerate_cells(inst: Instance, extras: Iterable[LinRow] = (),
                    config: SolverConfig = DEFAULT_CONFIG) -> list:
    """Lex-ordered valid cells, optionally under extra rows over (x, z).

    Extra rows shrink the strictly realizable region but never change the
    response-feasibility or follower-optimality of a cell, so validity under
    extras is validity of the base cell plus strict feasibility of the
    augmented region.
    """
    extras = tuple(extras)
    idx = cell_index(inst, config)
    if not extras:
        return [e.cell for e in idx.entries]
    out = []
    for e in idx.entries:
        sp = [specialize_row(r, e.cell.x, inst.n) for r in extras]
        sp = [r for r in sp if r is not None]
        if strict_feasible_point(e.region.with_rows(sp), config) is not None:
            out.append(e.cell)
    return out


def cell_infimum(inst: Instance, cell: Cell, objective: QVector,
                 config: SolverConfig = DEFAULT_CONFIG):
    """(infimum, attained, witness) of an objective over one valid cell.

    The infimum is the LP minimum over the region's closure; it is attained
    exactly when the optimal face meets the half-open region. The witness is
    an exact optimal point when attained, otherwise a strictly feasible point
    within delta of the infimum, delta being a configured fraction of the
    objective range over the cell.
    """
    if objective.dim != inst.joint_dim():
        raise ValueError("objective must be over (x, z)")
    region = cell_region(inst, cell)
    obj_x = sum((a * b for a, b in zip(objective.entries[:inst.n], cell.x)), Fraction(0))
    obj_z = QVector(objective.entries[inst.n:])
    closed = region.closure()
    mn = lp_solve(closed, obj_z, "min", config)
    if not mn.is_optimal:
        raise InternalInvariantError("cell_infimum needs a valid (nonempty, bounded) cell")
    inf = obj_x + mn.value
    at = strict_feasible_point(region.with_rows([row_eq(obj_z.entries, mn.value)]), config)
    if at is not None:
        witness = QVector(list(map(Fraction, cell.x)) + list(at.entries))
        return inf, True, witness
    mx = lp_solve(closed, obj_z, "max", config)
    if not mx.is_optimal:
        raise InternalInvariantError("cell objective range must be bounded")
    spread = mx.value - mn.value
    if spread == 0:
        raise InternalInvariantError("constant objective on a valid cell must be attained")
    delta = config.witness_delta * spread
    near = strict_feasible_point(region.with_rows([row_le(obj_z.entries, mn.value + delta)]), config)
    if near is None:
        raise InternalInvariantError("near-optimal witness must exist on a valid cell")
    witness = QVector(list(map(Fraction, cell.x)) + list(near.entries))
    return inf, False, witness
