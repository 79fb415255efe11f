"""Shared helpers for the test suite: fixture instances and brute-force oracles.

The oracles here are deliberately independent of the solver internals: plain
Fraction Gaussian elimination for vertex enumeration, grid scans for integer
sets, and a denominator scan for simplest-rational questions. They are slow
and only meant for small reference problems. ref_mixed_no_lp and
ref_pure_no_lp solve a whole instance this way, reading nothing of the
package but its data fields, for the drivers to be compared with.
"""
import collections
import contextlib
import itertools
import math
import os
from dataclasses import replace
from fractions import Fraction
from unittest import mock

from bilevel_exact import (DEFAULT_CONFIG, LE, EQ, LT, Cell, Instance, LinearSystem, cells,
                           is_valid_cell, row_eq)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXAMPLE1_PATH = os.path.join(ROOT, "instances", "example1.json")


def make_example1():
    """Canonical instance: leader pays z - x, follower picks the smallest x >= z."""
    return Instance(
        n=1, d=1,
        A=[[-1], [1], [-1]], B=[[-1], [0], [0]],
        C=[[0], [1], [-1]], D=[[1], [0], [0]],
        c=[-1], e=[1], psi=[1], u=[0, 1, 0], p=[1, 1, 0],
    )


def make_flipped():
    """The bundled example with leader objective x + z: attained at (0,0)."""
    return Instance(
        n=1, d=1,
        A=[[-1], [1], [-1]], B=[[-1], [0], [0]],
        C=[[0], [1], [-1]], D=[[1], [0], [0]],
        c=[1], e=[1], psi=[1], u=[0, 1, 0], p=[1, 1, 0],
    )


def with_upper_rows(inst, *rows):
    """The instance with rows cx . x + dz . z <= p appended to (C, D, p),
    each row given as (cx, dz, p)."""
    return replace(inst,
                   C=list(inst.C) + [cx for cx, _, _ in rows],
                   D=list(inst.D) + [dz for _, dz, _ in rows],
                   p=list(inst.p) + [p for _, _, p in rows])


@contextlib.contextmanager
def no_index_build():
    """Inside the block, building a cell index fails the test."""
    def refuse(self):
        raise AssertionError("a cell index was built")

    with mock.patch.object(cells.CellIndex, "_build", refuse):
        yield


def make_empty_follower_pure():
    """Upper level needs x >= 1 but the follower argmin is {0}: F' is empty."""
    return Instance(
        n=1, d=1,
        A=[[1], [-1]], B=[[0], [0]],
        C=[[-1], [1], [0]], D=[[0], [0], [1]],
        c=[1], e=[1], psi=[1], u=[1, 0], p=[-1, 1, 0],
    )


def make_infeasible_upper():
    """z <= -1 contradicts the implicit z >= 0."""
    return Instance(
        n=1, d=1,
        A=[[1], [-1]], B=[[0], [0]],
        C=[[0], [1], [-1]], D=[[1], [0], [0]],
        c=[1], e=[1], psi=[1], u=[1, 0], p=[-1, 1, 0],
    )


def _solve_square(rows, rhs):
    """Gaussian elimination over Fraction; None if singular."""
    n = len(rows)
    aug = [[Fraction(v) for v in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    for col in range(n):
        piv = next((i for i in range(col, n) if aug[i][col] != 0), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = aug[col][col]
        aug[col] = [v / inv for v in aug[col]]
        for i in range(n):
            if i != col and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[col])]
    return [aug[i][n] for i in range(n)]


def row_holds(row, point, closed=False):
    val = sum(c * p for c, p in zip(row.a, point))
    if row.rel == EQ:
        return val == row.b
    if row.rel == LT and not closed:
        return val < row.b
    return val <= row.b


def ref_vertices(system):
    """All basic feasible points of the closure, by brute combination."""
    return _closure_vertices(list(system.rows), system.dim)


def _reduced(basis, coeffs, rhs):
    """(coeffs, rhs, pivot) of a row reduced at the pivots of the independent
    rows in basis, or None when it depends on them."""
    for a, b, p in basis:
        if coeffs[p] != 0:
            f = coeffs[p] / a[p]
            coeffs = [x - f * y for x, y in zip(coeffs, a)]
            rhs -= f * b
    lead = next((j for j, x in enumerate(coeffs) if x != 0), None)
    return None if lead is None else (coeffs, rhs, lead)


def _closure_vertices(rows, dim):
    """Every vertex lies on every equality row, so the bases tried are a
    maximal independent set of the equality rows plus each combination of
    other rows that stays independent; each is solved by back substitution
    in Fraction arithmetic and kept when it meets every row."""
    basis = []
    others = []
    for r in rows:
        coeffs, rhs = [Fraction(v) for v in r.a], Fraction(r.b)
        if r.rel != EQ:
            others.append((coeffs, rhs))
        elif len(basis) < dim:
            basis += [red for red in [_reduced(basis, coeffs, rhs)] if red is not None]
    seen = set()
    out = []

    def extend(basis, start):
        if len(basis) == dim:
            pt = [Fraction(0)] * dim
            for a, b, p in reversed(basis):
                pt[p] = (b - sum(x * y for x, y in zip(a, pt))) / a[p]
            key = tuple(pt)
            if key not in seen:
                seen.add(key)
                if all(row_holds(r, pt, closed=True) for r in rows):
                    out.append(pt)
            return
        for i in range(start, len(others) - (dim - len(basis)) + 1):
            red = _reduced(basis, *others[i])
            if red is not None:
                extend(basis + [red], i + 1)

    extend(basis, 0)
    return out


def affine_dimension(points):
    """Affine dimension of a nonempty point set: the rank of the differences
    to the first point, by Fraction row reduction."""
    rows = [[Fraction(a) - Fraction(b) for a, b in zip(p, points[0])] for p in points[1:]]
    rank = 0
    for col in range(len(points[0])):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col] / rows[rank][col]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def ref_strictly_feasible(rows):
    """Whether one point meets every closed row and every strict row strictly.

    Only for rows with a bounded closure. The barycenter of all vertices of
    the closure lies in its relative interior, and a nonempty half-open set
    contains the relative interior of its closure, so the barycenter is such
    a point whenever one exists.
    """
    rows = list(rows)
    verts = _closure_vertices(rows, len(rows[0].a))
    if not verts:
        return False
    center = [sum(col) / len(verts) for col in zip(*verts)]
    return all(row_holds(r, center) for r in rows)


# ---------------------------------------------------------------------------
# the reference that uses no LP: vertices by bases of rows, integers by box
# scans, and nothing of the package but the instance's data fields

Row = collections.namedtuple("Row", "a b rel")


def _dot(a, v):
    return sum(x * y for x, y in zip(a, v))


def _integer_box(points):
    """The integer points of the box spanned by `points`, lex order; none
    when there are no points."""
    if not points:
        return []
    return itertools.product(*(range(math.ceil(min(col)), math.floor(max(col)) + 1)
                               for col in zip(*points)))


def _responses(inst):
    """Every (x, r), in lex order, with x an optimal follower response at
    the floors r: x in the integer box of the upper region's vertices in
    (x, z), each r_i between the least and the greatest floor of
    B_i z + u_i at those vertices, A x <= r, and no integer point of
    {A x' <= r} with a smaller psi . x', by one scan of its box per r."""
    n, d = inst.n, inst.d
    upper = [Row(cr + dr, pv, LE) for cr, dr, pv in zip(inst.C, inst.D, inst.p)]
    upper += [Row(tuple(-int(k == j) for k in range(n + d)), 0, LE) for j in range(n, n + d)]
    verts = _closure_vertices(upper, n + d)
    if not verts:
        return []
    floors = [[math.floor(_dot(br, v[n:]) + uv) for v in verts] for br, uv in zip(inst.B, inst.u)]
    best, out = {}, []
    for x in _integer_box([v[:n] for v in verts]):
        for r in itertools.product(*(range(min(f), max(f) + 1) for f in floors)):
            if any(_dot(ar, x) > ri for ar, ri in zip(inst.A, r)):
                continue
            if r not in best:
                rows = [Row(ar, ri, LE) for ar, ri in zip(inst.A, r)]
                best[r] = min(_dot(inst.psi, y) for y in _integer_box(_closure_vertices(rows, n))
                              if all(row_holds(row, y) for row in rows))
            if _dot(inst.psi, x) == best[r]:
                out.append((x, r))
    return out


def _region(inst, x, r, integer_z=False):
    """The rows over z of the cell (x, r): D z <= p - C x, z >= 0 and
    r_i <= B_i z + u_i < r_i + 1, the strict rows tightened by 1 to
    B_i z + u_i <= r_i with `integer_z`."""
    rows = [Row(dr, pv - _dot(cr, x), LE) for cr, dr, pv in zip(inst.C, inst.D, inst.p)]
    rows += [Row(tuple(-int(k == j) for k in range(inst.d)), 0, LE) for j in range(inst.d)]
    for br, uv, ri in zip(inst.B, inst.u, r):
        rows.append(Row(tuple(-v for v in br), uv - ri, LE))
        rows.append(Row(br, ri - uv, LE) if integer_z else Row(br, ri + 1 - uv, LT))
    return rows


def ref_mixed_no_lp(inst):
    """(status, infimum, x*) of the mixed problem from the cell definition.

    A cell is valid when its half-open region is nonempty
    (ref_strictly_feasible); its infimum is c . x plus the least e . z over
    its closure's vertices, and v* is the least. v* is attained when the
    slice of a cell at v*, its region with c . x + e . z = v*, is nonempty,
    and x* is the x of the lex-first such cell."""
    valid = []
    for x, r in _responses(inst):
        rows = _region(inst, x, r)
        if ref_strictly_feasible(rows):
            low = min(_dot(inst.e, v) for v in _closure_vertices(rows, inst.d))
            valid.append((x, rows, _dot(inst.c, x) + low))
    if not valid:
        return "Infeasible", None, None
    v_star = min(value for _, _, value in valid)
    for x, rows, value in valid:
        if value == v_star and ref_strictly_feasible(
                rows + [Row(inst.e, v_star - _dot(inst.c, x), EQ)]):
            return "Attained", v_star, x
    return "Unattained", v_star, None


def ref_pure_no_lp(inst):
    """(status, infimum, (x*, z*)) of the pure problem: the least
    (c . x + e . z, x, z) over the integer z of each cell (x, r), which have
    B z + u = r, found by a scan of the box of that closure's vertices."""
    found = []
    for x, r in _responses(inst):
        rows = _region(inst, x, r, integer_z=True)
        found += [(_dot(inst.c, x) + _dot(inst.e, z), x, z)
                  for z in _integer_box(_closure_vertices(rows, inst.d))
                  if all(row_holds(row, z) for row in rows)]
    if not found:
        return "Infeasible", None, None
    value, x, z = min(found)
    return "Attained", value, (x, z)


def valid_cells_by_definition(inst):
    """Every (x, r) that is_valid_cell accepts, in lex order.

    Valid cells lie inside the upper region, so x ranges over the integer
    points of its x box and each r_i over the floors of B_i z + u_i between
    the least and the greatest value at its vertices.
    """
    verts = ref_vertices(inst.upper_system())
    if not verts:
        return []
    x_ranges = [range(math.ceil(min(v[j] for v in verts)), math.floor(max(v[j] for v in verts)) + 1)
                for j in range(inst.n)]
    r_ranges = []
    for br, uv in zip(inst.B, inst.u):
        floors = [math.floor(sum(b * zj for b, zj in zip(br, v[inst.n:])) + uv) for v in verts]
        r_ranges.append(range(min(floors), max(floors) + 1))
    cells = [Cell(x, r) for x in itertools.product(*x_ranges)
             for r in itertools.product(*r_ranges)]
    return [cell for cell in cells if is_valid_cell(inst, cell, DEFAULT_CONFIG)]


def ref_lp_min(system, objective):
    """Minimum of objective over the closure, via vertex scan.

    Only valid for bounded systems; returns (value, argmin) or None when no
    vertex is feasible. EQ rows count toward the vertex bases like the rest.
    """
    best = None
    for pt in ref_vertices(system):
        val = sum(c * p for c, p in zip(objective, pt))
        if best is None or val < best[0]:
            best = (val, pt)
    return best


def ref_floor_refinement(inst, cell_list, v_star):
    """The floor-vector refinement of the lex-minimal optimum, by vertex
    scans: the cells it leaves of the valid cells `cell_list`, in lex order
    of (x, r), at the value v_star; None when no cell attains v_star.

    The pool is the first cell whose value slice, its region with
    c . x + e . z = v_star, is strictly feasible, with every later such cell
    of the same x. Row by row, rho_i is the least B_i z + u_i over the
    closures of the pool's slices, and the cells whose r_i is not
    floor(rho_i) leave the pool.
    """
    pool = []
    for cell in cell_list:
        if pool and cell.x != pool[0][0].x:
            break
        shift = sum(a * b for a, b in zip(inst.c, cell.x))
        rows = cells.cell_region(inst, cell).rows + (row_eq(inst.e, v_star - shift),)
        if ref_strictly_feasible(rows):
            pool.append((cell, LinearSystem(inst.d, rows)))
    if not pool:
        return None
    for i, (br, uv) in enumerate(zip(inst.B, inst.u)):
        rho_i = min(ref_lp_min(sliced, br)[0] for _, sliced in pool) + uv
        pool = [(cell, sliced) for cell, sliced in pool if cell.r[i] == math.floor(rho_i)]
    return [cell for cell, _ in pool]


def grid_points(dim, lo, hi):
    return itertools.product(range(lo, hi + 1), repeat=dim)


def brute_integer_points(system, lo, hi):
    """Integer points of the closed system inside the box [lo, hi]^dim, lex order."""
    out = []
    for pt in grid_points(system.dim, lo, hi):
        fp = [Fraction(v) for v in pt]
        if all(row_holds(r, fp, closed=True) for r in system.rows):
            out.append(pt)
    return out


def brute_bilevel_points(inst, box=(-6, 6), z_denoms=(1, 2, 3, 4)):
    """Sampled bilevel-feasible points: integer x, z on a coarse rational grid.

    Every returned (x, z) is genuinely feasible (the follower check is exact);
    the sample is not exhaustive in z, which is fine for one-sided tests.
    """
    lo, hi = box
    out = []
    zs = sorted({Fraction(k, q) for q in z_denoms for k in range(0, hi * q + 1)})
    for ztup in itertools.product(zs, repeat=inst.d):
        for xtup in grid_points(inst.n, lo, hi):
            if _brute_feasible(inst, xtup, list(ztup)):
                out.append((xtup, ztup))
    return out


def _brute_feasible(inst, x, z):
    xz = [Fraction(v) for v in x] + [Fraction(v) for v in z]
    if any(v < 0 for v in xz[inst.n:]):
        return False
    for cr, dr, pv in zip(inst.C, inst.D, inst.p):
        if sum(a * b for a, b in zip(cr, xz[:inst.n])) + \
           sum(a * b for a, b in zip(dr, xz[inst.n:])) > pv:
            return False
    rhs = [sum(a * b for a, b in zip(br, xz[inst.n:])) + uv
           for br, uv in zip(inst.B, inst.u)]
    def fol_ok(xc):
        return all(sum(a * b for a, b in zip(ar, xc)) <= rv
                   for ar, rv in zip(inst.A, rhs))
    if not fol_ok(xz[:inst.n]):
        return False
    mine = sum(a * b for a, b in zip(inst.psi, xz[:inst.n]))
    for cand in grid_points(inst.n, -8, 8):
        fc = [Fraction(v) for v in cand]
        if fol_ok(fc) and sum(a * b for a, b in zip(inst.psi, fc)) < mine:
            return False
    return True


def brute_pure_points(inst, z_hi=4, x_box=5):
    """Every point of the all-integer bilevel feasible set F' inside the grid
    0 <= z_j <= z_hi, |x_j| <= x_box, as (value, x, z) with integer tuples.

    The follower's optimum at each z is taken over the grid's x only, so the
    answer is exact when the grid holds the follower's feasible set at every
    grid z and the whole upper region.
    """
    out = []
    for ztup in itertools.product(range(0, z_hi + 1), repeat=inst.d):
        rhs = [sum(b * zv for b, zv in zip(br, ztup)) + uv
               for br, uv in zip(inst.B, inst.u)]
        responses = [x for x in itertools.product(range(-x_box, x_box + 1), repeat=inst.n)
                     if all(sum(a * xv for a, xv in zip(ar, x)) <= rv
                            for ar, rv in zip(inst.A, rhs))]
        if not responses:
            continue
        best = min(sum(pv * xv for pv, xv in zip(inst.psi, x)) for x in responses)
        for x in responses:
            if sum(pv * xv for pv, xv in zip(inst.psi, x)) != best:
                continue
            if all(sum(cv * xv for cv, xv in zip(cr, x))
                   + sum(dv * zv for dv, zv in zip(dr, ztup)) <= pp
                   for cr, dr, pp in zip(inst.C, inst.D, inst.p)):
                value = (sum(cv * xv for cv, xv in zip(inst.c, x))
                         + sum(ev * zv for ev, zv in zip(inst.e, ztup)))
                out.append((value, x, ztup))
    return out


def simplest_in_interval_scan(lo, hi, qmax):
    """All lowest-terms rationals with denominator <= qmax inside [lo, hi]."""
    found = []
    for q in range(1, qmax + 1):
        p_lo = -(-lo.numerator * q // lo.denominator)  # ceil(lo*q)
        p_hi = hi.numerator * q // hi.denominator      # floor(hi*q)
        for p in range(p_lo, p_hi + 1):
            f = Fraction(p, q)
            if f.denominator == q:
                found.append(f)
    return found
