"""One follower variable: the mixed problem by blocking-row pieces.

With n = 1 the follower's optimum has a closed form in its floors r. Let
s = sign(psi). When s != 0, an integer x with A x <= r is the follower's
optimum exactly when x - s is not feasible, that is when some blocking row
i, a row with -s A_i > 0, has A_i (x - s) > r_i. Take the blocking rows in
order: piece k says that the k-th of them blocks x - s and that no earlier
one does. For an integer a, a <= floor(y) exactly when a <= y, and
a > floor(y) exactly when a > y, so over (x, z) piece k is one half-open
polyhedron: the upper rows, B_i z + u_i >= A_i x for every row i (that is
A x <= r), B_j z + u_j >= A_j (x - s) for each earlier blocking row j, and
one strict row, B_i z + u_i < A_i (x - s) at its own blocking row i. When
psi = 0 every feasible x is optimal: there is one piece, with no strict
row. The pieces are disjoint, cover every bilevel-feasible point and number
at most m, whatever the size of the box (Eisenbrand & Shmonin, Math. Oper.
Res. 2008, give such pieces for any fixed number of follower variables).

At a fixed x a piece is posed over z as a cell is, by the rows of
cells._region_rows: row i's pair bounds B_i z + u_i below, closed, and
above, strictly. A piece sets the lower bound at A_i x + lift_i and the
upper one at A_i x + gap on its blocking row; every other upper row sits at
a right-hand side far enough out to cut nothing, as the unbranched bound
rows of lattice.IntegerSearch do (linear._vertex_bound). So a piece at an
x is a right-hand side, and one family of each kind serves every piece and
every x of a solve: the span of x over a piece's closure in (x, z);
`closure`, the least e . z over the closure at x, whose value
F(x) = c x + min e . z is convex in x, the value of a minimizing LP being
convex in its right-hand side; and the strict check at x, a StrictFamily
built on the first check that a solve needs. Both families over z carry
one more row, the value row e . z <= alpha - c x, far out unless a value
is asked about. Its right-hand side is rational, so a value's rows are
posed over z' = q z, q the value's denominator: every right-hand side is
then an integer, q b for each row and q alpha - q c x for the value row.
The floor-vector refinement cuts a piece's slice further by the slabs
r_j <= B_j z + u_j < r_j + 1 of the floors already chosen, on the same
rows.

A nonempty piece is dense in its closure, so it holds every integer
strictly inside the x range of its closure; only an integer end can miss
the strict row. The same holds for a piece's points of value at most
alpha, whose x form an interval too.
"""
from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import NamedTuple, Optional

from .cells import Instance, floor_rhs, _region_rows
from .errors import InternalInvariantError
from .linear import LE, RhsFamily, StrictFamily, rows_hold, _unit, _vertex_bound


class Piece(NamedTuple):
    """Over (x, z): B_i z + u_i >= A_i x + lift[i] for every row i and, at
    the blocking row `row` (None when psi = 0), B_row z + u_row < A_row x + gap."""

    lift: tuple
    row: Optional[int]
    gap: int


def blocking_pieces(inst: Instance) -> list:
    """The pieces of an instance with n = 1, one per blocking row in row
    order, or the one piece with no strict row when psi = 0."""
    s = (inst.psi[0] > 0) - (inst.psi[0] < 0)
    if not s:
        return [Piece((0,) * inst.m, None, 0)]
    pieces, lift = [], [0] * inst.m
    for i, (a,) in enumerate(inst.A):
        if -s * a > 0:  # row i blocks x - s when A_i (x - s) > r_i
            pieces.append(Piece(tuple(lift), i, -s * a))
            lift[i] = -s * a
    return pieces


class PieceSearch:
    """The mixed problem of an instance with n = 1, solved over its pieces.

    `ranges` lists the pieces that hold an integer x, each as (piece, a, b)
    with a..b its integer x, and `minima` the least F over each one, at
    `argmin`, its least minimizer. The range of a piece is one span of its
    closure and, when the piece has a strict row, a check (_has_point) of
    its least integer and, when that misses, of the next one, which is
    inside the range, so that a miss there too leaves no integer x; and a
    check of its greatest integer when that is an end of the range. F is
    convex, so a binary search on F(x + 1) - F(x) finds each minimum with
    O(log K) LPs. Each F(x) is solved once and kept with its vertex and
    whether the LP proved that vertex its only optimum (RhsFamily.unique).
    """

    def __init__(self, inst: Instance):
        self.inst = inst
        d = inst.d
        self.rows = _region_rows(inst) + [(inst.e, LE)]
        self.closure = RhsFamily(d, [(a, LE) for a, _ in self.rows], inst.e)
        self._strict = None  # the strict family, built on the first check
        upper, upper_rhs = inst.upper
        bound = _vertex_bound([sum(map(abs, a)) for a, _ in upper], upper_rhs, inst.joint_dim())
        norms = [abs(a) + sum(map(abs, br)) for (a,), br in zip(inst.A, inst.B)]
        self.far = max(norms + [sum(map(abs, inst.e))]) * bound + 1
        relax = inst.relax[0]
        span = RhsFamily(1 + d, list(upper) + list(relax)
                         + [(tuple(-v for v in a), LE) for a, _ in relax], _unit(1 + d, 0))
        self.ranges, self.minima, self.argmin = [], [], []
        self._lows = {}  # (piece.row, x) -> _low(piece, x)
        for piece in blocking_pieces(inst):
            rhs = list(upper_rhs) + [uv - lift for uv, lift in zip(inst.u, piece.lift)]
            rhs += [piece.gap - uv if i == piece.row else self.far for i, uv in enumerate(inst.u)]
            ends = self._integer_range(piece, span.span(rhs))
            if ends is None:
                continue
            lo, hi = ends
            while lo < hi:  # the least x with F(x + 1) >= F(x)
                mid = (lo + hi) // 2
                if self._low(piece, mid + 1)[0] >= self._low(piece, mid)[0]:
                    hi = mid
                else:
                    lo = mid + 1
            self.ranges.append((piece,) + ends)
            self.argmin.append(lo)
            self.minima.append(self._low(piece, lo)[0])

    def _integer_range(self, piece, ends) -> Optional[tuple]:
        """(a, b): the integer x of the piece, given the x range `ends` of
        its closure (RhsFamily.span), or None when it holds none."""
        if ends is None:
            return None
        (lo, lo_den), (hi, hi_den) = ends
        a, b = -(-lo // lo_den), hi // hi_den
        if a > b or piece.row is None:  # with no strict row the piece is its closure
            return None if a > b else (a, b)
        if not self._has_point(piece, a, None):
            a += 1
            if a > b or not self._has_point(piece, a, None):
                return None
        if b > a and b * hi_den == hi and not self._has_point(piece, b, None):
            b -= 1
        return a, b

    def _rhs(self, piece, x, value, floors) -> list:
        """The right-hand sides of `rows` for the piece at x, with the value
        row at `value` (far out when None) and the slabs of the floors
        `floors` of the first rows, over z' = q z, q the value's denominator
        (1 when None)."""
        inst = self.inst
        q = 1 if value is None else value.denominator
        far = q * self.far
        rhs = [q * (pv - cr * x) for (cr,), pv in zip(inst.C, inst.p)]
        rhs += [0] * inst.d
        for i, ((a,), uv, lift) in enumerate(zip(inst.A, inst.u, piece.lift)):
            lo = a * x + lift
            hi = a * x + piece.gap if i == piece.row else None
            if i < len(floors):
                ri = floors[i]
                lo = max(lo, ri)
                hi = ri + 1 if hi is None else min(hi, ri + 1)
            rhs += [q * (uv - lo), far if hi is None else q * (hi - uv)]
        rhs.append(far if value is None else value.numerator - q * inst.c[0] * x)
        return rhs

    def _low(self, piece, x) -> tuple:
        """(F(x), nums, den, unique, rhs) of the piece at an x of its
        closure's range: the closure LP's value and vertex, whether it is the
        only optimum, and the right-hand sides it was solved at, once per
        (piece, x)."""
        key = piece.row, x
        if key not in self._lows:
            inst = self.inst
            rhs = self._rhs(piece, x, None, ())
            tag, nums, den = self.closure.solve(rhs)
            if tag != "optimal":
                raise InternalInvariantError("a piece's closure LP failed inside its range")
            value = Fraction(sum(map(mul, inst.e, nums)) + inst.c[0] * x * den, den)
            self._lows[key] = (value, nums, den, self.closure.unique(), rhs)
        return self._lows[key]

    def _has_point(self, piece, x, value) -> bool:
        """Whether the piece has a point at an x of its closure's range, of
        value <= `value` when it is not None, F(x) <= value then: surely
        when F(x) < value, as the piece is dense in its closure, and when
        the closure LP's vertex lies in the half-open piece; else by a
        strict check."""
        low, nums, den, _, rhs = self._low(piece, x)
        if value is not None and low < value:
            return True
        if rows_hold(self.rows, rhs, nums, den):
            return True
        if self._strict is None:
            self._strict = StrictFamily(self.inst.d, self.rows)
        return self._strict.point(self._rhs(piece, x, value, ())) is not None

    def _least_reach(self, k, value) -> Optional[int]:
        """The least x at which the k-th piece of `ranges` has a point of
        value <= `value`, or None. Those x are the integers of an interval,
        whose ends alone may miss, inside the x with F(x) <= value: a binary
        search finds the least of these, and at most it and the next one are
        checked."""
        if self.minima[k] > value:
            return None
        piece, _, b = self.ranges[k]
        hi = self.argmin[k]
        lo = self.ranges[k][1] if self.minima[k] < value else hi
        while lo < hi:  # F decreases up to its least minimizer
            mid = (lo + hi) // 2
            if self._low(piece, mid)[0] <= value:
                hi = mid
            else:
                lo = mid + 1
        if self._has_point(piece, lo, value):
            return lo
        if lo < b and self._low(piece, lo + 1)[0] <= value and self._has_point(piece, lo + 1, value):
            return lo + 1
        return None

    def cell(self, value) -> Optional[tuple]:
        """(x, r, vertex): the lex-least cell (x, r) with a point of value
        <= `value`, or None when no piece has one. x is the least x at which
        some piece has such a point. When only one piece has one there, and
        its closure LP proved its vertex the only optimum at F(x) = value,
        that vertex, as (nums, den), is the only point of the slice's
        closure, so r is its floor vector. Otherwise the floor-vector
        refinement runs over the slices of the pieces that reach the value
        at x (see _floors), and vertex is None."""
        found = {}
        for k in range(len(self.ranges)):
            x = self._least_reach(k, value)
            if x is not None:
                found.setdefault(x, []).append(k)
        if not found:
            return None
        x = min(found)
        pool = found[x]
        if len(pool) == 1:
            low, nums, den, unique, _ = self._low(self.ranges[pool[0]][0], x)
            if unique and low == value:
                return (x,), floor_rhs(self.inst, [Fraction(v, den) for v in nums]), (nums, den)
        return (x,), self._floors(x, pool, value), None

    def _floors(self, x, pool, value) -> tuple:
        """The floor vector of the lex-least cell at x with a point of value
        <= `value`, among the slices of the pieces `pool`, each nonempty.

        Row by row, r_i is the least floor of min B_i z + u_i over the
        closures of the slices still kept, one LP each, and a slice is kept
        when its floor is r_i. A kept slice stays nonempty once cut to the
        slab r_i <= B_i z + u_i < r_i + 1: it is dense in its closure, which
        reaches a value of B_i z + u_i in [r_i, r_i + 1). A cell lies in one
        piece, so one slice is left at the end.
        """
        inst = self.inst
        q = value.denominator
        floors = []
        for br, uv in zip(inst.B, inst.u):
            if not any(br):
                floors.append(uv)
                continue
            family = self.closure.with_cost(br)
            least, kept = None, []
            for k in pool:
                tag, nums, den = family.solve(self._rhs(self.ranges[k][0], x, value, floors))
                if tag != "optimal":
                    raise InternalInvariantError("a slice of a piece lost its closure")
                ri = (sum(map(mul, br, nums)) + uv * q * den) // (q * den)
                if least is None or ri < least:
                    least, kept = ri, [k]
                elif ri == least:
                    kept.append(k)
            floors.append(least)
            pool = kept
        if len(pool) != 1:
            raise InternalInvariantError("two pieces share a cell")
        return tuple(floors)
