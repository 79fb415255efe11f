"""Decision oracles over the cell decomposition.

decide_le answers "is there a bilevel-feasible point with objective at most
alpha"; decide_eq asks for exact equality and hands back a witness;
witness_le hands back the witness of decide_le; decide_le_pure is the
all-integer variant.

A decide_le query is one floor walk of cells.valid_cells restricted to value
<= alpha that stops at its first cell: it builds no cell index, no scan and
no region. The lex-ordered queries (decide_eq, witness_le) are each one pass
of DecisionScan.hits, the only loop over the indexed cells here. On one cell
the objective is affine in z over a half-open region Q, and the thresholds
alpha for which Q has a point of value <= alpha form a ray, [low, inf) or
(low, inf), where low is the LP minimum of the objective over the closure of
Q. The index build solves that LP for each cell as it checks the cell. A
scan's items are the entries of the cell index it builds, each with its
cell's shift c . x and low, and a scan answers from them: a threshold below
low skips the cell, a value <= alpha query above low is a hit, and so is a
query at low when the LP vertex at low lies in Q (low_inside), all without
an LP. When that LP proved its vertex the only optimum and the vertex lies
outside Q, a query at low skips the cell too. Only the other queries at low,
and equality queries above it, run a strict-feasibility check; so does a
witness request, to produce the point. A check poses Q as integer rows and
right-hand sides, as the floor walk does: no query builds a region.

The all-integer variant's one loop is pure_responses, the table of the best
leader response at each integer z: decide_le_pure is one pass of it, and the
pure driver lists it once per solve and takes its least entry.
"""
from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import Optional

from .cells import Instance, cell_index, valid_cells, _region_rhs, _region_rows
from .errors import InternalInvariantError
from .lattice import IntegerSearch, LexMin, integer_candidates
from .linear import EQ, LE, StrictFamily, row_le
from .rational import QVector, as_rat


class DecisionScan:
    """Reusable threshold oracle for one instance across many queries.

    Its items are the entries of the cell index it builds, and it is the
    only holder of that index: each valid cell, in lex order of (x, r), with
    `shift` = c . x (the leader's objective on the cell is shift + e . z),
    `low`, the LP minimum of e . z over the closure cl(Q) of its region Q,
    `low_inside`, whether the optimal vertex that the index build's LP
    reached lies in Q, and `vertex`, that vertex when the LP proved it the
    only optimum. The LP is warm-started, so on a tied optimum the vertex
    is some optimal one, not a fixed one. With `vertex` set the optimum is
    not tied: the slice of cl(Q) at `low` is that vertex alone, so
    `low_inside` says exactly whether Q reaches `low`. Without it,
    `low_inside` False leaves open whether another point of that slice lies
    in Q, and a query at `low` takes a strict-feasibility check. Either
    way the flag changes how many queries need a check, never an answer.
    The items hold no region: a query poses Q as integer rows and
    right-hand sides (see hits).

    Why `low` answers most queries exactly: Q has a point, so the closed
    system cl(Q), its strict rows relaxed, is the closure of Q, and Q is
    dense in it. For y in cl(Q) and q in Q, the points y + t (q - y) with
    0 < t <= 1 meet the closed rows, meet every strict row strictly, and
    tend to y as t -> 0. Taking y where the objective attains `low`, Q meets
    {value <= alpha} for every alpha > low; as Q lies in cl(Q), it misses
    {value <= alpha}, and so {value = alpha}, for every alpha < low. At
    alpha = low, a vertex of Q at `low` (`low_inside`) answers both queries
    yes, and a unique optimal vertex outside Q answers both no, as Q lies
    in cl(Q). The other queries at `low`, and equality queries above it
    (does Q reach that value?), need a strict-feasibility check of the
    region with the value row.
    """

    def __init__(self, inst: Instance):
        self.inst = inst
        self.items = cell_index(inst).entries

    def hits(self, rel, alpha, witness: bool = True):
        """Items whose region meets value <= alpha (rel LE) or value = alpha
        (rel EQ), in lex order: (item, strictly feasible z, (rows, rhs)),
        Q with the value row as _region_rows plus (q e, rel), q the
        denominator of alpha and so of each target alpha - shift, at
        _region_rhs plus q target. A cell costs no LP when alpha lies below
        its least value shift + low, nor at that value when its unique
        vertex lies outside Q: both are skipped. Nor does it when the cell
        surely meets the row, a value <= alpha query above that value or a
        query at it with `low_inside`: a hit, whose z is None unless
        `witness` asks for it. Any other check is one cold StrictFamily
        solve, which checks its point again against every row.
        """
        alpha = as_rat(alpha)
        inst, q = self.inst, alpha.denominator
        rows = _region_rows(inst) + [(tuple(q * v for v in inst.e), rel)]
        for it in self.items:
            target = alpha - it.shift
            if target < it.low:
                continue
            at_low = target == it.low
            if at_low and it.vertex is not None and not it.low_inside:
                continue
            rhs = _region_rhs(inst, it.cell.x, it.cell.r) + [target.numerator]
            sure = it.low_inside if at_low else rel == LE
            if sure and not witness:
                yield it, None, (rows, rhs)
                continue
            found = StrictFamily(inst.d, rows).point(rhs)
            if found is not None:
                yield it, QVector([Fraction(v, found[1]) for v in found[0]]), (rows, rhs)
            elif sure:
                raise InternalInvariantError("cell with a point on the value row has no witness")


def _scan_for(inst, scan) -> DecisionScan:
    """`scan`, which must be inst's (else ValueError), or a new one if None."""
    if scan is not None and scan.inst is not inst and scan.inst != inst:
        raise ValueError("the scan was built for another instance")
    return DecisionScan(inst) if scan is None else scan


def _first_hit(inst, rel, alpha, scan) -> Optional[tuple]:
    hit = next(_scan_for(inst, scan).hits(rel, alpha), None)
    return None if hit is None else (hit[0].cell.x, hit[1])


def decide_le(inst: Instance, alpha) -> bool:
    """True iff some bilevel-feasible point has value <= alpha.

    One floor walk restricted to value <= alpha answers the query and stops
    at its first cell; it builds no cell index. Repeated lex-ordered
    queries (decide_eq, witness_le) take a DecisionScan built from the same
    inst, and build one when none is passed.
    """
    return next(valid_cells(inst, as_rat(alpha)), None) is not None


def decide_eq(inst: Instance, value, scan: Optional[DecisionScan] = None) -> Optional[tuple]:
    """A bilevel-feasible point with objective exactly `value`, or None.

    The first cell in lex order whose value slice is strictly realizable
    supplies the witness (x, z).
    """
    return _first_hit(inst, EQ, value, scan)


def witness_le(inst: Instance, alpha, scan: Optional[DecisionScan] = None) -> Optional[tuple]:
    """Like decide_le but returns the witness (x, z) from the lex-least cell."""
    return _first_hit(inst, LE, alpha, scan)


# ---------------------------------------------------------------------------
# pure variant


def pure_responses(inst: Instance, alpha=None):
    """The all-integer variant's response table, one entry per leader z.

    Lists the integer z of the closed joint relaxation (the instance's upper
    and relaxation rows, and value <= alpha when alpha is given, in the
    integer form of row_le) in lex order, one integer_candidates walk
    over the coordinates range(n, n + d). At each z it solves the
    follower, fixes the upper rows at z, and minimizes the leader's
    objective over the follower's argmin under them; when that
    set has a point it yields (value, x, z) with x its lex-least minimizer
    and x and z as tuples of ints. Every bilevel-feasible point of value v
    at a listed z has an entry of value <= v at that z.

    Only right-hand sides move with z, so one search per solve serves every
    z: the follower's IntegerSearch (rows A, cost psi, at r = B z + u, its
    own floor at an integer z, searched once per distinct r) and the
    leader's LexMin (rows A, psi as "=" and C, cost c, at B z + u, the
    follower's optimum and p - D z). When n = 1 and psi != 0, psi . x at
    the follower's optimum leaves one integer x, the follower's point, so
    no LexMin is built: that point is the response when it meets
    C x <= p - D z. The rows z >= 0 hold at every listed z and are left
    out.
    """
    n = inst.n
    joint = inst.upper[0] + inst.relax[0]
    joint_rhs = inst.upper[1] + inst.relax[1]
    if alpha is not None:
        value, b = row_le(inst.c + inst.e, alpha)
        joint, joint_rhs = joint + (value,), joint_rhs + (b,)
    follower_rows = [(a, LE) for a in inst.A]
    follower = IntegerSearch(n, follower_rows, range(n), inst.psi)
    leader = None if n == 1 and any(inst.psi) else LexMin(
        n, follower_rows + [(inst.psi, EQ)] + [(cr, LE) for cr in inst.C], inst.c)
    budget = [0]
    optima = {}  # r -> the follower's search at r, which reads nothing else
    for z_ints in integer_candidates(joint, joint_rhs, inst.joint_dim(),
                                     range(n, inst.joint_dim()), budget):
        r = tuple(sum(map(mul, br, z_ints)) + uv for br, uv in zip(inst.B, inst.u))
        if r not in optima:
            optima[r] = follower.minimize(list(r))
        found = optima[r]
        if found is None:
            continue
        nums, den = found
        upper = [pv - sum(map(mul, dr, z_ints)) for dr, pv in zip(inst.D, inst.p)]
        if leader is None:  # the follower's point is the one candidate
            x = [v // den for v in nums]  # an integer point: exact
            if any(sum(map(mul, cr, x)) > pv for cr, pv in zip(inst.C, upper)):
                continue
            lopt = sum(map(mul, inst.c, x))
        else:
            fopt = sum(map(mul, inst.psi, nums)) // den  # an integer point: exact
            best = leader.solve(list(r) + [fopt] + upper)
            if best is None:
                continue
            lopt, x = best
        yield lopt + sum(map(mul, inst.e, z_ints)), tuple(x), z_ints


def decide_le_pure(inst: Instance, alpha) -> bool:
    """All-integer variant: leader z is integral too.

    One pass of pure_responses with value <= alpha added to the relaxation,
    stopping at the first entry of value <= alpha.
    """
    alpha = as_rat(alpha)
    return any(v <= alpha for v, _, _ in pure_responses(inst, alpha))
