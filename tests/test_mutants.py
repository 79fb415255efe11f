"""Planted faults that the tests must catch: a catalogue of named mutants.

Each mutant replaces one function of the package, in every module that
binds it (support.plant), by a faulty version built from the real one, and
names the check that must catch it. A check returns the cases where the
package answers otherwise than a brute-force reference, or raises
InternalInvariantError, the package's own fatal re-verification; it must
find nothing on the real code and something on the mutant.

The line ends (linear._line_ends, which lattice imports) are shared by the
one-variable LP of RhsFamily and the rounding of a one-variable
IntegerSearch, so the line scan judges both: over a fixed list of bounded
lines and three costs, each LP against the best end of a row that holds,
and each search against the best integer point of [-20, 20] that holds.
"""
from fractions import Fraction

import pytest

import support
from bilevel_exact import EQ, LE, InternalInvariantError, linear
from bilevel_exact.lattice import IntegerSearch
from bilevel_exact.linear import RhsFamily

# (rows, rhs) in one variable, each bounded on both sides
LINES = [
    ([((1,), LE), ((-1,), LE)], [5, 2]),                           # -2 <= x <= 5
    ([((1,), LE), ((2,), LE), ((-3,), LE)], [9, 7, 4]),            # the least upper end second
    ([((3,), LE), ((-3,), LE)], [4, -1]),                          # 1/3 <= x <= 4/3
    ([((2,), EQ), ((1,), LE), ((-1,), LE)], [6, 5, 5]),            # x = 3
    ([((0,), LE), ((1,), LE), ((-2,), LE)], [0, 4, 3]),            # a constant row
    ([((1,), LE), ((-1,), LE)], [1, -2]),                          # empty
    ([((2,), LE), ((-2,), LE)], [1, 1]),                           # no integer point
]
COSTS = [(1,), (-1,), (0,)]


def _holds(rows, rhs, x) -> bool:
    return all(a * x <= b if rel == LE else a * x == b for ((a,), rel), b in zip(rows, rhs))


def line_scan() -> list:
    """The (kind, line, cost) cases where the one-variable LP or the
    rounding misses its brute-force answer; an InternalInvariantError
    counts as a miss."""
    misses = []
    for k, (rows, rhs) in enumerate(LINES):
        ends = [Fraction(b, a) for ((a,), _), b in zip(rows, rhs) if a]
        feasible = [x for x in ends if _holds(rows, rhs, x)]
        points = [x for x in range(-20, 21) if _holds(rows, rhs, x)]
        for cost in COSTS:
            c = cost[0]
            best = min((c * x for x in feasible), default=None)
            try:
                tag, nums, den = RhsFamily(1, rows, cost).solve(rhs)
                ok = tag == "infeasible" if best is None else (
                    tag == "optimal" and Fraction(c * nums[0], den) == best)
            except InternalInvariantError:
                ok = False
            if not ok:
                misses.append(("LP", k, c))
            want = None if not points else ([max(points) if c < 0 else min(points)], 1)
            try:
                ok = IntegerSearch(1, rows, range(1), cost).minimize(rhs) == want
            except InternalInvariantError:
                ok = False
            if not ok:
                misses.append(("rounding", k, c))
    return misses


def first_upper_bound(real):
    """_line_ends taking the first upper bound that a row sets, not the least."""
    def line_ends(rows, rhs):
        lo, _ = real(rows, rhs)
        return lo, next(((b, a) for (a,), b in zip(rows, rhs) if a > 0), None)
    return line_ends


def upper_end_pulled_in(real):
    """_line_ends with the upper end one unit below the least upper bound."""
    def line_ends(rows, rhs):
        lo, hi = real(rows, rhs)
        return lo, None if hi is None else (hi[0] - hi[1], hi[1])
    return line_ends


# name -> (home module, function, fault, the check that must catch it, and
# what the check must catch it in): the line ends reach the LP of linear
# and, imported, the rounding of lattice
MUTANTS = {
    "line-ends-first-upper-bound": (linear, "_line_ends", first_upper_bound, line_scan,
                                    {"LP", "rounding"}),
    "line-ends-upper-end-pulled-in": (linear, "_line_ends", upper_end_pulled_in, line_scan,
                                      {"LP", "rounding"}),
}


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_mutant_is_caught(name, monkeypatch):
    home, attr, fault, check, where = MUTANTS[name]
    assert check() == []
    support.plant(monkeypatch, home, attr, fault)
    assert {kind for kind, *_ in check()} == where
