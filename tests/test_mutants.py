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

The cell layer's faults are judged on the first 40 instances of the mixed
acceptance batch, each solved by solve_mixed: against the LP-free
support.ref_mixed_no_lp, which shares no code with the package, and by
disagreement against reference_oracle, which shares the follower check of
is_valid_cell and so cannot judge a fault there. A mutant that its check
cannot catch is listed in SURVIVORS with the reason, and its test fails
once the check does catch it.
"""
import functools
import math
import random
from fractions import Fraction
from operator import mul

import pytest

import support
from conftest import MIXED_SEED
from bilevel_exact import (EQ, LE, InternalInvariantError, cells, disagreement, linear,
                           random_instance, reference_oracle, solve_mixed)
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


@functools.cache
def small_mixed_batch() -> tuple:
    """The first 40 instances of the mixed acceptance batch."""
    rng = random.Random(MIXED_SEED)
    return tuple(random_instance(rng) for _ in range(40))


def _batch_misses(wrong) -> list:
    """The (kind, index) cases of small_mixed_batch where wrong(inst) holds,
    kind "answer", or raises InternalInvariantError, kind "fatal"."""
    misses = []
    for k, inst in enumerate(small_mixed_batch()):
        try:
            if wrong(inst):
                misses.append(("answer", k))
        except InternalInvariantError:
            misses.append(("fatal", k))
    return misses


def lp_free_scan() -> list:
    """The cases where solve_mixed's status, infimum or x* is not
    support.ref_mixed_no_lp's."""
    def wrong(inst):
        rep = solve_mixed(inst)
        x_star = None if rep.solution is None else tuple(rep.solution[0])
        return (rep.status, rep.infimum, x_star) != support.ref_mixed_no_lp(inst)
    return _batch_misses(wrong)


def oracle_scan() -> list:
    """The cases where disagreement parts solve_mixed from reference_oracle."""
    return _batch_misses(
        lambda inst: disagreement(inst, solve_mixed(inst), reference_oracle(inst)) is not None)


def follower_improves_at_value(real):
    """_follower_improves asking for psi . x' <= value, not value - 1: the
    follower's own x always qualifies, so no cell is valid."""
    return lambda check, r, value: real(check, r, value + 1)


def floor_rhs_rounds_up(real):
    """floor_rhs taking the ceiling of B z + u, not its floor."""
    def floor_rhs(inst, z):
        return tuple(math.ceil(sum(map(mul, br, z)) + uv) for br, uv in zip(inst.B, inst.u))
    return floor_rhs


# name -> (home module, function, fault, the check that must catch it, and
# what the check must catch it in): the line ends reach the LP of linear
# and, imported, the rounding of lattice
MUTANTS = {
    "line-ends-first-upper-bound": (linear, "_line_ends", first_upper_bound, line_scan,
                                    {"LP", "rounding"}),
    "line-ends-upper-end-pulled-in": (linear, "_line_ends", upper_end_pulled_in, line_scan,
                                      {"LP", "rounding"}),
    # every cell invalid: solve_mixed and reference_oracle both answer
    # Infeasible, so only the LP-free reference tells
    "follower-improves-at-value": (cells, "_follower_improves", follower_improves_at_value,
                                   lp_free_scan, {"answer"}),
}

# name -> (home module, function, fault, the check that cannot catch it, and
# why)
SURVIVORS = {
    "floor-rhs-rounds-up": (
        cells, "floor_rhs", floor_rhs_rounds_up, oracle_scan,
        "floor_rhs reaches a solve through bilevel_feasible alone, and disagreement "
        "checks the attained solutions alone. Of the 220 instances of the acceptance "
        "batch, six attained ones (one of the 40, instance 0) have B z* + u off the "
        "integers, and at none of them does the follower do better at the ceiling. "
        "The one point of the 220 that the fault rejects is the eps point of "
        "instance 7, which disagreement does not check. test_floor_rhs_examples "
        "catches the fault directly."),
}


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_mutant_is_caught(name, monkeypatch):
    home, attr, fault, check, where = MUTANTS[name]
    assert check() == []
    support.plant(monkeypatch, home, attr, fault)
    assert {kind for kind, *_ in check()} == where


@pytest.mark.parametrize("name", sorted(SURVIVORS))
def test_survivor_is_not_caught(name, monkeypatch):
    # a survivor that its check starts to catch moves to MUTANTS
    home, attr, fault, check, _ = SURVIVORS[name]
    assert check() == []
    support.plant(monkeypatch, home, attr, fault)
    assert check() == []
