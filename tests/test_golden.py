"""Golden outputs of the two acceptance batches and the mixed-grid workload.

tests/golden/acceptance.json pins status, infimum, x* and z* of every solve
in conftest's session batches (mixed at MIXED_SEED, pure at PURE_SEED), so a
refactor that claims the same behaviour is checked against recorded answers.
tests/golden/mixed_grid.json pins the same fields plus the eps point for the
125 mixed-grid benchmark instances at seed 7, built by perfbench's own
generator and solved with eps 1/8; the cold decide_le answers on those
instances are checked against it too. Telemetry is left out: query counts
may change while answers may not. Both drivers are checked on both
batches and on 25 of those instances against the references of support.py
that use no LP and no search. The same instances also check each
cell-index entry against references that share no LP or lattice code, and
each lex trace against the floor-vector refinement run by vertex scans, and
cap the LP count (lp_solve calls and right-hand-side family solves) and
the LP kernel's basis exchanges of 25 solves, and the family solves of 25
cold decision queries. The kernel's LPs and basis exchanges of 25
pure-small benchmark solves are capped too, and so are the leader searches
those solves build, the rows and kernel forms that 25 solves of each kind
build, and the rows that parsing 25 files of each kind and one cold
decision query on each build; no solve or decision query may reach the
one-shot layer's boundedness check. The first 300 pure-small
benchmark instances are checked against the reference oracle.

Regenerate (only when a change of answers is intended and explained):

    PYTHONPATH=src python tests/test_golden.py
"""
import json
import os
import random
import sys
from fractions import Fraction

from conftest import MIXED_SEED, PURE_SEED

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
GOLDEN_PATH = os.path.join(GOLDEN_DIR, "acceptance.json")
GRID_PATH = os.path.join(GOLDEN_DIR, "mixed_grid.json")
BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
GRID_SEED = 7
GRID_COUNT = 125
GRID_EPS = Fraction(1, 8)


def report_record(rep) -> dict:
    record = {"status": rep.status,
              "infimum": None if rep.infimum is None else str(rep.infimum)}
    if rep.solution is not None:
        x, z = rep.solution
        record["x"] = list(x)
        record["z"] = [str(v) for v in z.entries]
    if rep.eps_solution is not None:
        es = rep.eps_solution
        record["eps_point"] = {"x": list(es.x), "z": [str(v) for v in es.z.entries],
                               "value": str(es.value), "eps": str(es.eps)}
    return record


def batch_records(mixed_rows, pure_rows) -> dict:
    return {
        "mixed": {"seed": MIXED_SEED, "reports": [report_record(rep) for _, rep, _ in mixed_rows]},
        "pure": {"seed": PURE_SEED, "reports": [report_record(rep) for _, rep, _ in pure_rows]},
    }


def grid_documents() -> list:
    """The mixed-grid instance files, drawn as the benchmark draws them:
    grid_instance at GRID_SEED over the workload's shapes, round-robin."""
    if BENCH not in sys.path:
        sys.path.insert(0, BENCH)
    import gen
    import workloads
    rng = random.Random(GRID_SEED)
    shapes = workloads.GRID_SHAPES
    return [gen.to_json(gen.grid_instance(rng, f"mixed-grid-{GRID_SEED}-{i}",
                                          shapes[i % len(shapes)], "mixed"))
            for i in range(GRID_COUNT)]


def grid_instances() -> list:
    """The mixed-grid instances, parsed from grid_documents."""
    from bilevel_exact import parse_instance
    return [parse_instance(doc)[0] for doc in grid_documents()]


def grid_records() -> list:
    from bilevel_exact import solve_mixed
    return [report_record(solve_mixed(inst, eps=GRID_EPS)) for inst in grid_instances()]


def test_acceptance_batches_match_golden(mixed_batch, pure_batch):
    with open(GOLDEN_PATH) as fh:
        golden = json.load(fh)
    got = batch_records(mixed_batch[0], pure_batch[0])
    for variant in ("mixed", "pure"):
        assert got[variant]["seed"] == golden[variant]["seed"]
        want = golden[variant]["reports"]
        have = got[variant]["reports"]
        assert len(have) == len(want)
        for i, (h, w) in enumerate(zip(have, want)):
            assert h == w, f"{variant} instance {i}: {h} != {w}"


def test_mixed_grid_matches_golden():
    with open(GRID_PATH) as fh:
        golden = json.load(fh)
    assert (golden["seed"], golden["eps"]) == (GRID_SEED, str(GRID_EPS))
    want = golden["reports"]
    have = grid_records()
    assert len(have) == len(want)
    for i, (h, w) in enumerate(zip(have, want)):
        assert h == w, f"mixed-grid instance {i}: {h} != {w}"


def test_mixed_grid_cold_decide_matches_golden():
    # each cold query runs its own floor walk on an instance whose cell index
    # is never built: false 1/8 below the golden infimum, true 1/8 above it,
    # true at it exactly when it is attained, and false at a large threshold
    # when the instance is infeasible
    from bilevel_exact import decide_le
    from support import no_index_build
    gap = Fraction(1, 8)
    with open(GRID_PATH) as fh:
        want = json.load(fh)["reports"]
    insts = grid_instances()
    assert len(insts) == len(want)
    for i, (inst, w) in enumerate(zip(insts, want)):
        if w["infimum"] is None:
            expected = {Fraction(10**6): False}
        else:
            v_star = Fraction(w["infimum"])
            expected = {v_star - gap: False, v_star: w["status"] == "Attained",
                        v_star + gap: True}
        with no_index_build():
            for alpha, answer in expected.items():
                assert decide_le(inst, alpha) == answer, f"mixed-grid instance {i} at {alpha}"


def test_both_drivers_match_the_reference_that_uses_no_lp(mixed_batch, pure_batch):
    # both drivers on both acceptance batches and on the first 25 mixed-grid
    # instances give the status, infimum and x* (pure: (x*, z*)) of
    # ref_mixed_no_lp and ref_pure_no_lp, which find vertices by bases of
    # rows and integer points by box scans, and read nothing of the package
    # but the instance's data fields
    import support
    from bilevel_exact import solve_mixed, solve_pure
    runs = [(inst, rep, solve_pure(inst)) for inst, rep, _ in mixed_batch[0]]
    runs += [(inst, solve_mixed(inst), rep) for inst, rep, _ in pure_batch[0]]
    runs += [(inst, solve_mixed(inst), solve_pure(inst)) for inst in grid_instances()[:25]]
    record = support.reference_record
    statuses = []
    for i, (inst, mixed, pure) in enumerate(runs):
        assert record(mixed) == support.ref_mixed_no_lp(inst), f"mixed run {i}"
        assert record(pure, pure=True) == support.ref_pure_no_lp(inst), f"pure run {i}"
        statuses += [mixed.status, pure.status]
    assert len(runs) == 465 and set(statuses) == {"Attained", "Unattained", "Infeasible"}


def test_index_entries_match_independent_references(example1):
    # each entry's low is the vertex-scan minimum of e . z over its region's
    # closure; low_inside promises a point of the region at that value; a
    # stored vertex is the closure's only vertex at low, so the only
    # optimum of the bounded closure; and the cell's x is follower-optimal
    # at r among the integer points of the follower's box: references that
    # share no LP or lattice code
    import math
    import support
    from bilevel_exact import LE, LinearSystem, row_eq
    from bilevel_exact.cells import cell_index, cell_region
    checked = inside = unique = 0
    for inst in [example1] + grid_instances():
        for entry in cell_index(inst).entries:
            cell = entry.cell
            region = cell_region(inst, cell)
            assert entry.low == support.ref_lp_min(region, inst.e)[0], cell
            if entry.vertex is not None:
                nums, den = entry.vertex
                optimal = [v for v in support.ref_vertices(region)
                           if sum(a * b for a, b in zip(inst.e, v)) == entry.low]
                assert optimal == [[Fraction(v, den) for v in nums]], cell
                unique += 1
            if entry.low_inside:
                rows = support.pairs(region) + [row_eq(inst.e, entry.low)]
                assert support.ref_strictly_feasible(rows), cell
                inside += 1
            follower = LinearSystem(inst.n, [((ar, LE), rv) for ar, rv in zip(inst.A, cell.r)])
            coords = [v for p in support.ref_vertices(follower) for v in p]
            points = support.brute_integer_points(follower, math.floor(min(coords)),
                                                  math.ceil(max(coords)))
            value = {p: sum(a * b for a, b in zip(inst.psi, p)) for p in points}
            assert cell.x in value and value[cell.x] == min(value.values()), cell
            checked += 1
    assert checked > 700 and 0 < inside < checked and 0 < unique < checked


def test_lex_cell_is_the_floor_refinement_survivor(mixed_batch):
    # on every attained solve of the mixed batch and the mixed-grid instances,
    # the lex trace's (x*, r) is the one cell left by the floor-vector
    # refinement, run by vertex scans over the cells of the definition, and
    # each rho_i is the vertex-scan minimum of B_i z + u_i over cl(Q)
    import support
    from bilevel_exact import ATTAINED, Cell, solve_mixed
    solved = [(inst, rep) for inst, rep, _ in mixed_batch[0]]
    solved += [(inst, solve_mixed(inst, eps=GRID_EPS)) for inst in grid_instances()]
    checked = 0
    for inst, rep in solved:
        if rep.status != ATTAINED:
            continue
        trace = rep.lex_trace
        survivors = support.ref_floor_refinement(
            inst, support.valid_cells_by_definition(inst), rep.infimum)
        assert survivors == [Cell(trace.x_star, trace.r)]
        assert list(trace.rho) == [support.ref_lp_min(trace.q_system, br)[0] + uv
                                   for br, uv in zip(inst.B, inst.u)]
        checked += 1
    assert checked > 150


def test_mixed_grid_lp_count():
    # a deterministic count of the LPs of 25 mixed-grid solves: the lp_solve
    # calls, in every module that binds lp_solve, and the RhsFamily solves
    # made outside one (the floor walk's and the strict checks'); it was
    # 1310 before the index build began to certify cells from the closure
    # LP's vertex, 991 before the lex cell was read off the scan's first
    # hit, 977 before the candidate x were listed over the joint
    # relaxation with the kernel's cold start on the tightest unit rows and
    # the mixed-feasibility screen moved into the walk for n > 1, 907
    # before the lex trace's rho was left to its first read, and 882 before
    # the lex scan and extraction read a unique optimum off the index's
    # closure LP, and 850 before a one-variable integer search rounded its
    # interval in place of branch and bound; it may only fall
    import pytest
    from bilevel_exact import cells, decide, engine, lattice, linear, solve_mixed
    insts = grid_instances()[:25]
    solve = linear.lp_solve
    family_solve = linear.RhsFamily.solve
    calls = []
    inside = []

    def counting(*args, **kwargs):
        calls.append(args[0])
        inside.append(True)
        try:
            return solve(*args, **kwargs)
        finally:
            inside.pop()

    def counting_family(family, rhs):
        if not inside:
            calls.append(family)
        return family_solve(family, rhs)

    with pytest.MonkeyPatch.context() as mp:
        for module in (linear, cells, decide, engine, lattice):
            if hasattr(module, "lp_solve"):
                mp.setattr(module, "lp_solve", counting)
        mp.setattr(linear.RhsFamily, "solve", counting_family)
        for inst in insts:
            solve_mixed(inst, eps=GRID_EPS)
    assert len(calls) <= 701


def test_cold_decide_lp_count():
    # a deterministic count of the LPs of 25 cold decision queries, the
    # RhsFamily solves of decide_le at the golden v* + 1/8 (10**6 when
    # infeasible) on the first 25 mixed-grid instances, parsed beforehand;
    # it was 331 before each floor-walk level read its floors lazily, least
    # first, so that a walk stopping at its first cell solved no upper end
    # it did not reach, and 289 before a one-variable integer search
    # rounded its interval in place of branch and bound; it may only fall
    import pytest
    from bilevel_exact import decide_le, linear
    with open(GRID_PATH) as fh:
        infima = [w["infimum"] for w in json.load(fh)["reports"][:25]]
    alphas = [Fraction(10**6) if v is None else Fraction(v) + GRID_EPS for v in infima]
    insts = grid_instances()[:25]
    family_solve = linear.RhsFamily.solve
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linear.RhsFamily, "solve",
                   lambda family, rhs: calls.append(family) or family_solve(family, rhs))
        answers = [decide_le(inst, alpha) for inst, alpha in zip(insts, alphas)]
    assert all(answers)
    assert len(calls) <= 267


def test_mixed_grid_basis_exchanges():
    # a deterministic count of the exact LP kernel's work in the same 25
    # mixed-grid solves: its basis exchanges, as each
    # linear._dual_simplex_min call reports them. The
    # two-phase tableau it replaced made 2519 pivots there, the cold-started
    # dual simplex 833, the warm-started one 592 before the lex cell was
    # read off the scan's first hit and 566 before the cold start took the
    # tightest unit rows, the candidate x the joint relaxation and the
    # mixed-feasibility screen moved into the walk for n > 1, 524 before
    # each branch-and-bound became one warm family whose branches move bound
    # rows, 503 before the lex trace's rho was left to its first read, and
    # 493 before the lex scan and extraction read a unique optimum off the
    # index's closure LP; it may only fall
    import support
    from bilevel_exact import solve_mixed
    with support.kernel_exchanges() as reported:
        for inst in grid_instances()[:25]:
            solve_mixed(inst, eps=GRID_EPS)
    assert sum(reported) <= 422


def pure_small_documents(count: int) -> list:
    """The first `count` pure-small benchmark instance files, drawn as the
    benchmark draws them: grid_instance at the workload's seed in its one
    shape."""
    if BENCH not in sys.path:
        sys.path.insert(0, BENCH)
    import gen
    import workloads
    seed = workloads.WORKLOADS["pure-small"].seed
    rng = random.Random(seed)
    return [gen.to_json(gen.grid_instance(rng, f"pure-small-{seed}-{i}", workloads.PURE_SHAPE,
                                          "pure"))
            for i in range(count)]


def pure_small_instances(count: int) -> list:
    """The first `count` pure-small benchmark instances, parsed from
    pure_small_documents."""
    from bilevel_exact import parse_instance
    return [parse_instance(doc)[0] for doc in pure_small_documents(count)]


def test_pure_small_solves_match_the_reference_oracle():
    # the benchmark's pure traffic checked against the cell-by-definition
    # oracle, not only by definition: status, infimum and (x*, z*) of the
    # first 300 pure-small solves
    from bilevel_exact import disagreement, reference_oracle, solve_pure
    for inst in pure_small_instances(300):
        assert disagreement(inst, solve_pure(inst), reference_oracle(inst, "pure"),
                            variant="pure") is None


def test_pure_small_kernel_work():
    # a deterministic count of the exact LP kernel's work in 25 pure-small
    # solves: its LPs (linear._dual_simplex_min and linear._interval_solve
    # calls) and the basis exchanges that the former report; 264 and 12
    # when first measured, 264 LPs before the lex-least response stopped
    # searching the coordinates that its "=" rows pin, 198 before a
    # response that the "=" rows alone pin was solved without a search, and
    # 134 before a one-variable integer search rounded its interval in
    # place of branch and bound; they may only fall
    import pytest
    import support
    from bilevel_exact import linear, solve_pure
    insts = pure_small_instances(25)
    intervals = []
    interval_solve = linear._interval_solve
    with pytest.MonkeyPatch.context() as mp, support.kernel_exchanges() as reported:
        mp.setattr(linear, "_interval_solve",
                   lambda *args: intervals.append(1) or interval_solve(*args))
        for inst in insts:
            solve_pure(inst)
    assert len(reported) + len(intervals) <= 50
    assert sum(reported) <= 12


def test_pure_small_leader_searches():
    # a deterministic count of the leader's LexMin searches that 25
    # pure-small solves build: 25, one per solve, before a response that
    # psi . x at the follower's optimum pins (n = 1, psi != 0) was read off
    # the follower's point; it may only fall
    import pytest
    from bilevel_exact import decide, solve_pure
    insts = pure_small_instances(25)
    built = []
    lex_min = decide.LexMin
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(decide, "LexMin", lambda *args: built.append(1) or lex_min(*args))
        for inst in insts:
            solve_pure(inst)
    assert len(built) <= 1


def test_pure_follower_searches():
    # a deterministic count of the follower's searches (IntegerSearch.minimize
    # calls) in the pure solves of nine seed-7 draws where d > m0, three of
    # each shape; 5243 before the response table searched once per distinct
    # follower right-hand side B z + u; it may only fall
    import pytest
    from bilevel_exact import lattice, parse_instance, solve_pure
    if BENCH not in sys.path:
        sys.path.insert(0, BENCH)
    import gen
    rng = random.Random(7)
    shapes = [(1, 3, 2, 16)] * 3 + [(1, 4, 2, 8)] * 3 + [(2, 3, 2, 8)] * 3
    insts = [parse_instance(gen.to_json(gen.grid_instance(rng, f"pure-{i}", shape, "pure")))[0]
             for i, shape in enumerate(shapes)]
    searches = []
    minimize = lattice.IntegerSearch.minimize
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lattice.IntegerSearch, "minimize",
                   lambda search, *args: searches.append(1) or minimize(search, *args))
        for inst in insts:
            solve_pure(inst)
    assert len(searches) <= 785


def test_mixed_solve_path_reaches_no_one_shot_layer(mixed_batch):
    # once its instance is built, a mixed solve with eps, and witness_le and
    # decide_eq at a feasible v*, build no LinearSystem and call neither
    # cell_region nor strict_feasible_point: every LP after the index build
    # is posed as integer rows and right-hand sides. Checked on the
    # mixed-grid instances and the first 40 of the mixed acceptance batch
    import pytest
    from bilevel_exact import UNATTAINED, cells, decide, engine, linear, solve_mixed
    insts = grid_instances() + [inst for inst, _, _ in mixed_batch[0][:40]]
    one_shot = ("cell_region", "strict_feasible_point")
    assert not set(one_shot) & set(vars(decide))

    def refuse(*args):
        raise AssertionError("a mixed solve reached the one-shot layer")

    feasible = 0
    with pytest.MonkeyPatch.context() as mp:
        for module in (cells, decide, engine, linear):
            for name in one_shot:
                if hasattr(module, name):
                    mp.setattr(module, name, refuse)
        mp.setattr(linear.LinearSystem, "__init__", refuse)
        for inst in insts:
            rep = solve_mixed(inst, eps=GRID_EPS)
            if rep.infimum is None:
                continue
            feasible += 1
            scan = decide.DecisionScan(inst)
            unattained = rep.status == UNATTAINED
            assert (decide.witness_le(scan, rep.infimum) is None) == unattained
            assert (decide.decide_eq(scan, rep.infimum) is None) == unattained
    assert feasible > 100


def test_no_solve_reaches_the_cone_check(mixed_batch):
    # every row a solve poses keeps the instance's upper or follower rows,
    # which validation proved bounded, so no solve or decision query runs
    # the one-shot layer's cone check (linear._projection_bounded) or its
    # mixed_feasible: solve_mixed, solve_pure, decide_le and decide_le_pure
    # on the mixed-grid instances, the first 40 of the mixed acceptance
    # batch and 25 pure-small instances. The floor walk's n > 1 screen ran
    # both before it searched the instance's rows directly
    import pytest
    from bilevel_exact import decide_le, decide_le_pure, lattice, linear, solve_mixed, solve_pure
    insts = (grid_instances() + [inst for inst, _, _ in mixed_batch[0][:40]]
             + pure_small_instances(25))

    def refuse(*args):
        raise AssertionError("a solve reached the one-shot boundedness check")

    refused = (linear._projection_bounded, lattice.mixed_feasible)
    with pytest.MonkeyPatch.context() as mp:
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("bilevel_exact"):
                for name, value in list(vars(mod).items()):
                    if any(value is fn for fn in refused):
                        mp.setattr(mod, name, refuse)
        for inst in insts:
            mixed = solve_mixed(inst, eps=GRID_EPS)
            pure = solve_pure(inst)
            decide_le(inst, 0 if mixed.infimum is None else mixed.infimum)
            decide_le_pure(inst, 0 if pure.infimum is None else pure.infimum)
    assert sum(inst.n > 1 for inst in insts) > 50


def _counting_system_rows(linear, rows):
    """A LinearSystem constructor that appends the row count of each system
    it builds to `rows`."""
    init = linear.LinearSystem.__init__

    def counting(system, *args):
        init(system, *args)
        rows.append(len(system.rows))
    return counting


def test_parse_and_decision_construction_work():
    # a deterministic count of the rows of the LinearSystems that parsing 25
    # files builds and that one cold query on each builds after it:
    # decide_le at the golden v* + 1/8 (10**6 when infeasible) on mixed-grid
    # files and decide_le_pure at 0 on pure-small ones. A query built 40 and
    # 25 rows before the instance kept its rows as integer rows and
    # right-hand sides and the value rows were posed in that form, and
    # builds none; parsing builds at most the cone LPs' systems of
    # validation's recession tests, 570 and 350 rows (910 and 550 before),
    # and may only fall. These bounds once counted the rows built as
    # objects of their own, each of which stood in exactly one of these
    # systems: the counts are the same
    import pytest
    from bilevel_exact import decide_le, decide_le_pure, linear, parse_instance
    with open(GRID_PATH) as fh:
        infima = [w["infimum"] for w in json.load(fh)["reports"][:25]]
    grid_alphas = [Fraction(10**6) if v is None else Fraction(v) + GRID_EPS for v in infima]
    runs = ((grid_documents()[:25], decide_le, grid_alphas),
            (pure_small_documents(25), decide_le_pure, [0] * 25))
    rows, work = [], []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linear.LinearSystem, "__init__", _counting_system_rows(linear, rows))
        for docs, decide, alphas in runs:
            rows.clear()
            insts = [parse_instance(doc)[0] for doc in docs]
            parsed = sum(rows)
            for inst, alpha in zip(insts, alphas):
                decide(inst, alpha)
            work.append((parsed, sum(rows) - parsed))
    (grid_parsed, grid_queried), (pure_parsed, pure_queried) = work
    assert grid_queried == 0 and grid_parsed <= 570
    assert pure_queried == 0 and pure_parsed <= 350


def test_per_solve_construction_work():
    # a deterministic count of what 25 mixed-grid and 25 pure-small solves
    # build around their LPs: the rows of the LinearSystems built and
    # kernel forms (linear._kernel_form calls), the instances built
    # beforehand. The rows were once counted as row objects of their own,
    # each of which stood in exactly one system: the counts are the same.
    # They were 2217 and 361 on mixed-grid, 200 and 50 on pure-small,
    # before the instance kept the rows its constructor builds, a family
    # for another cost over the same rows shared their kernel form and the
    # lex trace's rho was left to its first read, and 1432 and 234 on
    # mixed-grid before the integer walk kept one family per level, whose
    # right-hand sides move with the fixed coordinates, and 1100 rows on
    # mixed-grid before bilevel_feasible searched the follower's rows
    # without building a follower system, and 981 and 222 on mixed-grid
    # before the lex scan skipped the cells whose unique closure optimum
    # lies outside their region and the vertex walk ran on one family, and
    # 579 rows on mixed-grid before the scan's checks, the lex vertex walk
    # and the extraction checks read integer rows and right-hand sides; they
    # may only fall, and neither kind of solve builds a system with a row
    import pytest
    from bilevel_exact import linear, solve_mixed, solve_pure
    runs = ((solve_mixed, grid_instances()[:25], {"eps": GRID_EPS}),
            (solve_pure, pure_small_instances(25), {}))
    kernel_form = linear._kernel_form
    rows, work = [], []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linear.LinearSystem, "__init__", _counting_system_rows(linear, rows))
        for solve, insts, kwargs in runs:
            rows.clear()
            forms = []
            mp.setattr(linear, "_kernel_form", lambda *args: forms.append(1) or kernel_form(*args))
            for inst in insts:
                solve(inst, **kwargs)
            work.append((sum(rows), len(forms)))
    (grid_rows, grid_forms), (pure_rows, pure_forms) = work
    assert grid_rows == 0 and grid_forms <= 174
    assert pure_rows == 0 and pure_forms <= 25


def _write_reports(fh, reports):
    fh.write(",\n".join("  " + json.dumps(r) for r in reports))


def _write_golden():
    from bilevel_exact import random_instance, solve_mixed, solve_pure
    rng = random.Random(MIXED_SEED)
    mixed = [(None, solve_mixed(random_instance(rng)), None) for _ in range(220)]
    rng = random.Random(PURE_SEED)
    pure = [(None, solve_pure(random_instance(rng)), None) for _ in range(220)]
    doc = batch_records(mixed, pure)
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    with open(GOLDEN_PATH, "w") as fh:
        fh.write("{\n")
        for k, variant in enumerate(("mixed", "pure")):
            fh.write(f' "{variant}": {{"seed": {doc[variant]["seed"]}, "reports": [\n')
            _write_reports(fh, doc[variant]["reports"])
            fh.write("\n ]}" + (",\n" if k == 0 else "\n"))
        fh.write("}\n")
    with open(GRID_PATH, "w") as fh:
        fh.write(f'{{"seed": {GRID_SEED}, "eps": "{GRID_EPS}", "reports": [\n')
        _write_reports(fh, grid_records())
        fh.write("\n]}\n")


if __name__ == "__main__":
    _write_golden()
