"""Acceptance gate: eight checks, each reporting one pass/fail line.

The per-criterion lines are collected by conftest and printed in a summary
section after the run. Criteria 3, 4, 5 and 7 share the session-scoped
instance batches from conftest so the expensive solves happen once.
"""
import json
import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import support
from conftest import MIXED_SEED, PURE_SEED, record_criterion
from bilevel_exact import (ATTAINED, Cell, QVector, Telemetry, bilevel_feasible,
                           bisect_decision, cell_infimum, cell_region, denominator_cap,
                           disagreement, enumerate_cells, floor_rhs, is_valid_cell, parse_rat,
                           random_instance, rational_reconstruct, strict_feasible_point,
                           vertices)
from bilevel_exact.cli import cli_main

from test_cells import sample_hull, upper_region_for_x



@contextmanager
def criterion(num, title):
    info = {"detail": ""}
    start = time.perf_counter()
    try:
        yield info
    except BaseException as exc:
        record_criterion(f"criterion {num} ({title}): FAIL - {type(exc).__name__}: {exc}")
        raise
    elapsed = time.perf_counter() - start
    detail = info["detail"] or f"{elapsed:.2f}s"
    record_criterion(f"criterion {num} ({title}): PASS - {detail}")


def test_criterion_1_mixed_example_reproduction(example1_path, capsys):
    with criterion(1, "mixed example reproduction") as info:
        t0 = time.perf_counter()
        code = cli_main(["solve", example1_path, "--epsilon", "1/8", "--json"])
        elapsed = time.perf_counter() - t0
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["status"] == "unattained"
        assert parse_rat(doc["infimum"]) == -1
        eps = doc["eps_solution"]
        value = parse_rat(eps["value"])
        assert value <= Fraction(-7, 8)
        inst = support.make_example1()
        x = tuple(eps["x"])
        z = QVector([parse_rat(s) for s in eps["z"]])
        assert bilevel_feasible(inst, x, z)
        assert inst.objective_vector().dot(QVector(list(x) + list(z.entries))) == value
        assert elapsed < 1.0
        info["detail"] = f"infimum -1 unattained, eps value {value}, {elapsed:.3f}s"


def test_criterion_2_pure_example(example1_path, capsys):
    with criterion(2, "pure example") as info:
        t0 = time.perf_counter()
        code = cli_main(["solve", example1_path, "--mode", "pure", "--json"])
        elapsed = time.perf_counter() - t0
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["status"] == "attained"
        assert parse_rat(doc["infimum"]) == 0
        assert doc["solution"] == {"x": [0], "z": ["0"]}
        assert elapsed < 1.0
        info["detail"] = f"v*=0 at (0,0), {elapsed:.3f}s"


def test_criterion_3_oracle_equivalence(mixed_batch):
    rows, elapsed = mixed_batch
    with criterion(3, "mixed oracle equivalence") as info:
        assert len(rows) >= 200
        attained = 0
        for inst, rep, orc in rows:
            assert disagreement(inst, rep, orc) is None
            attained += rep.status == ATTAINED
        assert elapsed < 300.0
        info["detail"] = (f"{len(rows)} instances agree "
                          f"({attained} attained, seed {MIXED_SEED}), {elapsed:.1f}s")


def test_criterion_4_pure_crosscheck(pure_batch):
    rows, elapsed = pure_batch
    with criterion(4, "pure driver crosscheck") as info:
        assert len(rows) >= 200
        feasible = 0
        for inst, rep, orc in rows:
            # the enumeration oracle lists every feasible point, so status,
            # infimum, x* and z* must all be its own
            assert disagreement(inst, rep, orc, variant="pure") is None
            if rep.infimum is not None:
                feasible += 1
                assert rep.infimum.denominator == 1
        assert elapsed < 300.0
        info["detail"] = (f"{len(rows)} instances, oracle agrees, all {feasible} "
                          f"optima integral (seed {PURE_SEED}), {elapsed:.1f}s")


def test_criterion_5_denominator_bound(mixed_batch, pure_batch):
    with criterion(5, "denominator bound") as info:
        checked = 0
        for inst, rep, _ in mixed_batch[0]:
            if rep.infimum is not None:
                assert rep.infimum.denominator <= denominator_cap(inst)
                checked += 1
        for inst, rep, _ in pure_batch[0]:
            if rep.infimum is not None:
                assert rep.infimum.denominator <= denominator_cap(inst)
                checked += 1
        info["detail"] = f"{checked} feasible optima within cap, zero violations"


def test_criterion_6_rational_search():
    with criterion(6, "hidden rational search") as info:
        t0 = time.perf_counter()
        rng = random.Random(1009)
        bound = math.ceil(math.log2(2 * 10**8)) + 5
        worst = 0
        for _ in range(1000):
            q = rng.randint(1, 10**4)
            p = rng.randint(0, q)
            hidden = Fraction(p, q)
            calls = [0]
            def dec(a):
                calls[0] += 1
                return hidden <= a
            tel = Telemetry()
            lo, hi = bisect_decision(dec, Fraction(-1), Fraction(1),
                                     Fraction(1, 2 * 10**8), tel)
            assert rational_reconstruct(lo, hi, 10**4, tel) == hidden
            assert calls[0] <= bound
            worst = max(worst, calls[0])
        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0
        info["detail"] = f"1000 exact recoveries, worst {worst} <= {bound} queries, {elapsed:.1f}s"


def test_criterion_7_lex_postconditions(mixed_batch):
    with criterion(7, "lex extraction postconditions") as info:
        checked = 0
        for inst, rep, _ in mixed_batch[0]:
            if rep.status != ATTAINED:
                continue
            trace = rep.lex_trace
            assert trace is not None
            assert trace.q_system.satisfied_by(trace.z_star)
            assert all(ri <= rho_i < ri + 1 for ri, rho_i in zip(trace.r, trace.rho))
            assert bilevel_feasible(inst, trace.x_star, trace.z_star)
            checked += 1
        assert checked > 0
        info["detail"] = f"{checked} attained instances, zero postcondition failures"


def _invariant_points(inst, rng):
    """Run the partition/equivalence/constancy/infimum checks; count points."""
    points = 0
    cells = enumerate_cells(inst)
    obj = inst.objective_vector()
    obj_z = list(obj.entries[inst.n:])

    xs = [c.x for c in cells]
    xs.extend(tuple(rng.randint(-2, 2) for _ in range(inst.n)) for _ in range(3))
    per_x = {}
    for x in xs:
        if x in per_x:
            continue
        upper = upper_region_for_x(inst, x)
        per_x[x] = [tuple(v.entries) for v in vertices(upper)]

    while points < 500:
        for x, verts in per_x.items():
            zs = [(True, z) for z in sample_hull(verts, rng, 6)] if verts else []
            zs.append((False, QVector([Fraction(rng.randint(0, 4), rng.randint(1, 3))
                                       for _ in range(inst.d)])))
            for from_hull, z in zs:
                r = floor_rhs(inst, z)
                cell = Cell(x, r)
                region = cell_region(inst, cell)
                in_region = region.satisfied_by(z)
                if from_hull:
                    # partition: sampled upper points land in their floor cell
                    assert in_region
                    for i in range(inst.m):
                        moved = list(r)
                        moved[i] += rng.choice((-1, 1))
                        assert not cell_region(inst, Cell(x, tuple(moved))).satisfied_by(z)
                # equivalence with the definition-level feasibility check
                via_cells = is_valid_cell(inst, cell) and in_region
                assert bilevel_feasible(inst, x, z) == via_cells
                points += 1
        for cell in cells:
            region = cell_region(inst, cell)
            pts = [strict_feasible_point(region)]
            verts = [tuple(v.entries) for v in vertices(region)]
            pts += [p for p in sample_hull(verts, rng, 4) if region.satisfied_by(p)]
            inf, attained, witness = cell_infimum(inst, cell, obj)
            obj_x = sum(a * Fraction(b) for a, b in zip(obj.entries[: inst.n], cell.x))
            for z in pts:
                # constancy of the floor vector and the infimum lower bound
                assert floor_rhs(inst, z) == cell.r
                assert obj_x + sum(a * b for a, b in zip(obj_z, z)) >= inf
                points += 1
            if attained:
                assert obj.dot(witness) == inf
    return points


def test_criterion_8_cell_invariant_suites():
    with criterion(8, "cell decomposition invariants") as info:
        t0 = time.perf_counter()
        rng = random.Random(4242)
        instances = 0
        total_points = 0
        while instances < 50:
            inst = random_instance(rng)
            got = _invariant_points(inst, rng)
            assert got >= 500
            total_points += got
            instances += 1
        elapsed = time.perf_counter() - t0
        info["detail"] = (f"{instances} instances x >=500 points "
                          f"({total_points} total), {elapsed:.1f}s")
