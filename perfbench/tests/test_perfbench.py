"""Tests of the benchmark itself: generators, tracer arithmetic, determinism.

Run with ``python3 -m pytest perfbench/tests -q`` from the root of the repo.
"""
import hashlib
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import gen  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracer import SPANS, Tracer, layer_unit  # noqa: E402
from verify import cap_name, check_ops  # noqa: E402

# sha256 of the 220 acceptance-batch instances (seed 20260823) as gen.to_json
# writes them; pins the mixed-small generator against accidental change.
ACCEPTANCE_BATCH_SHA256 = "69eec8c46a4a13a8ccc4ee3f407def54d648fb84b9cc80550fcdb03feb9ec643"


def _plan_bytes(name, seed, directory):
    directory.mkdir()
    plan = workloads.write_plan(name, seed, str(directory), 6)
    blobs = []
    for path in plan["files"]:
        with open(path, "rb") as fh:
            blobs.append(fh.read())
    return blobs, plan["ops"]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_instance_json(name, tmp_path):
    first = _plan_bytes(name, 5, tmp_path / "a")
    assert first == _plan_bytes(name, 5, tmp_path / "b")
    assert _plan_bytes(name, 6, tmp_path / "c")[0] != first[0]


def test_mixed_small_default_seed_is_the_acceptance_batch():
    seed = workloads.WORKLOADS["mixed-small"].seed
    docs = workloads._docs("mixed-small", seed, 220)
    text = "".join(gen.to_json(doc) for doc in docs)
    assert hashlib.sha256(text.encode()).hexdigest() == ACCEPTANCE_BATCH_SHA256


def test_self_time_on_a_synthetic_span_tree():
    now = [0.0]
    tracer = Tracer(clock=lambda: now[0])

    def work(seconds):
        now[0] += seconds

    def leaf(seconds):
        work(seconds)

    leaf = tracer.wrap("engine.objective_bounds", leaf)

    def middle():
        work(2)
        leaf(3)
        work(1)

    middle = tracer.wrap("engine.infimum", middle)

    def outer():
        work(1)
        middle()
        work(4)
        leaf(5)

    tracer.wrap("engine.solve_mixed", outer)()
    stats = tracer.stats
    assert (stats["engine.solve_mixed"].busy, stats["engine.solve_mixed"].self_time) == (16, 5)
    assert (stats["engine.infimum"].busy, stats["engine.infimum"].self_time) == (6, 3)
    assert (stats["engine.objective_bounds"].calls, stats["engine.objective_bounds"].busy,
            stats["engine.objective_bounds"].self_time) == (2, 8, 8)


def test_self_time_when_a_span_raises():
    now = [0.0]
    tracer = Tracer(clock=lambda: now[0])

    def failing():
        now[0] += 2
        raise ValueError("boom")

    failing = tracer.wrap("engine.infimum", failing)

    def outer():
        now[0] += 1
        with pytest.raises(ValueError):
            failing()

    tracer.wrap("engine.solve_mixed", outer)()
    assert tracer.stats["engine.infimum"].busy == 2
    assert tracer.stats["engine.solve_mixed"].self_time == 1


def test_install_and_uninstall_restore_every_reference():
    import bilevel_exact
    from bilevel_exact import cells, engine, linear
    originals = (linear.lp_solve, cells.lp_solve, engine.lp_solve, bilevel_exact.lp_solve,
                 cells.CellIndex.__dict__["_build"])
    tracer = Tracer()
    tracer.install()
    try:
        assert cells.lp_solve is engine.lp_solve is linear.lp_solve is not originals[0]
    finally:
        tracer.uninstall()
    assert (linear.lp_solve, cells.lp_solve, engine.lp_solve, bilevel_exact.lp_solve,
            cells.CellIndex.__dict__["_build"]) == originals


def test_layer_metrics_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == [
        (name, layer_unit(name)) for name in Tracer().metrics({}, 0.0)]
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == dict(
        run.END_TO_END_UNITS, peak_rss_mb="MB")
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    for span in SPANS:
        assert span.split(".")[0] in ("linear", "lattice", "cells", "decide", "engine",
                                      "instance_io", "cli")
    with open(os.path.join(BENCH, "METRICS.md"), encoding="utf-8") as fh:
        doc = fh.read()
    for metric in bench["end_to_end"] + bench["per_layer"]:
        assert f"`{metric['name']}`" in doc


def test_tail_is_the_highest_percentile_with_ten_ops_beyond():
    assert run.tail_percentile(99) == 0.5
    assert run.tail_percentile(100) == 0.9
    assert run.tail_percentile(999) == 0.9
    assert run.tail_percentile(1000) == 0.99
    assert run.tail_percentile(10000) == 0.999
    assert run.percentile(list(range(1, 101)), 0.9) == 90


def test_cap_names():
    assert cap_name("branch and bound node cap exceeded") == "node_cap"
    assert cap_name("cell enumeration cap exceeded") == "cell_cap"
    assert cap_name("integer point cap exceeded") == "integer_point_cap"
    assert cap_name("vertex enumeration over 9 rows exceeds the basis cap") == "basis_cap"


DETERMINISTIC = (".calls", ".points", ".lp_calls", ".valid_cells")


def _deterministic_counters(metrics):
    return {k: v for k, (v, _) in metrics.items()
            if k.endswith(DETERMINISTIC) or k.startswith("engine.telemetry.")}


@pytest.mark.parametrize("name", ["pure-small", "mixed-grid", "decide-cold"])
def test_counters_repeat_across_traced_runs(name):
    first = run.run_workload(name, 3, True, count=3)
    second = run.run_workload(name, 3, True, count=3)
    counters = _deterministic_counters(first["metrics"])
    assert counters["linear.lp_solve.calls"] > 0
    assert counters == _deterministic_counters(second["metrics"])
    assert first["digest"] == second["digest"]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_run_has_no_failures(name):
    out = run.run_workload(name, workloads.WORKLOADS[name].seed, False, count=4)
    assert out["attempted"] == out["samples"] == 4
    assert out["failed_frac"] == 0
    assert run.result_json(out)["correct"]
    assert set(out["metrics"]) == {"op_ms_p50", "op_ms_tail", "ops_per_s", "setup_s",
                                   "peak_rss_mb"}


def test_checks_reject_wrong_answers(tmp_path):
    import bilevel_exact as bx

    plan = workloads.write_plan("mixed-grid", 7, str(tmp_path), 6)
    items = []
    for i, op in enumerate(plan["ops"]):
        report = bx.solve_mixed(bx.parse_and_validate(plan["files"][op["file"]]),
                                eps=bx.parse_rat(op["eps"]))
        items.append((i, bx.report_to_json(report)))
    assert check_ops(plan, items) == {}
    feasible = [(i, a) for i, a in items if json.loads(a)["infimum"] is not None]
    i, answer = feasible[0]
    doc = json.loads(answer)
    doc["infimum"] = str(bx.parse_rat(doc["infimum"]) + 1)
    assert i in check_ops(plan, [(i, json.dumps(doc))])

    (tmp_path / "d").mkdir()
    decide = workloads.write_plan("decide-cold", 7, str(tmp_path / "d"), 2)
    orc = bx.reference_oracle(bx.parse_and_validate(decide["files"][0]))
    alpha = bx.parse_rat(decide["ops"][0]["alpha"])
    right = orc.status != bx.INFEASIBLE and (
        orc.infimum < alpha or (orc.infimum == alpha and orc.status == bx.ATTAINED))
    assert check_ops(decide, [(0, "0 " + ("true" if right else "false"))]) == {}
    assert 0 in check_ops(decide, [(0, "0 " + ("false" if right else "true"))])


def test_decide_cap_hit_is_reported_with_the_cap_name(tmp_path, monkeypatch):
    from bilevel_exact import cli

    def capped(argv):
        sys.stderr.write("resource limit: cell enumeration cap exceeded\n")
        return cli.EXIT_RESOURCE

    plan = workloads.write_plan("decide-cold", 7, str(tmp_path), 1)
    runner = worker.Runner(plan, worker._load_program(run.SRC), worker.Speed())
    monkeypatch.setattr(cli, "cli_main", capped)
    result = dict(times=[], raw_times=[], answers=[], errors=[], mismatches=[], attempted=0)
    runner.run_pass(True, result)
    assert [(e["type"], cap_name(e["message"])) for e in result["errors"]] == [
        ("ResourceLimitError", "cell_cap")]
    assert result["answers"] == [None]
