"""Benchmark of bilevel-exact: run one workload (or all) and report its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload mixed-small [--seed N] [--trace 0|1]
    python3 perfbench/run.py --workload all

Each workload writes its generated instance files under ``.perfbench_work/``,
measures set-up three times in fresh interpreters (two set-up-only workers
and the measured worker itself) and runs one pass over its ops in one worker
process with one thread. Each workload's size is fixed, so every run measures
the same ops; ``--seconds`` is accepted, as the tools that run
``BENCHMARK.json`` pass it, but does not change what is measured. The parent
then checks every answer, prints one line per metric and, as the last line,
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the per-layer ones (see METRICS.md).

``--seed`` defaults to the workload's own seed; pass another to re-check a
claim on inputs not used while the change was written.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
sys.path[:0] = [HERE, SRC]

import workloads  # noqa: E402
from tracer import layer_unit  # noqa: E402
from verify import answer_digest, cap_name, check_ops  # noqa: E402

SETUP_RUNS = 3
TAIL_LADDER = (0.999, 0.99, 0.9)
RUN_BUDGET_S = 170  # a run must end within 180 s; workers past this are killed
END_TO_END_UNITS = {"op_ms_p50": "ms", "op_ms_tail": "ms", "ops_per_s": "1/s", "setup_s": "s"}


def tail_percentile(n: int) -> float:
    """Highest of p99.9, p99, p90 with at least 10 of `n` ops beyond it (else p50)."""
    return next((q for q in TAIL_LADDER if n - math.ceil(q * n) >= 10), 0.5)


def percentile(times: list, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(times)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _worker(deadline: float, plan_path: str, out_path: str, *flags) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), plan_path, out_path, *flags]
    env = dict(os.environ, PYTHONHASHSEED="0")
    subprocess.run(cmd, check=True, cwd=ROOT, env=env,
                   timeout=max(1.0, deadline - time.monotonic()))
    with open(out_path, encoding="utf-8") as fh:
        result = json.load(fh)
    if not os.path.abspath(result["program"]).startswith(SRC + os.sep):
        raise RuntimeError(f"worker imported bilevel_exact from {result['program']}, not {SRC}")
    return result


def run_workload(name: str, seed: int, trace: bool, count=None) -> dict:
    """Generate, measure and verify one workload; the result as printed."""
    deadline = time.monotonic() + RUN_BUDGET_S
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=WORK)
    try:
        plan = workloads.write_plan(name, seed, workdir, count)
        plan["src"] = SRC
        plan_path = os.path.join(workdir, "plan.json")
        with open(plan_path, "w", encoding="utf-8") as fh:
            json.dump(plan, fh)
        out = os.path.join(workdir, "out.json")
        setups = []
        if not trace:
            for _ in range(SETUP_RUNS - 1):
                setups.append(_worker(deadline, plan_path, out, "--setup-only"))
        result = _worker(deadline, plan_path, out, *(["--trace"] if trace else []))
        setups.append(result)
        return summarize(plan, result, setups, trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def verify_answers(plan: dict, answers: list) -> dict:
    """{op index: reason} for every wrong answer.

    The checks cost about as much as the ops, and a comparison of two commits
    runs every workload about twenty times, so two processes share them.
    """
    items = [(i, a) for i, a in enumerate(answers) if a is not None]
    with ProcessPoolExecutor(max_workers=2) as pool:
        halves = pool.map(check_ops, [plan, plan], [items[0::2], items[1::2]])
        return {i: reason for half in halves for i, reason in half.items()}


def summarize(plan: dict, result: dict, setups: list, trace: bool) -> dict:
    """Verify the answers and compute the metrics; `setups` are worker results."""
    bad = verify_answers(plan, result["answers"])
    for i in result["mismatches"]:
        bad.setdefault(i, "answer changed between the untraced and the traced pass")
    # errors are listed per run of an op; a wrong answer fails every run of
    # its op, and the traced run's two passes run the ops in plan order
    attempted = result["attempted"]
    n = len(plan["ops"])
    failed = len(result["errors"]) + sum(1 for k in range(attempted) if k % n in bad)
    times = result["times"]
    out = {
        "workload": plan["workload"], "seed": plan["seed"], "trace": trace,
        "attempted": attempted, "failed": failed, "errors": result["errors"], "bad": bad,
        "digest": answer_digest(plan, result["answers"]), "distinct_ops": len(plan["ops"]),
        "op_s": result["traced_s"] if trace else sum(result["raw_times"]),
    }
    if trace:
        out["metrics"] = {k: (v, layer_unit(k)) for k, v in result["trace"].items()}
        return out
    q = tail_percentile(len(plan["ops"]))
    out["tail_percentile"] = q
    out["samples"] = len(times)
    out["setups"] = [r["setup_s"] for r in setups]
    out["failed_frac"] = failed / attempted
    out["raw"] = _timings(result["raw_times"], [r["raw_setup_s"] for r in setups], q)
    out["metrics"] = {k: (v, END_TO_END_UNITS[k])
                      for k, v in _timings(times, out["setups"], q).items()}
    out["metrics"]["peak_rss_mb"] = (result["peak_rss_kb"] / 1024, "MB")
    return out


def _timings(times: list, setups: list, q: float) -> dict:
    return {"op_ms_p50": 1000 * statistics.median(times),
            "op_ms_tail": 1000 * percentile(times, q),
            "ops_per_s": len(times) / sum(times),
            "setup_s": statistics.median(setups)}


def report(out: dict) -> None:
    name = out["workload"]
    print(f"workload {name} seed {out['seed']}: {out['attempted']} ops attempted, "
          f"{out['failed']} failed, {out['op_s']:.3f} s of "
          + ("traced op time" if out["trace"] else "op time"))
    for key, (value, unit) in out["metrics"].items():
        note = ""
        if key == "op_ms_tail":
            note = f"  (p{100 * out['tail_percentile']:g} of {out['samples']} ops)"
        elif key == "setup_s":
            note = "  (median of " + ", ".join(f"{s:.3f}" for s in out["setups"]) + ")"
        if key in out.get("raw", {}):
            note += f"  [unscaled {out['raw'][key]:.6g}]"
        print(f"  {name} {key} {value:.6g} {unit}{note}")
    if "failed_frac" in out:
        print(f"  {name} failed_frac {out['failed_frac']:.6g} ratio")
    for err in out["errors"]:
        what = err["type"]
        if what == "ResourceLimitError":
            what += f" [{cap_name(err['message'])}]"
        print(f"  FAILED op {err['op']}: {what}: {err['message']}")
    for i, reason in sorted(out["bad"].items()):
        print(f"  WRONG op {i}: {reason}")
    print(f"answer digest {name} seed {out['seed']}: {out['digest']} "
          f"({out['distinct_ops']} distinct ops)")


def result_json(out: dict) -> dict:
    return {
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in out["metrics"].items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="bilevel-exact benchmark")
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="accepted and ignored: each workload measures one whole "
                             "pass of fixed size, about 10 s of op time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "bilevel_exact", "__init__.py")):
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 2
    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        seed = workloads.WORKLOADS[name].seed if args.seed is None else args.seed
        out = run_workload(name, seed, bool(args.trace))
        report(out)
        results[name] = result_json(out)
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
