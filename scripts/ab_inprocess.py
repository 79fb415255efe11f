"""Alternated in-process A/B timing of two checkouts on one benchmark workload.

Usage, from the root of a checkout:

    python3 scripts/ab_inprocess.py PARENT CHANGE WORKLOAD [--seed N] [--reps K]

PARENT and CHANGE are the roots of two checkouts. Their src/bilevel_exact
trees are copied into a temporary directory as the packages bx_parent and
bx_change, so that both load into this one interpreter. The workload's
instance files and ops come from this checkout's perfbench/workloads.py,
written into the same temporary directory; nothing under perfbench/ is
changed. Each instance is parsed once per side. Every op then runs K times
on each side, the two sides in turn, the side that goes first alternating
from op to op and from repetition to repetition, so a slow spell of the
machine falls on both. An op is timed as the benchmark's worker times it:
one solve and its report_to_json, or, on decide-cold, one cli_main call.
The script prints, per side, the p50, p90 and mean over ops of each op's
least time, the change's difference to the parent, and whether every answer
is the same on both sides: the command's output, or the report with, for a
mixed solve that attains its infimum, the lex trace's x*, r, k and vertices.
After the timed runs, one untimed pass of every op on each side counts its
RhsFamily.solve calls, its basis exchanges, as linear._dual_simplex_min
reports them, its lattice.IntegerSearch.minimize calls, its
linear.StrictFamily.point calls and its linear._kernel_form calls:
deterministic work counters that the script prints per side too, each on a
line of its own, so that a kernel change shows whether it pivots as before,
a search change whether it keeps every search while it solves fewer LPs, a
change to the strict layer how many strict-feasibility checks it runs, and
a change to how families are shared how many kernel forms, one per family
built, it pays for.
"""
from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import math
import os
import shutil
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import workloads  # noqa: E402

SIDES = ("parent", "change")


def _load(checkout: str, name: str, directory: str):
    """The checkout's src/bilevel_exact, copied into `directory` as package `name`."""
    shutil.copytree(os.path.join(checkout, "src", "bilevel_exact"), os.path.join(directory, name),
                    ignore=shutil.ignore_patterns("__pycache__"))
    return {mod: importlib.import_module(f"{name}.{mod}")
            for mod in ("cli", "engine", "instance_io", "lattice", "linear", "rational")}


def _op_runner(modules: dict, plan: dict):
    """run(i) -> (seconds, answer) for op i of the plan, on one side."""
    cli, engine = modules["cli"], modules["engine"]
    io_, rational = modules["instance_io"], modules["rational"]
    insts = {op["file"]: io_.parse_and_validate(plan["files"][op["file"]])
             for op in plan["ops"] if op["kind"] != "decide"}

    def run(i: int):
        op = plan["ops"][i]
        if op["kind"] == "decide":
            argv = ["decide", plan["files"][op["file"]], "--alpha=" + op["alpha"]]
            out = io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli.cli_main(argv)
            return time.perf_counter() - start, f"{code} {out.getvalue().strip()}"
        inst = insts[op["file"]]
        start = time.perf_counter()
        if op["kind"] == "pure":
            report = engine.solve_pure(inst)
        else:
            eps = rational.parse_rat(op["eps"]) if op.get("eps") else None
            report = engine.solve_mixed(inst, eps=eps)
        text = io_.report_to_json(report)
        elapsed = time.perf_counter() - start
        trace = report.lex_trace
        if trace is None:
            return elapsed, text
        vertices = tuple(v.entries for v in trace.vertices)
        return elapsed, (text, trace.x_star, trace.r, trace.k, vertices)

    return run


def _kernel_work(modules: dict, run, count: int) -> tuple:
    """(solves, exchanges, searches, strict checks, kernel forms): the
    RhsFamily.solve calls of one untimed pass of ops 0..count-1, the basis
    exchanges of its kernel calls, its IntegerSearch.minimize calls, its
    StrictFamily.point calls and its linear._kernel_form calls."""
    linear, search = modules["linear"], modules["lattice"].IntegerSearch
    family, strict = linear.RhsFamily, linear.StrictFamily
    solve, minimize, point = family.solve, search.minimize, strict.point
    kernel, form = linear._dual_simplex_min, linear._kernel_form
    calls = [0, 0, 0, 0, 0]

    def counting_solve(self, rhs):
        calls[0] += 1
        return solve(self, rhs)

    def counting_kernel(*args):
        out = kernel(*args)
        calls[1] += out[4]
        return out

    def counting_minimize(self, *args):
        calls[2] += 1
        return minimize(self, *args)

    def counting_point(self, *args):
        calls[3] += 1
        return point(self, *args)

    def counting_form(*args):
        calls[4] += 1
        return form(*args)

    family.solve = counting_solve
    search.minimize = counting_minimize
    strict.point = counting_point
    linear._dual_simplex_min = counting_kernel
    linear._kernel_form = counting_form
    try:
        for i in range(count):
            run(i)
    finally:
        family.solve = solve
        search.minimize = minimize
        strict.point = point
        linear._dual_simplex_min = kernel
        linear._kernel_form = form
    return tuple(calls)


def percentile(values: list, q: float) -> float:
    """Nearest-rank percentile, as perfbench/run.py takes it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--reps", type=int, default=5)
    args = parser.parse_args(argv)
    seed = workloads.WORKLOADS[args.workload].seed if args.seed is None else args.seed
    with tempfile.TemporaryDirectory(prefix="ab-inprocess-") as tmp:
        sys.path.insert(0, tmp)
        plan = workloads.write_plan(args.workload, seed, tmp)
        loaded = {side: _load(checkout, f"bx_{side}", tmp)
                  for side, checkout in zip(SIDES, (args.parent, args.change))}
        runners = {side: _op_runner(loaded[side], plan) for side in SIDES}
        count = len(plan["ops"])
        best = {side: [math.inf] * count for side in SIDES}
        equal = True
        for rep in range(args.reps):
            for i in range(count):
                answers = {}
                for side in (SIDES if (rep + i) % 2 == 0 else SIDES[::-1]):
                    elapsed, answers[side] = runners[side](i)
                    best[side][i] = min(best[side][i], elapsed)
                equal = equal and answers["parent"] == answers["change"]
        work = {side: _kernel_work(loaded[side], runners[side], count)
                for side in SIDES}
    stats = {side: (percentile(times, 0.5), percentile(times, 0.9), sum(times) / count)
             for side, times in best.items()}
    print(f"{args.workload} seed {seed}: {count} ops, least of {args.reps} alternated runs each")
    print(f"{'':8}{'p50 ms':>10}{'p90 ms':>10}{'mean ms':>10}")
    for side in SIDES:
        print(f"{side:8}" + "".join(f"{1000 * v:10.4f}" for v in stats[side]))
    print(f"{'diff':8}" + "".join(f"{100 * (c / p - 1):+9.1f}%"
                                 for p, c in zip(stats["parent"], stats["change"])))
    print(f"RhsFamily solves: parent {work['parent'][0]}, change {work['change'][0]}")
    print(f"basis exchanges: parent {work['parent'][1]}, change {work['change'][1]}")
    print(f"integer searches: parent {work['parent'][2]}, change {work['change'][2]}")
    print(f"strict checks: parent {work['parent'][3]}, change {work['change'][3]}")
    print(f"kernel forms: parent {work['parent'][4]}, change {work['change'][4]}")
    print(f"answers equal: {'yes' if equal else 'NO'}")
    return 0 if equal else 1


if __name__ == "__main__":
    sys.exit(main())
