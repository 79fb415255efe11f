"""One measured process: set up a workload, run its ops, write what it saw.

Run as ``python3 worker.py PLAN OUT [--setup-only] [--trace]``.
The clock for ``setup_s`` starts at the first statement below, so set-up is
the time from a fresh interpreter to the first op being ready: importing
``bilevel_exact`` and ``parse_and_validate`` of every instance file.

Every op gets a freshly parsed instance, so the per-instance cell-index cache
starts cold. A run measures exactly one pass over the plan's ops, on the
instances parsed during set-up, so every op carries the same weight in every
run whatever the machine's speed. Times are written both as measured and
scaled by the machine's current speed (see ``Speed``).

With ``--trace`` the process runs the untraced pass and then one pass under
the tracer, on instances parsed again outside the timed region. The layer
metrics come from the traced pass, so its counts are the same on every run of
a plan, and the tracing overhead from comparing the two passes.
"""
import time

_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import deque  # noqa: E402
from statistics import median  # noqa: E402

PROBE_EVERY_S = 0.05
PROBE_NOMINAL_S = 0.0015


def _probe() -> float:
    """Seconds taken by a fixed loop of interpreter integer work (no program code)."""
    start = time.perf_counter()
    x = 0
    for i in range(20000):
        x += (i * i) % 7
    return time.perf_counter() - start


class Speed:
    """How fast the machine runs now, from the probe's median over the last 9 runs.

    A time multiplied by `factor()` is the time on a machine where the probe
    takes PROBE_NOMINAL_S. Time spent probing is kept in `spent`.
    """

    def __init__(self):
        self.recent = deque(maxlen=9)
        self.samples = []
        self.spent = 0.0
        self.last = None

    def probe(self):
        now = time.perf_counter()
        if self.last is not None and now - self.last < PROBE_EVERY_S:
            return
        took = _probe()
        self.recent.append(took)
        self.samples.append(took)
        self.last = time.perf_counter()
        self.spent += self.last - now

    def factor(self) -> float:
        return PROBE_NOMINAL_S / median(self.recent)

    def overall_factor(self) -> float:
        return PROBE_NOMINAL_S / median(self.samples)


def peak_rss_kb() -> int:
    """Peak resident memory of this process image, in KiB.

    VmHWM, not ru_maxrss: after fork and exec, ru_maxrss still counts the
    parent's resident memory at the fork.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def _load_program(src: str):
    sys.path.insert(0, src)
    import bilevel_exact
    from bilevel_exact import cli, engine, errors, instance_io, rational
    return bilevel_exact, cli, engine, errors, instance_io, rational


class Runner:
    def __init__(self, plan: dict, modules, speed: Speed):
        self.plan = plan
        _, self.cli, self.engine, self.errors, self.io, self.rational = modules
        self.speed = speed
        self.instances = []
        for path in plan["files"]:
            speed.probe()
            self.instances.append(self.io.parse_and_validate(path))

    def fresh(self, op: dict, reuse: bool):
        if reuse:
            return self.instances[op["file"]]
        return self.io.parse_and_validate(self.plan["files"][op["file"]])

    def run_op(self, op: dict, inst):
        """(seconds, answer text, telemetry dict or None) of one op."""
        if op["kind"] == "decide":
            argv = ["decide", self.plan["files"][op["file"]], "--alpha=" + op["alpha"]]
            out, err = io.StringIO(), io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.cli_main(argv)
            elapsed = time.perf_counter() - start
            # cli_main turns exceptions into exit codes and stderr lines; turn
            # them back, so a cap hit is reported with the cap's name
            if code == self.cli.EXIT_RESOURCE:
                raise self.errors.ResourceLimitError(err.getvalue().strip())
            if code != self.cli.EXIT_OK:
                raise RuntimeError(f"decide exited with {code}: {err.getvalue().strip()}")
            return elapsed, f"{code} {out.getvalue().strip()}", None
        start = time.perf_counter()
        if op["kind"] == "pure":
            report = self.engine.solve_pure(inst)
        else:
            eps = self.rational.parse_rat(op["eps"]) if op.get("eps") else None
            report = self.engine.solve_mixed(inst, eps=eps)
        text = self.io.report_to_json(report)
        elapsed = time.perf_counter() - start
        return elapsed, text, report.telemetry.as_dict()

    def run_pass(self, reuse: bool, result: dict, telemetry=None) -> float:
        """Run every op once; return the op time."""
        total = 0.0
        answers = result["answers"]
        first = not answers
        for i, op in enumerate(self.plan["ops"]):
            inst = None if op["kind"] == "decide" else self.fresh(op, reuse)
            result["attempted"] += 1
            self.speed.probe()
            try:
                elapsed, answer, tel = self.run_op(op, inst)
            except Exception as exc:  # an op that raises is a failed op, not a crash
                result["errors"].append({"op": i, "type": type(exc).__name__,
                                         "message": str(exc),
                                         "traceback": traceback.format_exc(limit=3)})
                answer, tel = None, None
            else:
                result["times"].append(elapsed * self.speed.factor())
                result["raw_times"].append(elapsed)
                total += elapsed
            if first:
                answers.append(answer)
            elif answer is not None and answer != answers[i]:
                result["mismatches"].append(i)
            if telemetry is not None and tel is not None:
                for key, value in tel.items():
                    telemetry[key] = telemetry.get(key, 0) + value
        return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("plan")
    parser.add_argument("out")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    with open(args.plan, encoding="utf-8") as fh:
        plan = json.load(fh)
    speed = Speed()
    speed.probe()
    modules = _load_program(plan["src"])
    runner = Runner(plan, modules, speed)
    setup_s = time.perf_counter() - _START - speed.spent
    result = {"setup_s": setup_s * speed.overall_factor(), "raw_setup_s": setup_s,
              "program": modules[0].__file__}
    if not args.setup_only:
        result.update(times=[], raw_times=[], answers=[], errors=[], mismatches=[], attempted=0)
        if args.trace:
            result["trace"] = run_traced(runner, result)
        else:
            runner.run_pass(True, result)
        result["peak_rss_kb"] = peak_rss_kb()
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def run_traced(runner: Runner, result: dict) -> dict:
    """One untraced pass, then one traced pass; the traced pass's layer metrics."""
    from tracer import Tracer

    times = result["times"]
    runner.run_pass(True, result)
    untraced = sum(times)
    tracer = Tracer()
    telemetry = {}
    tracer.install()
    try:
        result["traced_s"] = runner.run_pass(False, result, telemetry=telemetry)
    finally:
        tracer.uninstall()
    traced = sum(times) - untraced
    return tracer.metrics(telemetry, (traced - untraced) / untraced)


if __name__ == "__main__":
    sys.exit(main())
