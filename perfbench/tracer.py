"""Spans around the program's layers, recorded from outside the program.

``Tracer.install`` replaces the public functions listed in ``SPANS`` (and two
methods) with wrappers, in every ``bilevel_exact`` module that holds a
reference to them, and ``uninstall`` puts the originals back. Each call opens
a span; when it closes, the tracer adds its duration to the layer's busy time,
its duration minus the time covered by its child spans to the layer's self
time, and the caller's span gets the duration as child time. Spans are folded
into these sums as they close, so a long pass keeps no per-call records.

Row constructors and one-line helpers (``row_le``, ``specialize_row``, ...)
are not wrapped: they do no layer work and are called too often to trace
cheaply.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter

# span name -> (module, attribute); "Class.method" attributes patch the class.
SPANS = {
    "linear.lp_solve": ("linear", "lp_solve"),
    "linear.strict_feasible_point": ("linear", "strict_feasible_point"),
    "linear.recession_bounded": ("linear", "recession_bounded"),
    "linear.vertices": ("linear", "vertices"),
    "linear.affinely_independent_vertices": ("linear", "affinely_independent_vertices"),
    "lattice.mixed_feasible": ("lattice", "mixed_feasible"),
    "lattice.integer_min": ("lattice", "integer_min"),
    "lattice.enumerate_integers": ("lattice", "enumerate_integers"),
    "cells.bilevel_feasible": ("cells", "bilevel_feasible"),
    "cells.is_valid_cell": ("cells", "is_valid_cell"),
    "cells.integer_candidates": ("cells", "integer_candidates"),
    "cells.cell_index": ("cells", "cell_index"),
    "cells.index_build": ("cells", "CellIndex._build"),
    "cells.enumerate_cells": ("cells", "enumerate_cells"),
    "cells.cell_infimum": ("cells", "cell_infimum"),
    "decide.scan_build": ("decide", "DecisionScan.__init__"),
    "decide.decide_le": ("decide", "decide_le"),
    "decide.decide_eq": ("decide", "decide_eq"),
    "decide.witness_le": ("decide", "witness_le"),
    "decide.decide_le_pure": ("decide", "decide_le_pure"),
    "engine.objective_bounds": ("engine", "objective_bounds"),
    "engine.denominator_cap": ("engine", "denominator_cap"),
    "engine.bisect_decision": ("engine", "bisect_decision"),
    "engine.rational_reconstruct": ("engine", "rational_reconstruct"),
    "engine.infimum": ("engine", "infimum"),
    "engine.lex_extract": ("engine", "lex_extract"),
    "engine.eps_point": ("engine", "eps_point"),
    "engine.solve_mixed": ("engine", "solve_mixed"),
    "engine.solve_pure": ("engine", "solve_pure"),
    "engine.reference_oracle": ("engine", "reference_oracle"),
    "instance_io.parse_instance": ("instance_io", "parse_instance"),
    "instance_io.load_instance": ("instance_io", "load_instance"),
    "instance_io.parse_and_validate": ("instance_io", "parse_and_validate"),
    "instance_io.report_to_json": ("instance_io", "report_to_json"),
    "cli.cli_main": ("cli", "cli_main"),
}

PACKAGE = "bilevel_exact"


class LayerStats:
    __slots__ = ("calls", "busy", "self_time")

    def __init__(self):
        self.calls = 0
        self.busy = 0.0
        self.self_time = 0.0


def layer_unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("_frac", "per_check")):
        return "ratio"
    if metric.endswith("per_query"):
        return "count/query"
    if metric.endswith("bits_max"):
        return "bits"
    return "count"


def _bits(value) -> int:
    return max(abs(value.numerator).bit_length(), value.denominator.bit_length())


class Tracer:
    """Per-layer sums of calls, busy time and self time, plus work counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats = {name: LayerStats() for name in SPANS}
        self.counts = Counter()
        self.value_bits_max = 0
        self._stack = []        # open spans: [name, child time]
        self._open = Counter()  # name -> number of open spans with that name
        self._prev_system = None
        self._patched = []

    # -- span bookkeeping ---------------------------------------------------

    def wrap(self, name: str, fn):
        """`fn` with a span named `name` around each call."""
        stats = self.stats[name]
        stack, opened, clock = self._stack, self._open, self.clock
        after = getattr(self, "_after_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            opened[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                opened[name] -= 1
                stats.calls += 1
                stats.busy += duration
                stats.self_time += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
            if after is not None:
                after(args, result)
            return result

        return traced

    def _parent(self):
        return self._stack[-1][0] if self._stack else None

    # -- counters recorded where the work happens ---------------------------

    def _after_linear_lp_solve(self, args, result):
        system = args[0]
        if self._prev_system is not None and (system is self._prev_system
                                              or system == self._prev_system):
            self.counts["lp_repeat"] += 1
        self._prev_system = system
        if result.is_optimal:
            self.value_bits_max = max(self.value_bits_max, _bits(result.value))
        parent = self._parent()
        if parent is not None and parent.startswith("lattice."):
            self.counts["lattice_lp"] += 1
        if self._open["cells.index_build"]:
            self.counts["index_lp"] += 1
        if self._open["decide.decide_le_pure"]:
            self.counts["pure_query_lp"] += 1

    def _after_linear_strict_feasible_point(self, args, result):
        if result is not None:
            self.counts["sfp_hit"] += 1
        if self._open["cells.index_build"]:
            self.counts["index_checks"] += 1
        if self._parent() == "decide.decide_le":
            self.counts["decide_le_checks"] += 1

    def _after_lattice_mixed_feasible(self, args, result):
        if result is not None:
            self.counts["mixed_feasible_hit"] += 1

    def _after_lattice_enumerate_integers(self, args, result):
        self.counts["enumerated_points"] += len(result)

    def _after_cells_index_build(self, args, result):
        self.counts["valid_cells"] += len(result)

    # -- patching -------------------------------------------------------------

    def install(self):
        """Wrap every traced function in all loaded ``bilevel_exact`` modules."""
        homes = {m: importlib.import_module(f"{PACKAGE}.{m}") for m, _ in SPANS.values()}
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for name, (module, attr) in SPANS.items():
            home = homes[module]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, self.wrap(name, original))
                self._patched.append((cls, meth, original))
                continue
            original = getattr(home, attr)
            wrapper = self.wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, original))

    def uninstall(self):
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    # -- results --------------------------------------------------------------

    def metrics(self, telemetry: dict, overhead_frac: float) -> dict:
        """The per-layer metrics of BENCHMARK.json, as plain numbers."""
        s, c = self.stats, self.counts

        def ratio(num, den):
            return num / den if den else 0.0

        lp = s["linear.lp_solve"]
        sfp = s["linear.strict_feasible_point"]
        return {
            "linear.lp_solve.calls": lp.calls,
            "linear.lp_solve.busy_s": lp.busy,
            "linear.lp_solve.repeat_frac": ratio(c["lp_repeat"], lp.calls),
            "linear.lp_solve.value_bits_max": self.value_bits_max,
            "linear.strict_feasible_point.calls": sfp.calls,
            "linear.strict_feasible_point.self_s": sfp.self_time,
            "linear.strict_feasible_point.hit_frac": ratio(c["sfp_hit"], sfp.calls),
            "linear.recession_bounded.calls": s["linear.recession_bounded"].calls,
            "linear.recession_bounded.busy_s": s["linear.recession_bounded"].busy,
            "lattice.integer_min.calls": s["lattice.integer_min"].calls,
            "lattice.integer_min.self_s": s["lattice.integer_min"].self_time,
            "lattice.mixed_feasible.calls": s["lattice.mixed_feasible"].calls,
            "lattice.mixed_feasible.self_s": s["lattice.mixed_feasible"].self_time,
            "lattice.mixed_feasible.hit_frac": ratio(c["mixed_feasible_hit"],
                                                     s["lattice.mixed_feasible"].calls),
            "lattice.enumerate_integers.calls": s["lattice.enumerate_integers"].calls,
            "lattice.enumerate_integers.points": c["enumerated_points"],
            "lattice.enumerate_integers.self_s": s["lattice.enumerate_integers"].self_time,
            "lattice.lp_calls": c["lattice_lp"],
            "cells.index_build.calls": s["cells.index_build"].calls,
            "cells.index_build.busy_s": s["cells.index_build"].busy,
            "cells.index_build.valid_cells": c["valid_cells"],
            "cells.index_build.valid_per_check": ratio(c["valid_cells"], c["index_checks"]),
            "cells.index_build.lp_calls": c["index_lp"],
            "cells.integer_candidates.calls": s["cells.integer_candidates"].calls,
            "cells.integer_candidates.busy_s": s["cells.integer_candidates"].busy,
            "cells.cell_infimum.calls": s["cells.cell_infimum"].calls,
            "cells.bilevel_feasible.calls": s["cells.bilevel_feasible"].calls,
            "cells.bilevel_feasible.busy_s": s["cells.bilevel_feasible"].busy,
            "decide.scan_build.calls": s["decide.scan_build"].calls,
            "decide.scan_build.self_s": s["decide.scan_build"].self_time,
            "decide.decide_le.calls": s["decide.decide_le"].calls,
            "decide.decide_le.self_s": s["decide.decide_le"].self_time,
            "decide.decide_le.checks_per_query": ratio(c["decide_le_checks"],
                                                       s["decide.decide_le"].calls),
            "decide.decide_eq.calls": s["decide.decide_eq"].calls,
            "decide.decide_eq.self_s": s["decide.decide_eq"].self_time,
            "decide.decide_le_pure.calls": s["decide.decide_le_pure"].calls,
            "decide.decide_le_pure.self_s": s["decide.decide_le_pure"].self_time,
            "decide.decide_le_pure.lp_per_query": ratio(c["pure_query_lp"],
                                                        s["decide.decide_le_pure"].calls),
            "engine.objective_bounds.calls": s["engine.objective_bounds"].calls,
            "engine.objective_bounds.busy_s": s["engine.objective_bounds"].busy,
            "engine.lex_extract.calls": s["engine.lex_extract"].calls,
            "engine.lex_extract.self_s": s["engine.lex_extract"].self_time,
            "engine.eps_point.calls": s["engine.eps_point"].calls,
            "engine.rational_reconstruct.busy_s": s["engine.rational_reconstruct"].busy,
            "engine.telemetry.decision_queries": telemetry.get("decision_queries", 0),
            "engine.telemetry.bisection_steps": telemetry.get("bisection_steps", 0),
            "engine.telemetry.reconstruction_steps": telemetry.get("reconstruction_steps", 0),
            "engine.telemetry.cells": telemetry.get("cells", 0),
            "instance_io.parse_instance.calls": s["instance_io.parse_instance"].calls,
            "instance_io.parse_instance.self_s": s["instance_io.parse_instance"].self_time,
            "instance_io.report_to_json.busy_s": s["instance_io.report_to_json"].busy,
            "cli.cli_main.self_s": s["cli.cli_main"].self_time,
            "trace.overhead_frac": overhead_frac,
        }
