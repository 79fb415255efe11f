"""The benchmark's workloads: which instances, which operation, how many.

A workload writes its instance files into a directory and returns a plan: the
list of files and the ordered list of ops. An op is one full solve, or one
``decide`` query through the command line on ``decide-cold``. A run measures
one pass over the ops. Sizes are set so that a pass takes about ten seconds
on a 2-core x86 machine with Python 3.11; ``mixed-grid`` takes about 15, as
its p90 needs more than 100 of its slow solves to hold still.
"""
from __future__ import annotations

import os
import random
from dataclasses import dataclass
from fractions import Fraction

import gen

EPS = Fraction(1, 8)

# Shapes (n, d, m0, K) drawn round-robin, growing n, d, m0 and K from
# (1, 1, 2, 2). (2, 2, 2, 2) is the scaling family whose cell-index build
# dominates its solve time; it is about twice as slow as the others, which
# stay in one group of op times so the median does not jump between groups
# from seed to seed. decide-cold leaves it out: at the ~20 such instances a
# run can afford, its single queries set the tail, whose spread over five
# seeds was then 0.29 of its median.
GRID_SHAPES = ((1, 2, 2, 2), (2, 1, 2, 2), (1, 2, 2, 3), (1, 2, 3, 2), (2, 2, 2, 2))
DECIDE_SHAPES = GRID_SHAPES[:4]
PURE_SHAPE = (1, 1, 1, 2)


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int      # default seed
    count: int     # instances written
    why: str


WORKLOADS = {w.name: w for w in (
    Workload("mixed-small", 20260823, 440,
             "acceptance mixed distribution; its first 220 instances at the default seed are "
             "the acceptance batch: per-solve fixed cost of screening, LPs, lex extraction"),
    Workload("pure-small", 914, 300,
             "pure instances of one small shape: integer search and the enumeration "
             "cross-check, never a cell index"),
    Workload("mixed-grid", 7, 125,
             "larger mixed instances solved with eps: the cell index build and the "
             "decision scan dominate"),
    Workload("decide-cold", 11, 160,
             "one cold decide query per CLI call on mixed-grid shapes: index set-up for a "
             "single query, per-op parsing and the CLI"),
)}


def _docs(name: str, seed: int, count: int) -> list:
    rng = random.Random(seed)
    if name == "mixed-small":
        return [gen.acceptance_instance(rng, f"{name}-{seed}-{i}", "mixed") for i in range(count)]
    if name == "pure-small":
        return [gen.grid_instance(rng, f"{name}-{seed}-{i}", PURE_SHAPE, "pure")
                for i in range(count)]
    shapes = DECIDE_SHAPES if name == "decide-cold" else GRID_SHAPES
    return [gen.grid_instance(rng, f"{name}-{seed}-{i}", shapes[i % len(shapes)], "mixed")
            for i in range(count)]


def write_plan(name: str, seed: int, directory: str, count=None) -> dict:
    """Write the workload's instance files into `directory`; return its plan.

    Op kinds: "mixed" (solve_mixed, with "eps" when set), "pure" (solve_pure)
    and "decide" (the CLI's decide command at "alpha").
    """
    workload = WORKLOADS[name]
    count = workload.count if count is None else count
    docs = _docs(name, seed, count)
    files = []
    for i, doc in enumerate(docs):
        path = os.path.join(directory, f"{i:04d}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(gen.to_json(doc))
        files.append(path)

    if name == "decide-cold":
        rng = random.Random(seed + 1)
        ops = []
        for i, doc in enumerate(docs):
            alpha = gen.decide_alpha(rng, doc, i % 4, 4)
            ops.append({"file": i, "kind": "decide",
                        "alpha": f"{alpha.numerator}/{alpha.denominator}"})
    else:
        kind = "pure" if name == "pure-small" else "mixed"
        eps = f"{EPS.numerator}/{EPS.denominator}" if name == "mixed-grid" else None
        ops = [{"file": i, "kind": kind, "eps": eps} for i in range(len(docs))]
    return {"workload": name, "seed": seed, "files": files, "ops": ops}
