"""Seeded instance generators for the benchmark workloads.

The generators live here, not in ``bilevel_exact.randgen``, so that a later
change to the program's own generator cannot change a workload. Instances are
plain JSON documents in the program's file format (``format_version`` 1), and
the same seed always gives byte-identical text.

``acceptance_instance`` draws from the distribution of the acceptance batches
(seed 20260823 gives the 220-instance mixed batch, seed 914 the pure batch).
``grid_instance`` draws the larger instances of the scaling families: ``n``
follower variables, ``d`` leader variables, ``m0`` structural rows per level
and box size ``K``.
"""
from __future__ import annotations

import json
import random
from fractions import Fraction


def _coeff(rng: random.Random, lo: int, hi: int, zero_bias: float = 0.0) -> int:
    if zero_bias and rng.random() < zero_bias:
        return 0
    return rng.randint(lo, hi)


def _unit(k: int, j: int, sign: int = 1) -> list:
    row = [0] * k
    row[j] = sign
    return row


def _document(name: str, variant: str, n: int, d: int, rows: dict) -> dict:
    doc = {"format_version": 1, "name": name, "variant": variant, "n": n, "d": d}
    doc.update(rows)
    return doc


def acceptance_instance(rng: random.Random, name: str, variant: str) -> dict:
    """One instance of the acceptance distribution.

    Draws the same random numbers in the same order as the acceptance
    batches did when this benchmark was written, so a seed reproduces them.
    """
    n = rng.choice((1, 1, 2))
    d = rng.choice((1, 1, 2))
    m0 = rng.choice((0, 1, 1, 2, 2, 3))
    h0 = rng.choice((0, 1, 1, 2, 2, 3))

    a_rows, b_rows, u = [], [], []
    for _ in range(m0):
        a_rows.append([_coeff(rng, -3, 3) for _ in range(n)])
        b_rows.append([_coeff(rng, -1, 1, zero_bias=0.3) for _ in range(d)])
        u.append(_coeff(rng, -3, 3))
    for j in range(n):  # follower box keeps A's recession cone trivial
        away = rng.randint(0, 2)
        toward = rng.randint(0, 2)
        a_rows.append(_unit(n, j))
        b_rows.append([0] * d)
        u.append(toward)
        a_rows.append(_unit(n, j, -1))
        b_rows.append([0] * d)
        u.append(away)

    c_rows, d_rows, p = [], [], []
    for _ in range(h0):
        c_rows.append([_coeff(rng, -3, 3, zero_bias=0.25) for _ in range(n)])
        d_rows.append([_coeff(rng, -2, 2, zero_bias=0.25) for _ in range(d)])
        p.append(_coeff(rng, -2, 3))
    for j in range(n):  # x box in the upper level keeps P bounded
        c_rows.append(_unit(n, j))
        d_rows.append([0] * d)
        p.append(rng.randint(1, 2))
        c_rows.append(_unit(n, j, -1))
        d_rows.append([0] * d)
        p.append(rng.randint(0, 2))
    for j in range(d):  # z upper bounds; z >= 0 is implicit
        d_rows.append(_unit(d, j))
        c_rows.append([0] * n)
        p.append(rng.randint(1, 2))

    c = [_coeff(rng, -3, 3) for _ in range(n)]
    e = [_coeff(rng, -3, 3) for _ in range(d)]
    psi = [_coeff(rng, -3, 3) for _ in range(n)]
    return _document(name, variant, n, d, {
        "A": a_rows, "B": b_rows, "C": c_rows, "D": d_rows,
        "c": c, "e": e, "psi": psi, "u": u, "p": p})


def grid_instance(rng: random.Random, name: str, shape: tuple, variant: str) -> dict:
    """An instance of shape (n, d, m0, K).

    The follower has m0 coupled rows and a box of half-width up to K; the
    leader has m0 coupled rows, the x box and z <= K. Coupling coefficients
    are never all zero, so the floor walk has real ranges to cover. The
    coupled follower rows have right-hand sides of at least 0, so x = 0 is
    follower-feasible at z = 0: nearly every instance is feasible and builds
    its cell index, rather than stopping at the relaxation check.
    """
    n, d, m0, k = shape
    a_rows, b_rows, u = [], [], []
    for _ in range(m0):
        a_rows.append([_coeff(rng, -3, 3) for _ in range(n)])
        b = [_coeff(rng, -1, 1, zero_bias=0.2) for _ in range(d)]
        if not any(b):
            b[rng.randrange(d)] = rng.choice((-1, 1))
        b_rows.append(b)
        u.append(_coeff(rng, 0, k))
    for j in range(n):
        a_rows.append(_unit(n, j))
        b_rows.append([0] * d)
        u.append(rng.randint(1, k))
        a_rows.append(_unit(n, j, -1))
        b_rows.append([0] * d)
        u.append(rng.randint(0, k))

    c_rows, d_rows, p = [], [], []
    for _ in range(m0):
        c_rows.append([_coeff(rng, -2, 2, zero_bias=0.3) for _ in range(n)])
        d_rows.append([_coeff(rng, -2, 2, zero_bias=0.25) for _ in range(d)])
        p.append(_coeff(rng, k, 3 * k))
    for j in range(n):
        c_rows.append(_unit(n, j))
        d_rows.append([0] * d)
        p.append(k)
        c_rows.append(_unit(n, j, -1))
        d_rows.append([0] * d)
        p.append(k)
    for j in range(d):
        d_rows.append(_unit(d, j))
        c_rows.append([0] * n)
        p.append(rng.randint(1, k))

    c = [_coeff(rng, -3, 3) for _ in range(n)]
    e = [_coeff(rng, -3, 3) for _ in range(d)]
    psi = [_coeff(rng, -3, 3) for _ in range(n)]
    return _document(name, variant, n, d, {
        "A": a_rows, "B": b_rows, "C": c_rows, "D": d_rows,
        "c": c, "e": e, "psi": psi, "u": u, "p": p})


def box_objective_range(doc: dict) -> tuple:
    """Bounds of the leader objective over the x and z boxes of a grid instance.

    A cheap, program-independent bracket of the LP range [v_lo, v_hi].
    """
    n, d = doc["n"], doc["d"]
    lo = hi = 0
    for j in range(n):
        # the x box rows are the last 2n rows before the z rows of C
        up = doc["p"][len(doc["p"]) - d - 2 * n + 2 * j]
        down = -doc["p"][len(doc["p"]) - d - 2 * n + 2 * j + 1]
        cj = doc["c"][j]
        lo += min(cj * down, cj * up)
        hi += max(cj * down, cj * up)
    for j in range(d):
        zu = doc["p"][len(doc["p"]) - d + j]
        ej = doc["e"][j]
        lo += min(0, ej * zu)
        hi += max(0, ej * zu)
    return lo, hi


def to_json(doc: dict) -> str:
    return json.dumps(doc, indent=1) + "\n"


def decide_alpha(rng: random.Random, doc: dict, part: int, parts: int) -> Fraction:
    """A threshold P/Q inside part `part` of `parts` equal parts of the box range."""
    lo, hi = box_objective_range(doc)
    t = Fraction(2 * part + 1, 2 * parts) + Fraction(rng.randint(-8, 8), 97 * parts)
    return lo + (hi - lo) * t
