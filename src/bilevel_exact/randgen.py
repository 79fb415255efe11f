"""Random bounded instances for the agreement harnesses.

Shapes stay tiny (n, d up to 2, up to three structural rows per level) and
every instance gets box rows so the boundedness invariants hold by
construction; beyond that the data is unconstrained, so infeasible and
unattained cases all show up.
"""
from __future__ import annotations

import random

from .cells import Instance


def _coeff(rng: random.Random, lo: int, hi: int, zero_bias: float = 0.0) -> int:
    if zero_bias and rng.random() < zero_bias:
        return 0
    return rng.randint(lo, hi)


def random_instance(rng: random.Random) -> Instance:
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
        row = [0] * n
        row[j] = 1
        a_rows.append(row[:])
        b_rows.append([0] * d)
        u.append(toward)
        row[j] = -1
        a_rows.append(row[:])
        b_rows.append([0] * d)
        u.append(away)

    c_rows, d_rows, p = [], [], []
    for _ in range(h0):
        c_rows.append([_coeff(rng, -3, 3, zero_bias=0.25) for _ in range(n)])
        d_rows.append([_coeff(rng, -2, 2, zero_bias=0.25) for _ in range(d)])
        p.append(_coeff(rng, -2, 3))
    for j in range(n):  # x box in the upper level keeps P bounded
        row = [0] * n
        row[j] = 1
        c_rows.append(row[:])
        d_rows.append([0] * d)
        p.append(rng.randint(1, 2))
        row = [0] * n
        row[j] = -1
        c_rows.append(row[:])
        d_rows.append([0] * d)
        p.append(rng.randint(0, 2))
    for j in range(d):  # z upper bounds; z >= 0 is implicit
        row = [0] * d
        row[j] = 1
        d_rows.append(row[:])
        c_rows.append([0] * n)
        p.append(rng.randint(1, 2))

    return Instance(
        n=n, d=d,
        A=a_rows, B=b_rows, C=c_rows, D=d_rows,
        c=[_coeff(rng, -3, 3) for _ in range(n)],
        e=[_coeff(rng, -3, 3) for _ in range(d)],
        psi=[_coeff(rng, -3, 3) for _ in range(n)],
        u=u, p=p,
    )
