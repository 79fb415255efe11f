"""Exact rational scalars, vectors, and matrices.

Every number in the library is a `fractions.Fraction`; nothing is ever
rounded. Vectors and matrices are immutable, carry explicit dimensions, and
reject shape mismatches at construction time.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

Rat = Fraction


def parse_rat(text: str) -> Rat:
    """Parse the "p/q" (or "p") serialization; sign sits on the numerator."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational: {text!r}") from exc


def format_rat(q: Rat) -> str:
    return str(Fraction(q))


def floor_rat(q: Rat) -> int:
    """Largest integer <= q. floor(7/2) = 3, floor(-1/2) = -1, floor(-3) = -3."""
    return math.floor(q)


def ceil_rat(q: Rat) -> int:
    return math.ceil(q)


def isqrt_ceil(v: int) -> int:
    """Smallest integer whose square is >= v (v >= 0)."""
    r = math.isqrt(v)
    return r if r * r == v else r + 1


class QVector:
    """Immutable dense vector of rationals."""

    __slots__ = ("entries",)

    def __init__(self, entries: Iterable):
        object.__setattr__(self, "entries", tuple(
            e if type(e) is Fraction else Fraction(e) for e in entries))

    @property
    def dim(self) -> int:
        return len(self.entries)

    def dot(self, other: "QVector") -> Rat:
        if len(self.entries) != len(other.entries):
            raise ValueError(f"dot of dim {len(self.entries)} with dim {len(other.entries)}")
        return sum((a * b for a, b in zip(self.entries, other.entries)), Fraction(0))

    def __add__(self, other: "QVector") -> "QVector":
        if len(self.entries) != len(other.entries):
            raise ValueError("vector dimensions differ")
        return QVector(a + b for a, b in zip(self.entries, other.entries))

    def __sub__(self, other: "QVector") -> "QVector":
        if len(self.entries) != len(other.entries):
            raise ValueError("vector dimensions differ")
        return QVector(a - b for a, b in zip(self.entries, other.entries))

    def scaled(self, factor) -> "QVector":
        f = Fraction(factor)
        return QVector(f * a for a in self.entries)

    def is_integral(self) -> bool:
        return all(e.denominator == 1 for e in self.entries)

    def __setattr__(self, name, value):
        raise AttributeError("QVector is immutable")

    def __getitem__(self, i):
        return self.entries[i]

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[Rat]:
        return iter(self.entries)

    def __eq__(self, other) -> bool:
        return isinstance(other, QVector) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(("QVector", self.entries))

    def __repr__(self) -> str:
        return "QVector([%s])" % ", ".join(format_rat(e) for e in self.entries)


class QMatrix:
    """Immutable dense matrix of rationals with explicit row and column counts."""

    __slots__ = ("entries", "nrows", "ncols")

    def __init__(self, rows: Iterable[Iterable], ncols: int | None = None):
        converted = tuple(tuple(Fraction(e) for e in row) for row in rows)
        if converted:
            width = len(converted[0])
            if any(len(row) != width for row in converted):
                raise ValueError("ragged rows in matrix")
            if ncols is not None and ncols != width:
                raise ValueError(f"declared ncols {ncols} but rows have {width}")
        else:
            if ncols is None:
                raise ValueError("empty matrix needs an explicit column count")
            width = ncols
        object.__setattr__(self, "entries", converted)
        object.__setattr__(self, "nrows", len(converted))
        object.__setattr__(self, "ncols", width)

    def matvec(self, v: QVector | Sequence) -> QVector:
        vals = tuple(Fraction(e) for e in v)
        if len(vals) != self.ncols:
            raise ValueError(f"matvec dim {len(vals)} against {self.ncols} columns")
        return QVector(sum((a * b for a, b in zip(row, vals)), Fraction(0)) for row in self.entries)

    def is_integral(self) -> bool:
        return all(e.denominator == 1 for row in self.entries for e in row)

    def __setattr__(self, name, value):
        raise AttributeError("QMatrix is immutable")

    def __eq__(self, other) -> bool:
        return isinstance(other, QMatrix) and self.entries == other.entries and self.ncols == other.ncols

    def __hash__(self) -> int:
        return hash(("QMatrix", self.entries, self.ncols))

    def __repr__(self) -> str:
        return f"QMatrix({[list(map(format_rat, row)) for row in self.entries]}, ncols={self.ncols})"


def subdeterminant_bound(m: QMatrix) -> int:
    """Integer upper bound on |det S| over all square submatrices S of m.

    Product over columns of max(1, ceil of the column 2-norm); Hadamard's
    inequality makes this dominate every square subdeterminant. Requires
    integer entries; an empty matrix gives 1.
    """
    if not m.is_integral():
        raise ValueError("subdeterminant_bound needs an integer matrix")
    bound = 1
    for j in range(m.ncols):
        sq = sum(int(row[j]) ** 2 for row in m.entries)
        bound *= max(1, isqrt_ceil(sq))
    return bound
