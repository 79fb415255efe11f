"""Exact rational scalars and vectors, and a subdeterminant bound.

Nothing in the library is ever rounded. Integer data stays int: instance
data, cells, the coefficients of every row (linear.LinRow), the objectives
of integer data that the LP and integer routines take as int sequences, and
the integer matrices that linear.recession_bounded and subdeterminant_bound
take as tuples of int rows. Rational values are `fractions.Fraction`s, and
the immutable QVector here holds rational points: LP optima, z* and
witnesses. A QVector carries its dimension, and operations on two of them
reject a mismatch. A caller's threshold, an alpha, an eps or a v*, becomes
a Fraction through `as_rat` alone.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Iterator

Rat = Fraction


def parse_rat(text: str) -> Rat:
    """Parse the "p/q" (or "p") serialization; sign sits on the numerator."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational: {text!r}") from exc


def as_rat(value) -> Rat:
    """A caller's threshold as an exact rational: an int (not a bool), a
    Fraction, or a str that parse_rat reads. Anything else, a float or a
    bool say, raises ValueError: it would turn into a rational that the
    caller never wrote."""
    if type(value) is str:
        return parse_rat(value)
    if type(value) is not int and type(value) is not Fraction:
        raise ValueError(f"a threshold must be int, Fraction or str, got {value!r}")
    return Fraction(value)


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
    """Immutable dense vector of rationals, built from ints and Fractions;
    any other entry, a float, a bool or a str say, raises ValueError."""

    __slots__ = ("entries",)

    def __init__(self, entries: Iterable):
        entries = tuple(entries)
        if any(type(e) is not int and type(e) is not Fraction for e in entries):
            raise ValueError("QVector entries must be int or Fraction")
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
        if type(factor) is not int and type(factor) is not Fraction:
            raise ValueError("a QVector factor must be int or Fraction")
        return QVector(factor * a for a in self.entries)

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


def subdeterminant_bound(rows, ncols: int) -> int:
    """Integer upper bound on |det S| over all square submatrices S of the
    matrix with the given integer rows, each of ncols entries.

    Product over columns of max(1, ceil of the column 2-norm); Hadamard's
    inequality makes this dominate every square subdeterminant. No rows
    give 1; a row of another length or a non-int entry raises ValueError.
    """
    if any(len(row) != ncols for row in rows):
        raise ValueError(f"subdeterminant_bound needs rows of {ncols} entries")
    if any(type(v) is not int for row in rows for v in row):
        raise ValueError("subdeterminant_bound needs an integer matrix")
    bound = 1
    for j in range(ncols):
        bound *= max(1, isqrt_ceil(sum(row[j] ** 2 for row in rows)))
    return bound
