import itertools
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bilevel_exact import QVector, floor_rat, format_rat, parse_rat, subdeterminant_bound
from bilevel_exact.rational import as_rat, ceil_rat, isqrt_ceil

rationals = st.fractions(max_denominator=10**6)


def brute_max_subdet(entries):
    """Max |det| over all square submatrices, by cofactor expansion."""

    def det(rows):
        if len(rows) == 1:
            return rows[0][0]
        total = 0
        sign = 1
        for j in range(len(rows)):
            minor = [r[:j] + r[j + 1:] for r in rows[1:]]
            total += sign * rows[0][j] * det(minor)
            sign = -sign
        return total

    nr, nc = len(entries), len(entries[0]) if entries else 0
    best = 0
    for k in range(1, min(nr, nc) + 1):
        for ri in itertools.combinations(range(nr), k):
            for ci in itertools.combinations(range(nc), k):
                sub = [[int(entries[i][j]) for j in ci] for i in ri]
                best = max(best, abs(det(sub)))
    return best


def test_parse_format_examples():
    assert parse_rat("-7/8") == Fraction(-7, 8)
    assert parse_rat("3") == Fraction(3)
    assert parse_rat(" 0 ") == Fraction(0)
    assert format_rat(Fraction(-7, 8)) == "-7/8"
    assert format_rat(Fraction(4, 2)) == "2"


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_rat("seven")
    with pytest.raises(ValueError):
        parse_rat("1/0")


@given(rationals)
def test_parse_format_roundtrip(q):
    assert parse_rat(format_rat(q)) == q


def test_floor_ceil_examples():
    assert floor_rat(Fraction(7, 2)) == 3
    assert floor_rat(Fraction(-1, 2)) == -1
    assert floor_rat(Fraction(-3)) == -3
    assert ceil_rat(Fraction(-1, 2)) == 0
    assert ceil_rat(Fraction(5, 1)) == 5


@given(rationals)
def test_floor_ceil_bracket(q):
    f, c = floor_rat(q), ceil_rat(q)
    assert f <= q <= c
    assert c - f == (0 if q.denominator == 1 else 1)


def test_isqrt_ceil_examples():
    assert isqrt_ceil(0) == 0
    assert isqrt_ceil(1) == 1
    assert isqrt_ceil(2) == 2
    assert isqrt_ceil(4) == 2
    assert isqrt_ceil(11) == 4


def test_qvector_dot_and_integrality():
    v = QVector([1, Fraction(1, 2)])
    w = QVector([2, 4])
    assert v.dot(w) == 4
    assert not v.is_integral()
    assert w.is_integral()


@pytest.mark.parametrize("entries", [[0.1], [1, 2.0], [True], [1, "1/2"], [None]])
def test_qvector_takes_ints_and_fractions_only(entries):
    # an int or a Fraction is exact; a float, a bool or a str would be
    # turned into a rational that the data never held, as an entry or as
    # the factor of `scaled`
    with pytest.raises(ValueError, match="int or Fraction"):
        QVector(entries)
    v = QVector([3, Fraction(-1, 2)])
    assert v.entries == (Fraction(3), Fraction(-1, 2))
    with pytest.raises(ValueError, match="int or Fraction"):
        v.scaled(next(e for e in entries if type(e) is not int))
    assert v.scaled(2) == QVector([6, -1])
    assert v.scaled(Fraction(2, 3)) == QVector([2, Fraction(-1, 3)])


def test_as_rat_takes_ints_fractions_and_strs_only():
    # the one rule for a caller's threshold: a str reads as parse_rat reads it
    assert as_rat(3) == 3 and as_rat(Fraction(-1, 2)) == Fraction(-1, 2)
    assert as_rat(" 1/8") == Fraction(1, 8)
    for bad in (0.1, True, None, "seven"):
        with pytest.raises(ValueError):
            as_rat(bad)


def test_subdeterminant_bound_shapes():
    # column norms sqrt(10) and sqrt(20): ceilings 4 and 5
    assert subdeterminant_bound([(1, 2), (3, 4)], 2) == 20
    with pytest.raises(ValueError):
        subdeterminant_bound([(1, 2), (3,)], 2)
    with pytest.raises(ValueError):
        subdeterminant_bound([(1, 2)], 3)
    assert subdeterminant_bound([], 3) == 1


def test_subdeterminant_bound_examples():
    # stacked z-columns of the bundled example: entries 1 and -1 -> norm sqrt(2)
    assert subdeterminant_bound([(1,), (-1,), (0,), (0,), (0,), (0,)], 1) == 2
    assert subdeterminant_bound([(1,), (-1,), (3,)], 1) == 4
    assert subdeterminant_bound([], 1) == 1
    assert subdeterminant_bound([(0,), (0,)], 1) == 1
    assert subdeterminant_bound([(1, 0), (0, 1)], 2) == 1


def test_subdeterminant_bound_rejects_fractions():
    with pytest.raises(ValueError):
        subdeterminant_bound([(Fraction(1, 2),)], 1)


@given(st.lists(st.lists(st.integers(-4, 4), min_size=1, max_size=4),
                min_size=1, max_size=4).filter(
                    lambda rows: len({len(r) for r in rows}) == 1))
def test_subdeterminant_bound_dominates_brute_force(rows):
    assert subdeterminant_bound(rows, len(rows[0])) >= max(1, brute_max_subdet(rows))
