from __future__ import annotations

from fractions import Fraction

import pytest

from fibdense.errors import NoSquareRoot, ZeroInput
from fibdense.exactmath import (
    enumerate_rationals,
    is_square,
    rat_from_string,
    rat_height,
    rat_sqrt,
    rat_to_string,
)


def test_parse_round_trip():
    for s in ["0", "1", "-1", "3/4", "-22/7", "100/3"]:
        assert rat_to_string(rat_from_string(s)) == s.lstrip("+")


def test_parse_accepts_plus_sign():
    assert rat_from_string("+5/3") == Fraction(5, 3)


@pytest.mark.parametrize(
    "bad", ["1.5", "1e3", "", "/2", "2/", "a", "2 /3", "0x10", " 3 ", "3\n", "\u0663/\u0664"]
)
def test_parse_rejects_non_rational_syntax(bad):
    with pytest.raises(ValueError):
        rat_from_string(bad)


def test_parse_rejects_zero_denominator():
    with pytest.raises(ZeroInput):
        rat_from_string("2/0")


def test_height_examples():
    assert rat_height(Fraction(0)) == 1  # max(|0|, 1)
    assert rat_height(Fraction(1)) == 1
    assert rat_height(Fraction(-7, 2)) == 7
    assert rat_height(Fraction(2, 9)) == 9


def test_enumerate_small_bounds():
    assert enumerate_rationals(1) == [Fraction(0), Fraction(-1), Fraction(1)]
    assert enumerate_rationals(2) == [
        Fraction(0),
        Fraction(-1),
        Fraction(1),
        Fraction(-2),
        Fraction(-1, 2),
        Fraction(1, 2),
        Fraction(2),
    ]


def test_enumerate_prefix_property():
    small = enumerate_rationals(4)
    big = enumerate_rationals(9)
    assert big[: len(small)] == small


def test_enumerate_is_exactly_the_height_ball():
    for bound in (1, 2, 3, 7, 12):
        got = enumerate_rationals(bound)
        assert len(got) == len(set(got))
        expected = {Fraction(0)}
        for q in range(1, bound + 1):
            for p in range(-bound, bound + 1):
                expected.add(Fraction(p, q))
        expected = {r for r in expected if rat_height(r) <= bound}
        assert set(got) == expected


def test_enumerate_heights_nondecreasing():
    seq = enumerate_rationals(25)
    heights = [rat_height(r) for r in seq]
    assert heights == sorted(heights)


def test_square_detection():
    assert is_square(Fraction(4, 9))
    assert rat_sqrt(Fraction(4, 9)) == Fraction(2, 3)
    assert is_square(Fraction(0))
    assert not is_square(Fraction(-4))
    assert not is_square(Fraction(2))
    assert not is_square(Fraction(1, 2))
    with pytest.raises(NoSquareRoot):
        rat_sqrt(Fraction(3))
