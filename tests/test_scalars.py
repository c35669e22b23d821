"""Rational parsing and p-adic valuations."""

from fractions import Fraction

import pytest

from propfox import (
    format_rational,
    parse_rational,
    unit_ball_check,
    valuation,
)
from propfox.scalars import MAX_LITERAL_DIGITS, parse_int


def test_parse_rational_integers_and_fractions():
    assert parse_rational("7") == Fraction(7)
    assert parse_rational("-3") == Fraction(-3)
    assert parse_rational("1/4") == Fraction(1, 4)
    assert parse_rational("-9/6") == Fraction(-3, 2)


@pytest.mark.parametrize("bad", ["", "1.5", "1/0", "a", "1/2/3"])
def test_parse_rational_rejects(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


def test_literal_digit_bound():
    edge = "9" * MAX_LITERAL_DIGITS
    assert parse_int("-" + edge) == -(10 ** MAX_LITERAL_DIGITS - 1)
    assert parse_rational(f"{edge}/{edge}") == 1
    for text in (edge + "9", f"1/{edge}9", f"-{edge}9/2"):
        with pytest.raises(ValueError, match=f"the limit is {MAX_LITERAL_DIGITS}"):
            parse_rational(text)
    with pytest.raises(ValueError, match="not an integer"):
        parse_int("x")


def test_format_rational():
    assert format_rational(Fraction(7)) == "7"
    assert format_rational(Fraction(-1, 3)) == "-1/3"


def test_valuation():
    assert valuation(Fraction(9), 3) == 2
    assert valuation(Fraction(1, 3), 3) == -1
    assert valuation(Fraction(10, 7), 5) == 1
    assert valuation(12, 2) == 2
    assert valuation(Fraction(0), 3) is None


def test_unit_ball_check():
    assert unit_ball_check(Fraction(4), 3) is True
    assert unit_ball_check(Fraction(1), 3) is True
    assert unit_ball_check(Fraction(2), 3) is False
    assert unit_ball_check(Fraction(1, 3), 3) is False
    assert unit_ball_check(Fraction(-3), 2) is True
    assert unit_ball_check(Fraction(1, 4), 3) is True
