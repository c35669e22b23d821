"""Rational parsing and p-adic valuations."""

import sys
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from propfox import (
    format_rational,
    parse_rational,
    unit_ball_check,
    valuation,
)
from propfox import scalars
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


# Integers on both sides of the decimal threshold, small ones, and powers of
# ten with their neighbours; each of either sign.
big_ints = st.builds(
    lambda sign, n: sign * n,
    st.sampled_from((1, -1)),
    st.one_of(
        st.integers(min_value=0, max_value=2**200),
        st.integers(min_value=scalars._DECIMAL_BITS - 64, max_value=scalars._DECIMAL_BITS + 64).flatmap(
            lambda bits: st.integers(min_value=2 ** (bits - 1), max_value=2**bits - 1)
        ),
        st.integers(min_value=2**15, max_value=2**16).flatmap(
            lambda bits: st.integers(min_value=2 ** (bits - 1), max_value=2**bits - 1)
        ),
        st.builds(lambda k, d: 10**k + d, st.integers(min_value=0, max_value=12000), st.sampled_from((-1, 0, 1))),
    ),
)


@settings(max_examples=500, derandomize=True, deadline=None)
@given(big_ints, big_ints.filter(lambda d: d > 0))
@example(10**9864, 1)
@example(-(10**9865), 10**9866)
@example(-(2**scalars._DECIMAL_BITS), 2**scalars._DECIMAL_BITS + 1)
def test_format_rational_matches_str(n, d):
    """With the threshold at its value and cut to 0 bits (every nonzero
    integer by divide and conquer), at leaves of 128 and 7 bits."""
    q = Fraction(n, d)
    saved = sys.get_int_max_str_digits() if hasattr(sys, "set_int_max_str_digits") else 0
    if saved:
        sys.set_int_max_str_digits(0)
    try:
        expected = str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"
        for bits, leaf in ((scalars._DECIMAL_BITS, 128), (0, 128), (0, 7)):
            with mock.patch.object(scalars, "_DECIMAL_BITS", bits), mock.patch.object(
                scalars, "_DECIMAL_LEAF_BITS", leaf
            ):
                assert format_rational(q) == expected
    finally:
        if saved:
            sys.set_int_max_str_digits(saved)


@pytest.mark.parametrize(
    "q",
    [
        Fraction(10**4300),  # 4,301 digits: one past the default limit
        Fraction(-(10**9000) + 1),  # under 2^15 bits, past the limit
        Fraction(1, 3**20000),  # 9,543 digits in the denominator
        Fraction(-(2**scalars._DECIMAL_BITS) - 1, 7),  # past 2^15 bits
    ],
)
def test_format_rational_prints_past_the_int_to_str_limit(q):
    """At Python's default limit of 4,300 digits, which str obeys and the
    CLI lifts, format_rational prints every integer on both sides of
    _DECIMAL_BITS."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("no int-to-str digit limit before Python 3.11")
    saved = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(0)
        expected = str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"
        sys.set_int_max_str_digits(4300)
        with pytest.raises(ValueError):
            str(q)
        assert format_rational(q) == expected
    finally:
        sys.set_int_max_str_digits(saved)


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
