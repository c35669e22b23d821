"""Rational parsing, p-adic valuations, and truncated p-adic arithmetic."""

from fractions import Fraction

import pytest

from propfox import (
    DivisionByZero,
    PAdicApprox,
    format_rational,
    parse_rational,
    unit_ball_check,
    valuation,
)


def test_parse_rational_integers_and_fractions():
    assert parse_rational("7") == Fraction(7)
    assert parse_rational("-3") == Fraction(-3)
    assert parse_rational("1/4") == Fraction(1, 4)
    assert parse_rational("-9/6") == Fraction(-3, 2)


@pytest.mark.parametrize("bad", ["", "1.5", "1/0", "a", "1/2/3"])
def test_parse_rational_rejects(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


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


def test_padic_from_rational_and_residue():
    x = PAdicApprox.from_rational(Fraction(4), 3, 4)
    assert x.residue(4) == 4
    y = PAdicApprox.from_rational(Fraction(1, 2), 3, 4)
    assert (y.residue(4) * 2) % 81 == 1
    neg = PAdicApprox.from_rational(Fraction(1, 3), 3, 4)
    assert neg.val == -1
    assert neg.absprec == 3


def test_padic_arithmetic_matches_fractions():
    p, n = 3, 5
    mod = p**n
    a, b = Fraction(7, 4), Fraction(-5, 2)
    x = PAdicApprox.from_rational(a, p, n)
    y = PAdicApprox.from_rational(b, p, n)

    def residue_of(q):
        return (q.numerator * pow(q.denominator, -1, mod)) % mod

    assert (x + y).residue((x + y).absprec) == residue_of(a + b) % 3 ** (x + y).absprec
    assert (x * y).residue(n) == residue_of(a * b)
    assert (x - y).residue((x - y).absprec) == residue_of(a - b) % 3 ** (x - y).absprec
    assert x.invert().residue(n) == residue_of(1 / a)


def test_padic_zero_state():
    z = PAdicApprox.zero(3, 4)
    assert z.is_zero_state()
    x = PAdicApprox.from_rational(Fraction(2), 3, 4)
    assert not x.is_zero_state()
    assert (x - x).is_zero_state()
    with pytest.raises(DivisionByZero):
        z.invert()


def test_padic_agrees_with():
    x = PAdicApprox.from_rational(Fraction(4), 3, 6)
    y = PAdicApprox.from_rational(Fraction(4 + 3**4), 3, 4)
    assert x.agrees_with(y)
    z = PAdicApprox.from_rational(Fraction(5), 3, 6)
    assert not x.agrees_with(z)


def test_padic_mixed_operands():
    x = PAdicApprox.from_rational(Fraction(7), 5, 4)
    assert (x + 3).residue(4) == 10
    assert (2 * x).residue(4) == 14
    assert (x - Fraction(2)).residue(4) == 5


@pytest.mark.parametrize(
    "prime, val, unit, prec",
    [
        (3, 0, 1, 0),  # precision below 1
        (3, None, 2, 4),  # zero state with a nonzero unit
        (3, 0, 0, 4),  # unit 0 outside the zero state
        (3, 0, 81, 4),  # unit not reduced modulo p^prec
        (3, 1, 6, 4),  # unit divisible by p
    ],
)
def test_padic_rejects_broken_invariants(prime, val, unit, prec):
    with pytest.raises(ValueError):
        PAdicApprox(prime, val, unit, prec)


def test_padic_rejects_residue_below_precision_and_mixed_primes():
    x = PAdicApprox.from_rational(Fraction(4), 3, 2)
    with pytest.raises(ValueError, match="known mod p"):
        x.residue(3)
    y = PAdicApprox.from_rational(Fraction(4), 5, 2)
    with pytest.raises(ValueError, match="different primes"):
        x.agrees_with(y)
    with pytest.raises(ValueError, match="different primes"):
        x + y
