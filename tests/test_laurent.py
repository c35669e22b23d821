"""One-variable Laurent polynomials over the rationals."""

import sys
from fractions import Fraction

import pytest

from propfox import (
    DivisionByZero,
    LaurentPoly,
    content_valuation,
    format_laurent,
    gcd_many,
    laurent_divides,
    normalize_associate,
    parse_laurent,
    zpoly,
)

from fitting_oracle import div_exact

g = LaurentPoly.gamma()


def L(text):
    return parse_laurent(text)


@pytest.mark.parametrize(
    "text",
    [
        "0",
        "1",
        "-4",
        "g - 4",
        "g^2 - 5*g + 4",
        "3*g^-1",
        "-g + 9*g^-1",
        "-g + 7",
        "-4*g + 1",
        "-1 + g^-1",
        "g^2 + 3*g + 1",
        "-2/3*g^5 + 1/2",
    ],
)
def test_parse_format_round_trip(text):
    assert format_laurent(L(text)) == text


def test_parse_accepts_any_term_order():
    assert L("7 - g") == L("-g + 7")
    assert L("1 - 4*g") == L("-4*g + 1")
    assert L("-1 + g^-1") == L("g^-1 - 1")
    assert L("4 - 5*g + g^2") == L("g^2 - 5*g + 4")


def test_parse_rejects_garbage():
    for bad in ["g^", "2**g", "g + ", "^3", "g^1.5"]:
        with pytest.raises(ValueError):
            L(bad)


def test_ring_arithmetic():
    assert (g - L("1")) * (g - L("4")) == L("g^2 - 5*g + 4")
    assert L("g - 4") + L("4") == g
    assert L("3*g^-1") * L("g") == L("3")
    assert -L("g - 4") == L("-g + 4")
    assert LaurentPoly.gamma(3).coeff(3) == 1
    assert LaurentPoly({-2: Fraction(1, 2)}).shift(2) == L("1/2")
    assert L("g - 4").scale(Fraction(3)) == L("3*g - 12")


def test_eval_at():
    f = L("g^2 - 5*g + 4")
    assert f.eval_at(Fraction(4)) == 0
    assert f.eval_at(Fraction(1)) == 0
    assert f.eval_at(Fraction(1, 4)) == Fraction(45, 16)
    assert L("3*g^-1").eval_at(Fraction(1, 2)) == 6


def test_eval_at_matches_term_by_term_sum():
    f = LaurentPoly({-9: Fraction(2, 3), -1: 5, 0: -7, 1: Fraction(-1, 2), 2: 3, 40: 1, 41: -4})
    for a in (Fraction(4), Fraction(-3, 7), Fraction(1), Fraction(-1), Fraction(5, 2)):
        assert f.eval_at(a) == sum(c * a ** k for k, c in f.terms.items())
    assert LaurentPoly({-6: 3}).eval_at(Fraction(1, 2)) == 192
    assert LaurentPoly.zero().eval_at(Fraction(2)) == 0
    with pytest.raises(DivisionByZero):
        f.eval_at(0)


def test_text_prints_past_the_int_to_str_limit():
    """At Python's default limit of 4,300 digits, which str obeys and the
    CLI lifts, format_laurent and repr print 5,000-digit numerators and
    denominators."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("no int-to-str digit limit in this interpreter")
    big = 10**5000
    saved = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(0)
        digits, den_digits = str(big), str(big + 1)
        sys.set_int_max_str_digits(4300)
        f = LaurentPoly({0: big, 1: 1})
        assert format_laurent(f) == f"g + {digits}"
        assert repr(f) == f"LaurentPoly('g + {digits}')"
        h = LaurentPoly({0: Fraction(1, big + 1), 1: -big})
        assert format_laurent(h) == f"-{digits}*g + 1/{den_digits}"
    finally:
        sys.set_int_max_str_digits(saved)


def test_div_exact():
    f = L("g^2 - 5*g + 4")
    assert div_exact(f, L("g - 4")) == L("g - 1")
    assert div_exact(f, L("g - 1")) == L("g - 4")
    with pytest.raises(ValueError):
        div_exact(f, L("g - 2"))
    shifted = L("g - 4") * L("2*g^-3")
    assert div_exact(f, shifted) * shifted == f


def test_pseudo_divmod_shrinks_span():
    # c*f = q*d + r on the integer forms: q / c and r / c are the quotient
    # and remainder in the Laurent ring
    f = L("g^3 + 2*g^-1")
    d = L("3*g^-2 - g^-4")
    c, q, r = zpoly.pseudo_divmod(f.form, d.form)
    q, r = LaurentPoly.from_form(q, c), LaurentPoly.from_form(r, c)
    assert q * d + r == f
    assert r.max_exp() - r.min_exp() < d.max_exp() - d.min_exp()
    assert zpoly.pseudo_divmod(zpoly.ZERO, d.form) == (1, zpoly.ZERO, zpoly.ZERO)


def test_laurent_divides():
    assert laurent_divides(L("g - 4"), L("g^2 - 5*g + 4"))
    assert not laurent_divides(L("g - 2"), L("g^2 - 5*g + 4"))
    assert laurent_divides(L("g - 4"), LaurentPoly.zero())
    assert not laurent_divides(LaurentPoly.zero(), L("g - 4"))
    assert laurent_divides(LaurentPoly.zero(), LaurentPoly.zero())


def test_normalize_associate():
    f = L("3*g^2 - 12*g")
    n = normalize_associate(f)
    assert n == L("g - 4")
    assert normalize_associate(n) == n
    assert normalize_associate(L("-2*g^-5") * L("g - 4")) == L("g - 4")
    assert normalize_associate(LaurentPoly.zero()) == LaurentPoly.zero()


def test_gcd_many():
    assert gcd_many([L("g^2 - 5*g + 4"), L("g^2 - 8*g + 16")]) == L("g - 4")
    assert gcd_many([L("g - 4"), L("g - 2")]) == LaurentPoly.one()
    assert gcd_many([LaurentPoly.zero(), L("3*g - 12")]) == L("g - 4")
    assert gcd_many([LaurentPoly.zero(), LaurentPoly.zero()]) == LaurentPoly.zero()
    assert gcd_many([L("g^-1") * L("g - 4"), L("5*g^3") * L("g - 4")]) == L("g - 4")


def test_content_valuation():
    assert content_valuation(L("3*g + 9"), 3) == 1
    assert content_valuation(L("g + 9"), 3) == 0
    assert content_valuation(L("1/3*g + 9"), 3) == -1
    assert content_valuation(LaurentPoly.zero(), 3) is None


def test_exponent_bookkeeping():
    f = L("-g + 9*g^-1")
    assert f.min_exp() == -1
    assert f.max_exp() == 1
    assert f.coeff(0) == 0
    assert f.coeff(-1) == 9
    with pytest.raises(ValueError):
        LaurentPoly.zero().min_exp()
    with pytest.raises(ValueError):
        LaurentPoly.zero().max_exp()
