"""LaurentPoly, one integer form over one least denominator, against the
dict-of-Fraction ring of laurent_oracle: construction, ring operations,
division and gcd, the text form, and equality and hashing, each suite on
500 derandomized examples. Every value LaurentPoly returns must also be in
its normal form: den >= 1, a trimmed form, gcd(den, coefficients) = 1."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

import laurent_oracle as lo
from fitting_oracle import div_exact
from laurent_oracle import FractionLaurent

SUITE = settings(max_examples=500, derandomize=True, deadline=None)

coefficients = st.one_of(
    st.integers(min_value=-9, max_value=9),
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
    st.builds(Fraction, st.integers(min_value=-(10**30), max_value=10**30), st.sampled_from([1, 4, 9, 49])),
)


@st.composite
def term_inputs(draw):
    """A dict or a list of (exponent, coefficient) pairs, the list with
    repeated exponents and, in some draws, the negations of some of its
    pairs appended, so that sums cancel, down to zero."""
    pairs = draw(st.lists(st.tuples(st.integers(min_value=-5, max_value=5), coefficients), max_size=6))
    if pairs and draw(st.booleans()):
        cancel = draw(st.lists(st.sampled_from(range(len(pairs))), max_size=len(pairs)))
        if draw(st.booleans()):
            cancel = range(len(pairs))
        pairs += [(pairs[i][0], -pairs[i][1]) for i in cancel]
    return dict(pairs) if draw(st.booleans()) else pairs


def both(inp):
    return LaurentPoly(inp), FractionLaurent(inp)


def assert_normal(f: LaurentPoly):
    low, c = f.form
    assert type(f.den) is int and f.den >= 1
    assert all(type(x) is int for x in c)
    assert math.gcd(f.den, *c) == 1
    assert (low, c) == zpoly.ZERO or (c[0] and c[-1])


def assert_same(f: LaurentPoly, o: FractionLaurent):
    """f is in normal form and holds the oracle's value."""
    assert_normal(f)
    assert f.terms == o.terms
    assert all(type(c) is Fraction for c in f.terms.values())


@SUITE
@given(term_inputs())
def test_construction_matches_the_oracle(inp):
    f, o = both(inp)
    assert_same(f, o)
    assert f.is_zero() == o.is_zero() == (not f)
    assert f.is_one() == o.is_one()
    if o.is_zero():
        assert f == LaurentPoly.zero()
        with pytest.raises(ValueError):
            f.min_exp()
        with pytest.raises(ValueError):
            f.max_exp()
    else:
        assert (f.min_exp(), f.max_exp()) == (o.min_exp(), o.max_exp())
    for k in range(-7, 8):
        assert f.coeff(k) == o.coeff(k)
    # built again from its own terms, from its pairs, and from its form
    assert LaurentPoly(f.terms) == f == LaurentPoly(list(f.terms.items()))
    assert LaurentPoly.from_form(f.form, f.den) == f


@SUITE
@given(term_inputs(), term_inputs(), coefficients, st.integers(min_value=-6, max_value=6))
def test_ring_operations_match_the_oracle(a, b, c, k):
    (f, of), (h, oh) = both(a), both(b)
    assert_same(f + h, of + oh)
    assert_same(f - h, of - oh)
    assert_same(f * h, of * oh)
    assert_same(-f, -of)
    assert_same(f.scale(c), of.scale(Fraction(c)))
    assert_same(f * c, of * Fraction(c))
    assert_same(k * f, of * k)
    assert_same(f.shift(k), of.shift(k))
    point = Fraction(k, 1 + abs(k) % 4)
    try:
        expected = of.eval_at(point)
    except DivisionByZero:
        with pytest.raises(DivisionByZero):
            f.eval_at(point)
    else:
        assert f.eval_at(point) == expected


@SUITE
@given(term_inputs(), term_inputs(), st.sampled_from([2, 3, 5]))
def test_division_and_gcd_match_the_oracle(a, b, p):
    (f, of), (d, od) = both(a), both(b)
    if od.is_zero():
        assert laurent_divides(d, f) == of.is_zero()
    else:
        # c*F = Q*D + R on the forms of f = F / a and d = D / b: the
        # quotient is Q*b / (c*a) and the remainder R / (c*a)
        c, Q, R = zpoly.pseudo_divmod(f.form, d.form)
        q = LaurentPoly.from_form(zpoly.scale(Q, d.den), c * f.den)
        r = LaurentPoly.from_form(R, c * f.den)
        oq, orem = lo.laurent_divmod(of, od)
        assert_same(q, oq)
        assert_same(r, orem)
        assert laurent_divides(d, f) == lo.laurent_divides(od, of) == orem.is_zero()
        if orem.is_zero():
            assert_same(div_exact(f, d), oq)
        else:
            with pytest.raises(ValueError):
                div_exact(f, d)
        assert_same(div_exact(f * d, d), of)
    assert_same(normalize_associate(f), lo.normalize_associate(of))
    fs = [f, d, f * d]
    assert_same(gcd_many(fs), lo.gcd_many([of, od, of * od]))
    assert_same(gcd_many([]), FractionLaurent.zero())
    assert content_valuation(f, p) == lo.content_valuation(of, p)


@SUITE
@given(term_inputs())
def test_text_form_matches_the_oracle_and_parses_back(inp):
    f, o = both(inp)
    text = format_laurent(f)
    assert text == lo.format_laurent(o)
    assert parse_laurent(text) == f


@SUITE
@given(term_inputs(), term_inputs(), st.integers(min_value=-4, max_value=4), st.integers(1, 12))
def test_equality_and_hash_follow_the_value(a, b, k, m):
    (f, of), (h, oh) = both(a), both(b)
    assert (f == h) == (of == oh)
    if f == h:
        assert hash(f) == hash(h)
    # the same value by other routes: the normal form is unique
    again = [
        f + LaurentPoly.zero(),
        f.shift(k).shift(-k),
        f.scale(m).scale(Fraction(1, m)),
        -(-f),
        LaurentPoly.from_form(zpoly.scale(f.form, -m), -m * f.den),
        (f + h) - h,
    ]
    if not oh.is_zero():
        again.append(div_exact(f * h, h))
    for x in again:
        assert_normal(x)
        assert x == f and hash(x) == hash(f)
