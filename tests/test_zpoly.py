"""The dense integer Laurent form: Kronecker products with signed slots,
exact and pseudo division, and the verified heuristic gcd."""

from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from propfox import zpoly

from laurent_oracle import FractionLaurent

SUITE = settings(max_examples=500, derandomize=True, deadline=None)

coefficients = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=-(2**70), max_value=2**70),
)
values = st.builds(
    lambda shift, c: zpoly._trim(shift, c),
    st.integers(min_value=-4, max_value=4),
    st.lists(coefficients, max_size=7),
)
nonzero_values = values.filter(lambda a: a[1])


def horner_value_at(a, n: int, d: int) -> tuple[int, int]:
    """zpoly.value_at by Horner's rule alone, one step per coefficient:
    the sum of c_i n^i d^(m - i) over d^m, times (n / d)^shift."""
    shift, c = a
    if not c:
        return 0, 1
    acc, den = c[-1], 1
    if d == 1:
        for x in c[-2::-1]:
            acc = acc * n + x
    else:
        for x in c[-2::-1]:
            den *= d
            acc = acc * n + x * den
    if shift >= 0:
        return acc * n**shift, den * d**shift
    return acc * d**-shift, den * n**-shift


@st.composite
def evaluation_problems(draw):
    """(a, n, d): a value of up to 40 coefficients with a shift from -6 to
    6, at n / d with d = 1 or d > 1 (n != 0 when a has a negative
    exponent)."""
    c = draw(st.lists(coefficients, max_size=40))
    a = zpoly._trim(draw(st.integers(min_value=-6, max_value=6)), c)
    d = draw(st.one_of(st.just(1), st.integers(min_value=2, max_value=10**6)))
    n = draw(st.integers(min_value=-(10**6), max_value=10**6).filter(lambda n: n or a[0] >= 0))
    return a, n, d


def laurent(a) -> FractionLaurent:
    """The zpoly value a in the dict-of-Fraction ring."""
    return FractionLaurent({a[0] + i: c for i, c in enumerate(a[1])})


@SUITE
@given(values, values, nonzero_values)
def test_arithmetic_matches_the_rational_laurent_ring(a, b, d):
    assert laurent(zpoly.mul(a, b)) == laurent(a) * laurent(b)
    assert laurent(zpoly.add(a, b)) == laurent(a) + laurent(b)
    assert laurent(zpoly.sub(a, b)) == laurent(a) - laurent(b)
    assert zpoly.divexact(zpoly.mul(a, d), d) == a
    c, q, r = zpoly.pseudo_divmod(a, d)
    assert zpoly.add(zpoly.mul(q, d), r) == zpoly.scale(a, c)
    assert not r[1] or len(r[1]) < len(d[1])


@SUITE
@given(nonzero_values, nonzero_values, nonzero_values)
def test_heuristic_gcd_agrees_with_the_remainder_sequence(a, b, c):
    f, h = zpoly.mul(a, c), zpoly.mul(b, c)
    g = zpoly.gcd(f, h)
    assert g == (0, zpoly._prs_gcd(zpoly.normal(f)[1], zpoly.normal(h)[1]))
    for x in (f, h):
        zpoly.divexact(zpoly.primitive(x), g)
    # the common factor divides the gcd over the rationals
    zpoly.divexact(g, zpoly.normal(c))


@SUITE
@given(evaluation_problems())
@example(((0, (1,) * 256), 4, 3))
@example(((-3, (1,) * 257), 4, 3))
@example(((2, (5, -1) * 300), -7, 1))
@example(((-5, tuple(range(1, 1030))), 3, 2))
def test_value_at_by_binary_splitting_matches_horner(case):
    """With the Horner run cut to 1, 3 and 8 coefficients, the drawn values
    fall on both sides of the split and through several levels of it; the
    examples do so at the run value_at uses."""
    a, n, d = case
    expected = horner_value_at(a, n, d)
    for run in (1, 3, 8, zpoly._HORNER_RUN):
        with mock.patch.object(zpoly, "_HORNER_RUN", run):
            assert zpoly.value_at(a, n, d) == expected


def test_signed_slots_carry_negative_and_wide_coefficients():
    a = (-2, (-(2**64) + 1, 0, 5, -1))
    b = (3, (-1, 2**100))
    expected = laurent(a) * laurent(b)
    assert laurent(zpoly.mul(a, b)) == expected
    assert zpoly.mul(a, a) == zpoly.mul(a, (a[0], tuple(a[1])))


def test_divexact_refuses_a_remainder():
    with pytest.raises(ValueError):
        zpoly.divexact((0, (1, 0, 1)), (0, (1, 1)))
    with pytest.raises(ValueError):
        zpoly.divexact((0, (2, 4)), (0, (3,)))
    with pytest.raises(ValueError):
        zpoly.divexact((0, (1,)), (0, (1, 1)))


# g + 1 and 100 g^2 - 100 g + 57 are coprime, but both values at the first
# evaluation point 2^8 are multiples of 257 = 2^8 + 1: h(-1) = 257. The
# image gcd 257 reads back as g + 1, which does not divide h, so GCDHEU
# rejects that point.
F = (0, (1, 1))
H = (0, (57, -100, 100))


def test_heuristic_gcd_rejects_a_false_image_and_tries_the_next_point():
    assert zpoly._pack(F[1], 8) == 257
    assert zpoly._pack(H[1], 8) % 257 == 0
    assert zpoly._heu_gcd(F[1], H[1]) == (1,)
    assert zpoly.gcd(F, H) == zpoly.ONE


def test_heuristic_gcd_falls_back_to_the_remainder_sequence(monkeypatch):
    monkeypatch.setattr(zpoly, "_HEU_TRIES", 1)
    assert zpoly._heu_gcd(F[1], H[1]) is None
    calls = []
    prs = zpoly._prs_gcd

    def spy(a, b):
        calls.append((a, b))
        return prs(a, b)

    monkeypatch.setattr(zpoly, "_prs_gcd", spy)
    assert zpoly.gcd(F, H) == zpoly.ONE
    assert calls == [(F[1], H[1])]
