"""The dense integer Laurent form: Kronecker products with signed slots,
exact and pseudo division, and the verified heuristic gcd."""

import random
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
    lambda shift, c: zpoly.trim(shift, c),
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
    a = zpoly.trim(draw(st.integers(min_value=-6, max_value=6)), c)
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


def balanced_digits(v: int, w: int) -> list[int]:
    """The balanced base-2^w digits of v, lowest first, in [-2^(w-1),
    2^(w-1)), by one divmod per digit."""
    out = []
    while v:
        v, d = divmod(v, 2**w)
        if d >= 2 ** (w - 1):
            d -= 2**w
            v += 1
        out.append(d)
    return out


def schoolbook(a, b) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


# Slot widths: every array item width, and widths of the
# one-coefficient-at-a-time path on both sides of 64 bits (_slot picks none
# of 24 to 56, but _pack and _digits take any multiple of 8).
SLOT_WIDTHS = (8, 16, 24, 32, 40, 48, 56, 64, 72, 128)


def slot_coefficients(rng, n: int, w: int) -> list[int]:
    """n coefficients of a w-bit slot, about half of them at its edges,
    +-(2^(w-1) - 1) and -2^(w-1), or zero."""
    edge = 2 ** (w - 1)
    return [
        rng.choice((edge - 1, 1 - edge, -edge, 0)) if rng.random() < 0.5 else rng.randrange(-edge, edge)
        for _ in range(n)
    ]


def factor(rng, n: int, w: int) -> list[int]:
    """slot_coefficients with a nonzero top one, as the callers of
    mul_coeffs pass."""
    c = slot_coefficients(rng, n, w)
    c[-1] = c[-1] or 1
    return c


@st.composite
def slot_problems(draw):
    """(w, c, v, a, b): coefficients c of a w-bit slot, 1 to 300 of them; an
    integer v of up to as many w-bit digits, of either sign; and factors a
    and b of 1 to 300 coefficients whose norms put the product's slot
    anywhere from 8 to over 64 bits (b is a for a square)."""
    lengths = st.integers(min_value=1, max_value=300)
    w = draw(st.sampled_from(SLOT_WIDTHS))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    c = slot_coefficients(rng, draw(lengths), w)
    v = rng.choice((-1, 1)) * rng.getrandbits(w * len(c))
    a, b = (factor(rng, draw(lengths), draw(st.integers(min_value=1, max_value=40))) for _ in "ab")
    return w, c, v, a, a if draw(st.booleans()) else b


@SUITE
@given(slot_problems())
@example((24, [2**23 - 1, -(2**23), 1 - 2**23], -(2**70), [-(2**23)] * 300, [2**23 - 1] * 300))
@example((64, [-(2**63)] * 5 + [2**63 - 1], 2**400 - 1, [-(2**39)] * 2, [1]))
# 8x8 and 1x64 terms go by schoolbook, 8x9 by Kronecker with slots past 64 bits
@example((72, [-(2**71), 2**71 - 1], -(2**100), [(-1) ** i * (2**70 - 3 * i) for i in range(8)], [5 - 2**66] * 8))
@example((8, [-128, 127, 0], 2**20, [(-1) ** i * (2**70 - 3 * i) for i in range(8)], [5 - 2**66] * 9))
@example((16, [-(2**15)], -1, [-(2**80)], [(-1) ** i * (i + 2**64) for i in range(64)]))
def test_kronecker_kernel_matches_the_definitions(case):
    """_pack is evaluation at 2^w, _digits the balanced base-2^w digits and
    mul_coeffs the convolution, at slot widths on both sides of 64 bits and
    product sizes on both sides of _SCHOOLBOOK_TERMS."""
    w, c, v, a, b = case
    packed = zpoly._pack(c, w)
    assert packed == sum(x << (w * i) for i, x in enumerate(c))
    assert zpoly._digits(packed, w) == balanced_digits(packed, w)
    assert zpoly._digits(v, w) == balanced_digits(v, w)
    assert zpoly.mul_coeffs(a, b) == schoolbook(a, b)


def test_slots_round_up_to_array_items_up_to_64_bits():
    widths = [zpoly._slot(2**k - 1) for k in range(130)]
    assert sorted(set(widths)) == [8, 16, 32, 64] + list(range(72, 144, 8))
    for k, w in enumerate(widths):
        assert 2 ** (w - 1) > 2**k - 1 and (w <= 64 or w - 8 <= k)
    # GCDHEU's evaluation points, from the first one of a small norm
    w, points = zpoly._slot(1), []
    for _ in range(zpoly._HEU_TRIES):
        points.append(w)
        w = zpoly._width(w * 3 // 2)
    assert points == [8, 16, 32, 64, 96, 144]


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
