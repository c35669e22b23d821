"""Rational zeros, Hensel lifting, and the unit-ball filter."""

import random
import signal
from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from propfox import (
    IdenticallyZero,
    LaurentPoly,
    filter_unit_ball,
    hensel_roots,
    parse_laurent,
    rational_roots,
    zero_report,
)
from propfox import modp

SUITE = settings(max_examples=500, derandomize=True, deadline=None)


def L(text):
    return parse_laurent(text)


def test_rational_roots_basic():
    assert rational_roots(L("g^2 - 5*g + 4")) == [(Fraction(1), 1), (Fraction(4), 1)]
    assert rational_roots(L("g^2 + 3*g + 1")) == []
    assert rational_roots(L("2*g - 1")) == [(Fraction(1, 2), 1)]
    assert rational_roots(L("g - 4") * L("g - 4") * L("g - 1")) == [
        (Fraction(1), 1),
        (Fraction(4), 2),
    ]


def test_rational_roots_laurent_shift():
    # multiplying by a unit must not change the zero set
    f = L("g^2 - 5*g + 4") * L("3*g^-5")
    assert rational_roots(f) == [(Fraction(1), 1), (Fraction(4), 1)]


def test_rational_roots_identically_zero():
    with pytest.raises(IdenticallyZero):
        rational_roots(LaurentPoly.zero())


def test_hensel_square():
    roots, obstructions = hensel_roots(L("g^2 - 9"), 2, 8)
    assert roots == [3, 253]
    assert obstructions == []


def test_hensel_obstruction():
    roots, obstructions = hensel_roots(L("g^2 + 3*g + 1"), 5, 8)
    assert roots == []
    assert obstructions == [1]


def test_hensel_split():
    roots, _ = hensel_roots(L("g^2 - 5*g + 4"), 3, 8)
    assert roots == sorted({1 % 3**8, 4 % 3**8})


def test_hensel_low_precision_multiple_residue():
    roots, _ = hensel_roots(L("g^2 - 7"), 3, 3)
    assert roots == [13, 14]


def test_hensel_repeated_root():
    roots, obstructions = hensel_roots(L("g - 4") * L("g - 4"), 3, 6)
    assert roots == [4]
    assert obstructions == []


def test_hensel_guards():
    with pytest.raises(IdenticallyZero):
        hensel_roots(LaurentPoly.zero(), 3, 8)
    with pytest.raises(ValueError):
        hensel_roots(L("g - 4"), 3, 0)
    assert hensel_roots(L("5"), 3, 8) == ([], [])


def test_zero_report_and_filter():
    report = zero_report(L("g^2 - 9"), 2, 8)
    assert not report.identically_zero
    assert report.rational == ((Fraction(-3), 1), (Fraction(3), 1))
    assert [r for r, _ in report.padic] == [3, 253]
    kept = filter_unit_ball(report)
    assert kept.rational == report.rational
    assert [r for r, _ in kept.padic] == [3, 253]


def test_zero_report_filter_drops():
    # zeros at 2 and 4: only 4 is congruent to 1 mod 3
    report = zero_report(L("g - 2") * L("g - 4"), 3, 6)
    assert report.rational == ((Fraction(2), 1), (Fraction(4), 1))
    kept = filter_unit_ball(report)
    assert kept.rational == ((Fraction(4), 1),)
    assert [r % 3 for r, _ in kept.padic] == [1]


def test_zero_report_identically_zero():
    report = zero_report(LaurentPoly.zero(), 3, 6)
    assert report.identically_zero
    assert report.rational == ()
    assert report.padic == ()


def test_zero_report_precision_field():
    report = zero_report(L("g - 4"), 3, 5)
    assert report.prime == 3
    assert report.precision == 5
    assert report.padic == ((4, 5),)


# -- roots mod p by polynomial gcds -----------------------------------------------


def from_roots(roots, p, cofactor=(1,)):
    """Ascending coefficients mod p of cofactor * prod (x - r)."""
    out = list(cofactor)
    for r in roots:
        out = modp.mul(out, [-r % p, 1], p)
    return out


def _schoolbook(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return out


def _schoolbook_divmod(a, b, p):
    """Quotient and remainder of a by a nonzero b mod p, one quotient digit
    at a time: the reference for modp._divmod, whose short quotients and
    low-degree divisors take this route."""
    rem = a[:]
    db = len(b) - 1
    inv = pow(b[-1], -1, p)
    quot = [0] * max(len(a) - db, 0)
    while len(rem) > db:
        c = rem[-1] * inv % p
        shift = len(rem) - 1 - db
        quot[shift] = c
        rem[shift:] = [(x - c * y) % p for x, y in zip(rem[shift:], b)]
        modp._trim(rem)
    return quot, rem


@contextmanager
def time_limit(seconds):
    """Fail the test instead of hanging when the block runs too long."""

    def expire(signum, frame):
        raise TimeoutError(f"took longer than {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


LARGE_PRIMES = [10**6 + 3, 10**9 + 7, 2**61 - 1]


@pytest.mark.parametrize("p", LARGE_PRIMES)
def test_kronecker_product_matches_schoolbook(p):
    # full-width coefficients: every slot of the product carries up to
    # min(len) * (p - 1)^2, the bound the slot width is chosen for
    for n in (1, 2, 7, 40):
        a = [p - 1 - i for i in range(n)]
        b = [p - 1] * (n + 3)
        assert modp.mul(a, b, p) == _schoolbook(a, b, p)
        assert modp.mul(a, a, p) == _schoolbook(a, a, p)


@pytest.mark.parametrize("p", LARGE_PRIMES)
def test_planted_roots_at_large_primes(p):
    rng = random.Random(p)
    planted = [rng.randrange(p) for _ in range(10)] + [1, p - 1]
    # -1 is not a square mod p = 3 (mod 4), so one of x^2 + x + 1 and
    # x^2 - 3 has no root and the roots of the product are the planted ones
    assert p % 4 == 3
    cofactor = [1, 1, 1] if pow(-3, (p - 1) // 2, p) != 1 else [-3 % p, 0, 1]
    f = from_roots(planted, p, cofactor)
    with time_limit(10):
        found = modp.roots(f, p)
        twice = modp.roots(modp.mul(f, f, p), p)
    assert found == twice == sorted(set(planted))


def test_planted_roots_lift_at_large_prime():
    p = 2**61 - 1
    planted = [3, 5, 10**12 + 39, -(10**15) - 7]
    f = LaurentPoly.one()
    for r in planted:
        f = f * (LaurentPoly.gamma() - LaurentPoly({0: r}))
    with time_limit(10):
        roots, obstructions = hensel_roots(f, p, 4)
    assert roots == sorted(r % p**4 for r in planted)
    assert obstructions == []


def test_roots_at_two_are_read_off():
    assert modp.roots([0, 1, 1], 2) == [0, 1]
    assert modp.roots([1, 1, 1], 2) == []
    assert modp.roots([1, 0, 1], 2) == [1]
    assert modp.roots([0, 0, 1], 2) == [0]
    assert modp.roots([3], 2) == []


def test_roots_at_two_never_ask_linear_pow_for_a_zeroth_power(monkeypatch):
    # linear_pow is defined for exponents >= 1; the split loop's exponent
    # (p - 1) // 2 is 0 at p = 2, so p = 2 must never reach that loop.
    real = modp.Modulus.linear_pow

    def checked(self, delta, e):
        if e < 1:
            raise AssertionError(f"linear_pow called with exponent {e}")
        return real(self, delta, e)

    monkeypatch.setattr(modp.Modulus, "linear_pow", checked)
    assert modp.roots([0, 1, 1], 2) == [0, 1]
    assert modp.roots([0, 1, 0, 1], 2) == [0, 1]
    assert modp.roots([0, 3, 5, 1, 1, 7, 2], 2) == [0]


def test_roots_below_the_degree_match_a_residue_scan():
    """At p no larger than the degree, f is folded mod x^p - x first; a
    multiple of x^p - x folds to zero and has every residue as a root."""
    rng = random.Random(13)
    for _ in range(1000):
        p = rng.choice([2, 3, 5, 7, 11, 13])
        f = [rng.randrange(p) for _ in range(rng.randrange(p, 3 * p + 4))] + [rng.randrange(1, p)]
        assert modp.roots(f, p) == [r for r in range(p) if sum(c * r**i for i, c in enumerate(f)) % p == 0], (f, p)
    for p in (2, 3, 5):
        assert modp.roots(from_roots(range(p), p, [1, 1]), p) == list(range(p))


def test_rational_roots_with_large_coefficients_answer_in_bounded_time():
    """Two short inputs that were slow by divisor pairs: 40 zeros k/6,
    where the constant term 40! alone has about 10^8 divisors (no answer
    within 120 s), and no zero for 10^30 (g^2 + 1) + g, 961 * 961 * 2
    candidates (about 10 s)."""
    f = LaurentPoly.one()
    for k in range(1, 41):
        f = f * L(f"6*g - {k}")
    with time_limit(10):
        assert rational_roots(f) == [(Fraction(k, 6), 1) for k in range(1, 41)]
        assert rational_roots(LaurentPoly({0: 10**30, 1: 1, 2: 10**30})) == []


@st.composite
def division_problems(draw):
    """(a, b, p): a divisor b of degree 0 to 200 and a dividend a whose
    quotient has 1 to 300 digits, both with a nonzero top coefficient, so
    that quotient and divisor fall on both sides of modp._NEWTON_DIVISION.
    About a third of the coefficients sit at 0 or p - 1."""
    p = draw(st.sampled_from([2, 3, 101, 10007, 2**61 - 1]))
    db = draw(st.integers(min_value=0, max_value=200))
    k = draw(st.integers(min_value=1, max_value=300))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))

    def poly(n):
        c = [rng.choice((0, p - 1)) if rng.random() < 0.3 else rng.randrange(p) for _ in range(n - 1)]
        return c + [rng.randrange(1, p)]

    return poly(db + k), poly(db + 1), p


@SUITE
@given(division_problems())
@example(([1] * 64, [1] * 33, 2))
@example(([5] * 63, [7] * 33, 101))
@example((list(range(1, 500)), [3, 0, 1], 10007))
@example(([2**61 - 2] * 400, [1] + [0] * 199 + [2**61 - 2], 2**61 - 1))
def test_division_matches_schoolbook(case):
    """Newton division (quotient and divisor degree both at least
    _NEWTON_DIVISION) and schoolbook division give the schoolbook quotient
    and remainder."""
    a, b, p = case
    assert modp._divmod(a, b, p) == _schoolbook_divmod(a, b, p)


def _roots_by_scan(f, p):
    return [r for r in range(p) if sum(c * r**i for i, c in enumerate(f)) % p == 0]


def _counting_sqrt(monkeypatch):
    calls = []
    real = modp._sqrt

    def counted(n, p):
        calls.append(p)
        return real(n, p)

    monkeypatch.setattr(modp, "_sqrt", counted)
    return calls


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_quadratics_match_a_residue_scan(p, monkeypatch):
    """Every monic x^2 + bx + c with two distinct roots mod p is split by
    the quadratic formula. At p = 2 no quadratic reaches it: the fold mod
    x^2 - x leaves a polynomial of degree at most 1."""
    calls = _counting_sqrt(monkeypatch)
    split = 0
    for b in range(p):
        for c in range(p):
            found = _roots_by_scan([c, b, 1], p)
            if len(found) == 2:
                assert modp.roots([c, b, 1], p) == found, (b, c)
                split += 1
    assert split == p * (p - 1) // 2
    assert len(calls) == (0 if p == 2 else split)


@pytest.mark.parametrize("p", [65537, 998244353] + LARGE_PRIMES)
def test_planted_quadratics_split_at_large_primes(p):
    """p - 1 is 2^16 and 2^23 * 119 at the first two primes, so the square
    roots run Tonelli-Shanks' inner loop; at LARGE_PRIMES, p = 3 mod 4,
    they are one power."""
    rng = random.Random(p)
    for _ in range(200):
        r, s = rng.sample(range(p), 2)
        assert modp.roots([r * s % p, -(r + s) % p, 1], p) == sorted((r, s))
        n = rng.randrange(1, p) ** 2 % p
        assert modp._sqrt(n, p) ** 2 % p == n
