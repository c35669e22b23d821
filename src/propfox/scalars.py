"""Exact scalars: rationals, p-adic valuations, and capped-precision p-adics.

The ground field for all matrix work is the rationals, represented by
fractions.Fraction (always in lowest terms with positive denominator, which is
exactly the normal form the text formats assume). PAdicApprox lives alongside
for the approximate-rank path: a number known only modulo a power of p, with
pessimistic precision propagation and no equality traps.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import DivisionByZero

Rational = Fraction

_RATIONAL_RE = re.compile(r"^([+-]?\d+)(?:/(\d+))$|^([+-]?\d+)$")


def parse_rational(text: str) -> Fraction:
    """Parse "n" or "n/d" with d > 0. Raises ValueError on anything else."""
    m = _RATIONAL_RE.match(text.strip())
    if not m:
        raise ValueError(f"not a rational in n or n/d form: {text!r}")
    if m.group(3) is not None:
        return Fraction(int(m.group(3)))
    den = int(m.group(2))
    if den == 0:
        raise ValueError(f"zero denominator: {text!r}")
    return Fraction(int(m.group(1)), den)


def format_rational(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _int_valuation(n: int, p: int) -> int:
    """v_p of a nonzero integer in O(log v) divisions: divide by p, p^2,
    p^4, ... while they divide, then step back down the same powers. The
    powers that still divide on the way down give the binary digits of the
    remaining valuation, which is below the last power's exponent."""
    powers = []
    q = p
    while True:
        n2, r = divmod(n, q)
        if r:
            break
        powers.append(q)
        n = n2
        q = q * q
    v = (1 << len(powers)) - 1
    for k in reversed(range(len(powers))):
        n2, r = divmod(n, powers[k])
        if not r:
            n = n2
            v += 1 << k
    return v


def valuation(q: Fraction, p: int) -> int | None:
    """p-adic valuation of a rational; None stands for +infinity (q = 0)."""
    if q == 0:
        return None
    return _int_valuation(q.numerator, p) - _int_valuation(q.denominator, p)


def unit_ball_check(a: Fraction, p: int) -> bool:
    """Whether |a - 1|_p < 1, the congruence condition the lifting theory
    needs of an evaluation point."""
    v = valuation(a - 1, p)
    return v is None or v >= 1


def _inv_mod(a: int, m: int) -> int:
    return pow(a, -1, m)


def _same_prime(x: "PAdicApprox", y: "PAdicApprox") -> None:
    if x.prime != y.prime:
        raise ValueError(f"p-adic values for different primes {x.prime} and {y.prime}")


@dataclass(frozen=True)
class PAdicApprox:
    """A p-adic number known to finite precision: unit * p^val, with the unit
    known modulo p^prec (so the value is pinned modulo p^(val + prec)).

    val is None for the zero state, meaning "indistinguishable from zero at
    absolute precision prec": the true value has valuation >= prec. There is
    deliberately no __eq__ that compares values; use agrees_with, which only
    ever claims congruence at the shared precision.
    """

    prime: int
    val: int | None
    unit: int
    prec: int

    def __post_init__(self):
        if self.prec < 1:
            raise ValueError(f"precision must be at least 1, got {self.prec}")
        if self.val is None:
            if self.unit != 0:
                raise ValueError("the zero state carries unit 0")
        elif not 0 < self.unit < self.prime ** self.prec or self.unit % self.prime == 0:
            raise ValueError(
                f"unit {self.unit} is not a unit modulo {self.prime}^{self.prec}"
            )

    @staticmethod
    def zero(p: int, absprec: int) -> "PAdicApprox":
        return PAdicApprox(p, None, 0, max(1, absprec))

    @staticmethod
    def from_rational(q: Fraction, p: int, prec: int) -> "PAdicApprox":
        """Exact rational squeezed into a window of prec relative digits."""
        if q == 0:
            return PAdicApprox.zero(p, prec)
        v = valuation(q, p)
        n, d = q.numerator, q.denominator
        if v > 0:
            n //= p ** v
        elif v < 0:
            d //= p ** (-v)
        m = p ** prec
        u = (n % m) * _inv_mod(d % m, m) % m
        return PAdicApprox(p, v, u, prec)

    @property
    def absprec(self) -> int:
        """Exponent of the modulus this value is known by."""
        return self.prec if self.val is None else self.val + self.prec

    def is_zero_state(self) -> bool:
        return self.val is None

    def residue(self, k: int) -> int:
        """The value modulo p^k; only valid for k <= absprec."""
        if k > self.absprec:
            raise ValueError(f"residue mod p^{k} asked of a value known mod p^{self.absprec}")
        if self.val is None or self.val >= k:
            return 0
        return self.unit * self.prime ** self.val % self.prime ** k

    def agrees_with(self, other: "PAdicApprox") -> bool:
        """Congruent at the weaker of the two precisions. Never a claim of
        true equality."""
        _same_prime(self, other)
        k = min(self.absprec, other.absprec)
        return self.residue(k) == other.residue(k)

    @staticmethod
    def _from_residue(p: int, r: int, absprec: int) -> "PAdicApprox":
        r %= p ** absprec
        if r == 0:
            return PAdicApprox.zero(p, absprec)
        v = 0
        while r % p == 0:
            r //= p
            v += 1
        if absprec - v < 1:
            return PAdicApprox.zero(p, absprec)
        return PAdicApprox(p, v, r, absprec - v)

    def _coerced(self, other) -> "PAdicApprox":
        if isinstance(other, PAdicApprox):
            _same_prime(self, other)
            return other
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            target = max(1, self.absprec + max(0, -(valuation(q, self.prime) or 0)) + 1)
            return PAdicApprox.from_rational(q, self.prime, target)
        return NotImplemented

    def __add__(self, other):
        o = self._coerced(other)
        if o is NotImplemented:
            return o
        p = self.prime
        k = min(self.absprec, o.absprec)
        return PAdicApprox._from_residue(p, self.residue(k) + o.residue(k), k)

    __radd__ = __add__

    def __neg__(self):
        if self.val is None:
            return self
        m = self.prime ** self.prec
        return PAdicApprox(self.prime, self.val, (-self.unit) % m, self.prec)

    def __sub__(self, other):
        o = self._coerced(other)
        return o if o is NotImplemented else self + (-o)

    def __rsub__(self, other):
        o = self._coerced(other)
        return o if o is NotImplemented else o + (-self)

    def __mul__(self, other):
        o = self._coerced(other)
        if o is NotImplemented:
            return o
        p = self.prime
        if self.val is None or o.val is None:
            # |xy| <= p^-(A + v_other); zero times zero just adds the windows
            a = self.prec if self.val is None else self.val
            b = o.prec if o.val is None else o.val
            return PAdicApprox.zero(p, max(1, a + b))
        n = min(self.prec, o.prec)
        return PAdicApprox(p, self.val + o.val, self.unit * o.unit % p ** n, n)

    __rmul__ = __mul__

    def invert(self) -> "PAdicApprox":
        if self.val is None:
            raise DivisionByZero("inverting a value indistinguishable from zero")
        m = self.prime ** self.prec
        return PAdicApprox(self.prime, -self.val, _inv_mod(self.unit, m), self.prec)

    def __truediv__(self, other):
        o = self._coerced(other)
        return o if o is NotImplemented else self * o.invert()

    def __repr__(self):
        if self.val is None:
            return f"O({self.prime}^{self.prec})"
        return f"{self.unit}*{self.prime}^{self.val} + O({self.prime}^{self.absprec})"
