"""The rational Laurent ring as a map from exponents to Fractions: the
reference that propfox.laurent.LaurentPoly, which holds one integer form
over one denominator and computes on it with propfox.zpoly, is checked
against. Nothing here calls zpoly.

FractionLaurent is the dict-of-Fraction ring that LaurentPoly was before it
held the integer form: term-by-term sums and products, Euclidean division
one leading term at a time, Euclid's algorithm for the gcd, and the text
form read off each Fraction. oracle() and to_laurent() cross between the
two through the public terms view and constructor. integer_matrix is the
integer form of a matrix read off its Fraction coefficients.
"""

import math
from fractions import Fraction

from propfox import LaurentPoly
from propfox.errors import DivisionByZero
from propfox.scalars import format_rational, valuation

SYMBOL = "g"


class FractionLaurent:
    __slots__ = ("terms",)

    def __init__(self, terms=None):
        t = {}
        for k, c in (terms.items() if isinstance(terms, dict) else terms or ()):
            c = Fraction(c)
            if c != 0:
                s = t.get(int(k), 0) + c
                if s != 0:
                    t[int(k)] = s
                else:
                    t.pop(int(k), None)
        self.terms = t

    @staticmethod
    def zero():
        return FractionLaurent()

    @staticmethod
    def one():
        return FractionLaurent({0: 1})

    @staticmethod
    def monomial(exp: int, coeff=1):
        return FractionLaurent({exp: coeff})

    def is_zero(self) -> bool:
        return not self.terms

    def min_exp(self) -> int:
        if not self.terms:
            raise ValueError("zero has no exponent range")
        return min(self.terms)

    def max_exp(self) -> int:
        if not self.terms:
            raise ValueError("zero has no exponent range")
        return max(self.terms)

    def coeff(self, exp: int) -> Fraction:
        return self.terms.get(exp, Fraction(0))

    def is_one(self) -> bool:
        return self.terms == {0: 1}

    def __eq__(self, other):
        return isinstance(other, FractionLaurent) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        return FractionLaurent([*self.terms.items(), *other.terms.items()])

    def __neg__(self):
        return FractionLaurent({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return FractionLaurent(
            [(k1 + k2, c1 * c2) for k1, c1 in self.terms.items() for k2, c2 in other.terms.items()]
        )

    __rmul__ = __mul__

    def scale(self, c):
        return FractionLaurent({k: v * c for k, v in self.terms.items()})

    def shift(self, k: int):
        return FractionLaurent({e + k: c for e, c in self.terms.items()})

    def eval_at(self, a) -> Fraction:
        a = Fraction(a)
        if not a and self.terms and self.min_exp() < 0:
            raise DivisionByZero("negative powers evaluated at 0")
        return sum((c * a**k for k, c in self.terms.items()), Fraction(0))


def oracle(f: LaurentPoly) -> FractionLaurent:
    return FractionLaurent(f.terms)


def to_laurent(f: FractionLaurent) -> LaurentPoly:
    return LaurentPoly(f.terms)


def poly_divmod(f: FractionLaurent, d: FractionLaurent):
    """Standard division of honest polynomials (min exponents >= 0), one
    leading term at a time."""
    q, r = FractionLaurent.zero(), f
    dd = d.max_exp()
    lc = d.coeff(dd)
    while not r.is_zero() and r.max_exp() >= dd:
        t = FractionLaurent.monomial(r.max_exp() - dd, r.coeff(r.max_exp()) / lc)
        q, r = q + t, r - t * d
    return q, r


def laurent_divmod(f: FractionLaurent, d: FractionLaurent):
    """f = q*d + r: f and d shifted to lowest exponent 0, divided, shifted
    back."""
    if d.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if f.is_zero():
        return FractionLaurent.zero(), FractionLaurent.zero()
    sf, sd = f.min_exp(), d.min_exp()
    q, r = poly_divmod(f.shift(-sf), d.shift(-sd))
    return q.shift(sf - sd), r.shift(sf)


def div_exact(f: FractionLaurent, d: FractionLaurent) -> FractionLaurent:
    q, r = laurent_divmod(f, d)
    if not r.is_zero():
        raise ValueError("does not divide exactly")
    return q


def laurent_divides(d: FractionLaurent, f: FractionLaurent) -> bool:
    if d.is_zero():
        return f.is_zero()
    return laurent_divmod(f, d)[1].is_zero()


def normalize_associate(f: FractionLaurent) -> FractionLaurent:
    """Shifted to lowest exponent 0 and divided by the leading coefficient."""
    if f.is_zero():
        return f
    shifted = f.shift(-f.min_exp())
    return shifted.scale(1 / shifted.coeff(shifted.max_exp()))


def gcd_pair(a: FractionLaurent, b: FractionLaurent) -> FractionLaurent:
    """The canonical associate of gcd(a, b) by Euclid's algorithm over the
    rationals."""
    a = normalize_associate(a)
    b = normalize_associate(b)
    while not b.is_zero():
        _, r = poly_divmod(a, b)
        a, b = b, normalize_associate(r)
    return a


def gcd_many(fs) -> FractionLaurent:
    acc = FractionLaurent.zero()
    for f in fs:
        if f.is_zero():
            continue
        acc = gcd_pair(acc, f) if not acc.is_zero() else normalize_associate(f)
        if acc.is_one():
            break
    return acc


def content_valuation(f: FractionLaurent, p: int) -> int | None:
    """v_p of the gcd of the coefficients: the gcd of the numerators over
    the lcm of the denominators."""
    if f.is_zero():
        return None
    num = math.gcd(*(c.numerator for c in f.terms.values()))
    den = math.lcm(*(c.denominator for c in f.terms.values()))
    return valuation(Fraction(num, den), p)


def format_laurent(f: FractionLaurent) -> str:
    """Descending powers, each coefficient by format_rational."""
    if f.is_zero():
        return "0"
    parts = []
    for exp in sorted(f.terms, reverse=True):
        c = f.terms[exp]
        mag = abs(c)
        if exp == 0:
            body = format_rational(mag)
        else:
            gpart = SYMBOL if exp == 1 else f"{SYMBOL}^{exp}"
            body = gpart if mag == 1 else f"{format_rational(mag)}*{gpart}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


def integer_matrix(rows) -> tuple[int, tuple]:
    """(L, L * rows as zpoly values (shift, int coefficients)), L the least
    common denominator of every coefficient of the matrix, read off the
    Fraction terms of its entries."""
    scale = math.lcm(1, *(c.denominator for row in rows for f in row for c in f.terms.values()))

    def form(f):
        if not f.terms:
            return 0, ()
        low = min(f.terms)
        c = [0] * (max(f.terms) - low + 1)
        for e, x in f.terms.items():
            c[e - low] = x.numerator * (scale // x.denominator)
        return low, tuple(c)

    return scale, tuple(tuple(form(f) for f in row) for row in rows)
