"""Laurent polynomials in one variable g over the rationals.

A value is a finite map exponent -> nonzero rational coefficient. Exponents
may be negative; the units of this ring are exactly the monomials c*g^k with
c != 0, and "equal up to a unit" is the equivalence that matters for GCD
output, which normalize_associate picks a representative of: an honest
polynomial with nonzero constant term and leading coefficient 1.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from . import zpoly
from .errors import DivisionByZero, NotAUnit
from .scalars import format_rational, parse_rational, valuation

SYMBOL = "g"


class LaurentPoly:
    """Immutable by convention: every operation builds a fresh term map."""

    __slots__ = ("terms", "_hash")

    def __init__(self, terms=None):
        t = {}
        if terms:
            for k, c in (terms.items() if isinstance(terms, dict) else terms):
                c = Fraction(c)
                if c != 0:
                    c0 = t.get(k)
                    c = c if c0 is None else c0 + c
                    if c != 0:
                        t[int(k)] = c
                    elif int(k) in t:
                        del t[int(k)]
        self.terms = t
        self._hash = None

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_sums(terms: dict) -> "LaurentPoly":
        """The polynomial of a map from int exponents to Fraction
        coefficients, taken without the conversions of __init__; zero
        coefficients are dropped."""
        r = LaurentPoly.__new__(LaurentPoly)
        r.terms = {k: c for k, c in terms.items() if c}
        r._hash = None
        return r

    @staticmethod
    def zero() -> "LaurentPoly":
        return LaurentPoly()

    @staticmethod
    def one() -> "LaurentPoly":
        return LaurentPoly({0: Fraction(1)})

    @staticmethod
    def const(c) -> "LaurentPoly":
        return LaurentPoly({0: Fraction(c)})

    @staticmethod
    def monomial(exp: int, coeff=1) -> "LaurentPoly":
        return LaurentPoly({exp: Fraction(coeff)})

    @staticmethod
    def gamma(exp: int = 1) -> "LaurentPoly":
        """The distinguished unit g^exp."""
        return LaurentPoly({exp: Fraction(1)})

    # -- structure ---------------------------------------------------------

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

    def is_unit(self) -> bool:
        return len(self.terms) == 1

    def is_one(self) -> bool:
        return self.terms == {0: Fraction(1)}

    def __eq__(self, other):
        return isinstance(other, LaurentPoly) and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self.terms.items()))
        return self._hash

    def __bool__(self):
        return bool(self.terms)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        out = dict(self.terms)
        for k, c in other.terms.items():
            s = out.get(k, 0) + c
            if s:
                out[k] = s
            elif k in out:
                del out[k]
        r = LaurentPoly.__new__(LaurentPoly)
        r.terms = out
        r._hash = None
        return r

    def __neg__(self):
        r = LaurentPoly.__new__(LaurentPoly)
        r.terms = {k: -c for k, c in self.terms.items()}
        r._hash = None
        return r

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.const(other)
        out: dict[int, Fraction] = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                k = k1 + k2
                s = out.get(k, 0) + c1 * c2
                if s:
                    out[k] = s
                elif k in out:
                    del out[k]
        r = LaurentPoly.__new__(LaurentPoly)
        r.terms = out
        r._hash = None
        return r

    __rmul__ = __mul__

    def scale(self, c) -> "LaurentPoly":
        c = Fraction(c)
        if c == 0:
            return LaurentPoly.zero()
        r = LaurentPoly.__new__(LaurentPoly)
        r.terms = {k: v * c for k, v in self.terms.items()}
        r._hash = None
        return r

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by the unit g^k."""
        r = LaurentPoly.__new__(LaurentPoly)
        r.terms = {e + k: c for e, c in self.terms.items()}
        r._hash = None
        return r

    def invert_unit(self) -> "LaurentPoly":
        if len(self.terms) != 1:
            raise NotAUnit(f"not a monomial, cannot invert: {self}")
        ((k, c),) = self.terms.items()
        return LaurentPoly({-k: Fraction(1) / c})

    def eval_at(self, a) -> Fraction:
        a = Fraction(a)
        if not a and self.terms and self.min_exp() < 0:
            raise DivisionByZero("negative powers evaluated at 0")
        den = math.lcm(*(c.denominator for c in self.terms.values()))
        u, v = zpoly.value_at(integer_form(self, den), a.numerator, a.denominator)
        return Fraction(u, v * den)

    def __repr__(self):
        return f"LaurentPoly({format_laurent(self)!r})"


# -- polynomial division and GCD -------------------------------------------


def _poly_divmod(f: LaurentPoly, d: LaurentPoly) -> tuple[LaurentPoly, LaurentPoly]:
    """Standard division for honest polynomials (min exponents >= 0)."""
    if d.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if (not f.is_zero() and f.min_exp() < 0) or d.min_exp() < 0:
        raise ValueError("polynomial division needs nonnegative exponents")
    q = LaurentPoly.zero()
    r = f
    dd = d.max_exp()
    lc = d.coeff(dd)
    while not r.is_zero() and r.max_exp() >= dd:
        k = r.max_exp() - dd
        c = r.coeff(r.max_exp()) / lc
        t = LaurentPoly.monomial(k, c)
        q = q + t
        r = r - t * d
    return q, r


def laurent_divmod(f: LaurentPoly, d: LaurentPoly) -> tuple[LaurentPoly, LaurentPoly]:
    """Euclidean division in the Laurent ring: f = q*d + r with the span
    (max_exp - min_exp) of r below that of d, or r = 0."""
    if d.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if f.is_zero():
        return LaurentPoly.zero(), LaurentPoly.zero()
    sf, sd = f.min_exp(), d.min_exp()
    q, r = _poly_divmod(f.shift(-sf), d.shift(-sd))
    return q.shift(sf - sd), r.shift(sf)


def div_exact(f: LaurentPoly, d: LaurentPoly) -> LaurentPoly:
    """f / d when d divides f in the Laurent ring; raises ValueError if not."""
    q, r = laurent_divmod(f, d)
    if not r.is_zero():
        raise ValueError("does not divide exactly")
    return q


def laurent_divides(d: LaurentPoly, f: LaurentPoly) -> bool:
    if d.is_zero():
        return f.is_zero()
    if f.is_zero():
        return True
    try:
        div_exact(f, d)
        return True
    except ValueError:
        return False


def normalize_associate(f: LaurentPoly) -> LaurentPoly:
    """The canonical associate: zero stays zero, anything else becomes the
    monic polynomial with nonzero constant term obtained by stripping the
    unit c*g^k."""
    if f.is_zero():
        return f
    low = f.min_exp()
    shifted = f if low == 0 else f.shift(-low)
    lc = shifted.coeff(shifted.max_exp())
    return shifted if lc == 1 else -shifted if lc == -1 else shifted.scale(1 / lc)


def gcd_many(fs) -> LaurentPoly:
    """GCD of any number of Laurent polynomials, as the canonical associate.

    The empty collection and the all-zero collection both give 0 (the GCD in
    the ideal sense: the generator of the zero ideal). The gcd is taken on
    integer forms (zpoly.gcd_all).
    """
    return associate(zpoly.gcd_all(primitive_form(f) for f in fs))


# -- integer forms -------------------------------------------------------------


def primitive_form(f: LaurentPoly) -> tuple:
    """f as a primitive zpoly value: scaled by the least common denominator
    of its coefficients, then divided by the gcd of the numerators."""
    return zpoly.primitive(integer_form(f, math.lcm(*(c.denominator for c in f.terms.values()))))


def integer_form(f: LaurentPoly, scale: int) -> tuple:
    """scale * f as a zpoly value; scale must clear every denominator of f."""
    if not f.terms:
        return zpoly.ZERO
    low = min(f.terms)
    c = [0] * (max(f.terms) - low + 1)
    for e, x in f.terms.items():
        c[e - low] = x.numerator * (scale // x.denominator)
    return low, tuple(c)


def integer_matrix(rows) -> tuple[int, tuple]:
    """(L, L * rows as zpoly values), with L the least common denominator of
    every coefficient of the matrix."""
    scale = math.lcm(1, *(c.denominator for row in rows for f in row for c in f.terms.values()))
    return scale, tuple(tuple(integer_form(f, scale) for f in row) for row in rows)


def from_integer_form(a: tuple, scale: int = 1) -> LaurentPoly:
    """The Laurent polynomial a / scale."""
    low, c = a
    if scale == 1:
        # Fraction(x) takes no gcd, unlike Fraction(x, 1).
        return LaurentPoly.from_sums({low + i: Fraction(x) for i, x in enumerate(c)})
    return LaurentPoly.from_sums({low + i: Fraction(x, scale) for i, x in enumerate(c)})


def associate(a: tuple) -> LaurentPoly:
    """The canonical associate (see normalize_associate) of a zpoly value."""
    if not a[1]:
        return LaurentPoly.zero()
    c = zpoly.normal(a)[1]
    return from_integer_form((0, c), c[-1])


def content_valuation(f: LaurentPoly, p: int) -> int | None:
    """v_p of the rational content (GCD of the coefficients); None for 0."""
    if f.is_zero():
        return None
    num = 0
    den = 1
    for c in f.terms.values():
        num = math.gcd(num, abs(c.numerator))
        den = den * c.denominator // math.gcd(den, c.denominator)
    return valuation(Fraction(num, den), p)


# -- text form ---------------------------------------------------------------


def format_laurent(f: LaurentPoly) -> str:
    """Descending powers; "g^2 - 5*g + 4", "3*g^-1", "0"."""
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


_TERM_RE = re.compile(
    r"\s*(?P<sign>[+-])?\s*"
    r"(?:(?P<coeff>\d+(?:/\d+)?)\s*(?:\*\s*(?P<g1>g)(?:\^(?P<e1>-?\d+))?)?"
    r"|(?P<g2>g)(?:\^(?P<e2>-?\d+))?)"
)


def parse_laurent(text: str) -> LaurentPoly:
    """Inverse of format_laurent, whitespace tolerant. Raises ValueError."""
    s = text.strip()
    if not s:
        raise ValueError("empty polynomial text")
    pos = 0
    terms: list[tuple[int, Fraction]] = []
    first = True
    while pos < len(s):
        m = _TERM_RE.match(s, pos)
        if not m or m.end() == pos:
            raise ValueError(f"bad polynomial syntax at offset {pos}: {text!r}")
        sign = m.group("sign")
        if sign is None and not first:
            raise ValueError(f"missing +/- between terms: {text!r}")
        neg = sign == "-"
        if m.group("coeff") is not None:
            c = parse_rational(m.group("coeff"))
            if m.group("g1"):
                e = int(m.group("e1")) if m.group("e1") else 1
            else:
                e = 0
        else:
            c = Fraction(1)
            e = int(m.group("e2")) if m.group("e2") else 1
        terms.append((e, -c if neg else c))
        pos = m.end()
        first = False
    return LaurentPoly(terms)
