"""Laurent polynomials in one variable g over the rationals.

A value is one integer form over one denominator: den and form, with form a
zpoly value (integer coefficients in ascending order from a shift) and den
the least positive common denominator of the coefficients form / den, so
gcd(den, every coefficient of form) = 1. That normal form is unique, so
equality and hashing read only these two fields, and every ring operation
is the zpoly operation on the forms followed by one gcd that reduces den.
terms and coeff are Fraction views of the coefficients, built on first use.

The form is dense: it holds every coefficient from the lowest exponent to
the highest, zeros included, so time and memory grow linearly with the span
max_exp - min_exp, not with the number of nonzero terms. For example,
parse_laurent("g^2000000 + 1") * parse_laurent("g - 1") takes 1.6 s and
293 MB peak in a fresh interpreter (2-core x86-64, Python 3.11.7).

Exponents may be negative; the units of this ring are exactly the monomials
c*g^k with c != 0, and "equal up to a unit" is the equivalence that matters
for GCD output, which normalize_associate picks a representative of: an
honest polynomial with nonzero constant term and leading coefficient 1.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm

from . import zpoly
from .errors import DivisionByZero
from .scalars import _int_str, parse_rational, valuation

SYMBOL = "g"


class LaurentPoly:
    """Immutable by convention: every operation builds a fresh value."""

    __slots__ = ("den", "form", "_terms")

    def __init__(self, terms=None):
        """The polynomial of a map, or of (exponent, coefficient) pairs, with
        rational coefficients; the coefficients of a repeated exponent add."""
        sums = {}
        for k, c in (terms.items() if isinstance(terms, dict) else terms or ()):
            k = int(k)
            sums[k] = sums.get(k, 0) + (c if type(c) is int else Fraction(c))
        live = {k: c for k, c in sums.items() if c}
        # The least common denominator leaves no common factor with the
        # coefficients: each prime of it divides some denominator exactly as
        # often, and that coefficient's numerator not at all.
        den = lcm(1, *(c.denominator for c in live.values()))
        form = zpoly.ZERO
        if live:
            low = min(live)
            coeffs = [0] * (max(live) - low + 1)
            for k, c in live.items():
                coeffs[k - low] = c.numerator * (den // c.denominator)
            form = low, tuple(coeffs)
        self.den, self.form, self._terms = den, form, None

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_form(form: tuple, den: int = 1) -> "LaurentPoly":
        """The polynomial form / den, for a zpoly value form and a nonzero
        integer den."""
        c = den if den == 1 else gcd(den, *form[1])
        if den < 0:
            c = -c
        if c != 1:
            den //= c
            form = form[0], tuple(x // c for x in form[1])
        r = LaurentPoly.__new__(LaurentPoly)
        r.den, r.form, r._terms = den, form, None
        return r

    @staticmethod
    def zero() -> "LaurentPoly":
        return LaurentPoly.from_form(zpoly.ZERO)

    @staticmethod
    def one() -> "LaurentPoly":
        return LaurentPoly.from_form(zpoly.ONE)

    @staticmethod
    def gamma(exp: int = 1) -> "LaurentPoly":
        """The distinguished unit g^exp."""
        return LaurentPoly.from_form((exp, (1,)))

    # -- structure ---------------------------------------------------------

    @property
    def terms(self) -> dict:
        """The nonzero coefficients as a map exponent -> Fraction."""
        if self._terms is None:
            low, c = self.form
            den = self.den
            # Fraction(x) takes no gcd, unlike Fraction(x, 1).
            self._terms = {
                low + i: Fraction(x) if den == 1 else Fraction(x, den) for i, x in enumerate(c) if x
            }
        return self._terms

    def is_zero(self) -> bool:
        return not self.form[1]

    def min_exp(self) -> int:
        if not self.form[1]:
            raise ValueError("zero has no exponent range")
        return self.form[0]

    def max_exp(self) -> int:
        if not self.form[1]:
            raise ValueError("zero has no exponent range")
        return self.form[0] + len(self.form[1]) - 1

    def coeff(self, exp: int) -> Fraction:
        low, c = self.form
        return Fraction(c[exp - low], self.den) if 0 <= exp - low < len(c) else Fraction(0)

    def is_one(self) -> bool:
        return self.den == 1 and self.form == zpoly.ONE

    def __eq__(self, other):
        return isinstance(other, LaurentPoly) and self.den == other.den and self.form == other.form

    def __hash__(self):
        return hash((self.den, self.form))

    def __bool__(self):
        return bool(self.form[1])

    # -- arithmetic ----------------------------------------------------------

    def _combine(self, other, op) -> "LaurentPoly":
        """op on the forms brought to the common denominator."""
        a, b = self.den, other.den
        if a == b:
            return LaurentPoly.from_form(op(self.form, other.form), a)
        m = lcm(a, b)
        return LaurentPoly.from_form(
            op(zpoly.scale(self.form, m // a), zpoly.scale(other.form, m // b)), m
        )

    def __add__(self, other):
        return self._combine(other, zpoly.add)

    def __sub__(self, other):
        return self._combine(other, zpoly.sub)

    def __neg__(self):
        return LaurentPoly.from_form(zpoly.neg(self.form), self.den)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return LaurentPoly.from_form(zpoly.mul(self.form, other.form), self.den * other.den)

    __rmul__ = __mul__

    def scale(self, c) -> "LaurentPoly":
        c = Fraction(c)
        if c == 0:
            return LaurentPoly.zero()
        return LaurentPoly.from_form(zpoly.scale(self.form, c.numerator), self.den * c.denominator)

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by the unit g^k."""
        low, c = self.form
        return LaurentPoly.from_form((low + k, c), self.den) if c else self

    def eval_at(self, a) -> Fraction:
        a = Fraction(a)
        if not a and self.form[0] < 0:
            raise DivisionByZero("negative powers evaluated at 0")
        u, v = zpoly.value_at(self.form, a.numerator, a.denominator)
        return Fraction(u, v * self.den)

    def __repr__(self):
        return f"LaurentPoly({format_laurent(self)!r})"


# -- polynomial division and GCD -------------------------------------------


def laurent_divides(d: LaurentPoly, f: LaurentPoly) -> bool:
    if d.is_zero():
        return f.is_zero()
    # c*F = Q*D + R: the rational remainder is R / (c * f.den).
    return not zpoly.pseudo_divmod(f.form, d.form)[2][1]


def normalize_associate(f: LaurentPoly) -> LaurentPoly:
    """The canonical associate: zero stays zero, anything else becomes the
    monic polynomial with nonzero constant term obtained by stripping the
    unit c*g^k."""
    if f.is_zero():
        return f
    c = zpoly.normal(f.form)[1]
    return LaurentPoly.from_form((0, c), c[-1])


def gcd_many(fs) -> LaurentPoly:
    """GCD of any number of Laurent polynomials, as the canonical associate.

    The empty collection and the all-zero collection both give 0 (the GCD in
    the ideal sense: the generator of the zero ideal). The gcd is taken on
    the integer forms (zpoly.gcd_all).
    """
    return normalize_associate(LaurentPoly.from_form(zpoly.gcd_all(f.form for f in fs)))


def content_valuation(f: LaurentPoly, p: int) -> int | None:
    """v_p of the rational content (GCD of the coefficients); None for 0.
    The content of form / den is content(form) / den, as den shares no
    factor with the coefficients of form."""
    if f.is_zero():
        return None
    return zpoly.content_valuation(f.form, p) - valuation(f.den, p)


# -- text form ---------------------------------------------------------------


def coefficient_texts(f: LaurentPoly) -> list[tuple[int, str]]:
    """(exponent, coefficient as "n" or "n/d" in lowest terms) for each
    nonzero term, in ascending order: format_rational of each coefficient,
    read off the integer form, so it prints past the int-to-str limit."""
    low, c = f.form
    den = f.den
    if den == 1:
        return [(low + i, _int_str(x)) for i, x in enumerate(c) if x]
    out = []
    for i, x in enumerate(c):
        if x:
            g = gcd(x, den)
            num = _int_str(x // g)
            out.append((low + i, num if g == den else f"{num}/{_int_str(den // g)}"))
    return out


def format_laurent(f: LaurentPoly) -> str:
    """Descending powers; "g^2 - 5*g + 4", "3*g^-1", "0"."""
    if f.is_zero():
        return "0"
    parts = []
    for exp, text in reversed(coefficient_texts(f)):
        negative = text[0] == "-"
        mag = text[1:] if negative else text
        if exp == 0:
            body = mag
        else:
            gpart = SYMBOL if exp == 1 else f"{SYMBOL}^{exp}"
            body = gpart if mag == "1" else f"{mag}*{gpart}"
        if not parts:
            parts.append(f"-{body}" if negative else body)
        else:
            parts.append(f"- {body}" if negative else f"+ {body}")
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
