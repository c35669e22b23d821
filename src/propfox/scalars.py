"""Exact scalars: rationals and their p-adic valuations.

The ground field for all matrix work is the rationals, represented by
fractions.Fraction (always in lowest terms with positive denominator, which is
exactly the normal form the text formats assume).
"""

from __future__ import annotations

import re
from fractions import Fraction

Rational = Fraction

_RATIONAL_RE = re.compile(r"^([+-]?\d+)(?:/(\d+))$|^([+-]?\d+)$")

# int() takes time quadratic in a literal's length, so input literals are
# bounded, at Python's default int-to-str limit
MAX_LITERAL_DIGITS = 4300

# integers of more bits than this are printed by divide and conquer through
# the decimal module (_decimal_str), whose leaves are integers of at most
# _DECIMAL_LEAF_BITS bits
_DECIMAL_BITS = 2**15
_DECIMAL_LEAF_BITS = 128

# zeros works mod p^prec, and each Newton step's inverse takes time quadratic
# in the modulus's size, so prec * p.bit_length() is bounded
MAX_MODULUS_BITS = 2**17

# the Fox pass stores every coefficient of the relation matrix, and a short
# relator such as a^N*b^-N spans N exponents, so the number of coefficients
# the matrix can span is bounded before anything is built
MAX_MATRIX_SPAN = 2**22

# a relator written as a power, such as (a*b)^1000000000000, spans as many
# syllables as its exponent, so the parser refuses a word before it is built
# once the relator words of a presentation would hold more syllables than
# this. At the bound, validate on [a^2,(b*a^-1)^524287] (2,097,150
# syllables) takes 0.76-0.82 s and 113 MB in one CLI process (2-core x86-64)
MAX_WORD_SYLLABLES = 2**21


def parse_int(text: str) -> int:
    """int(text) for an input literal of at most MAX_LITERAL_DIGITS digits."""
    digits = len(text.strip().lstrip("+-"))
    if digits > MAX_LITERAL_DIGITS:
        raise ValueError(f"integer literal of {digits} digits: the limit is {MAX_LITERAL_DIGITS}")
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"not an integer: {text!r}") from None


def parse_rational(text: str) -> Fraction:
    """Parse "n" or "n/d" (parts by parse_int) with d > 0, or raise ValueError."""
    m = _RATIONAL_RE.match(text.strip())
    if not m:
        raise ValueError(f"not a rational in n or n/d form: {text!r}")
    if m.group(3) is not None:
        return Fraction(parse_int(m.group(3)))
    den = parse_int(m.group(2))
    if den == 0:
        raise ValueError(f"zero denominator: {text!r}")
    return Fraction(parse_int(m.group(1)), den)


def _decimal_str(n: int) -> str:
    """str(n) for n >= 0, by divide and conquer: with n split at bit h into
    hi * 2^h + lo, its decimal value is hi's times 2^h plus lo's, and
    decimal multiplies exactly in time quasi-linear in the digits. The
    powers 2^h are kept, one per split width."""
    import decimal

    powers: dict[int, decimal.Decimal] = {}

    def two_to(h: int) -> decimal.Decimal:
        if h not in powers:
            if h <= _DECIMAL_LEAF_BITS:
                powers[h] = decimal.Decimal(1 << h)
            else:
                powers[h] = two_to(h // 2) * two_to(h - h // 2)
        return powers[h]

    def convert(m: int, bits: int) -> decimal.Decimal:
        if bits <= _DECIMAL_LEAF_BITS:
            return decimal.Decimal(m)
        h = bits // 2
        hi = m >> h
        return convert(hi, bits - h) * two_to(h) + convert(m - (hi << h), h)

    with decimal.localcontext() as ctx:
        ctx.prec = decimal.MAX_PREC
        ctx.Emax = decimal.MAX_EMAX
        ctx.traps[decimal.Inexact] = True
        return str(convert(n, n.bit_length()))


def _int_str(n: int) -> str:
    """str(n), whatever the interpreter's int-to-str digit limit. Before
    Python 3.12 str takes time quadratic in the digits, so past
    _DECIMAL_BITS bits, or past the limit, the digits come from
    _decimal_str, which the limit does not bound."""
    if n.bit_length() <= _DECIMAL_BITS:
        try:
            return str(n)
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            pass
    return "-" + _decimal_str(-n) if n < 0 else _decimal_str(n)


def format_rational(q: Fraction) -> str:
    num = _int_str(q.numerator)
    return num if q.denominator == 1 else f"{num}/{_int_str(q.denominator)}"


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
