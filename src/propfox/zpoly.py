"""Dense Laurent polynomials over the integers.

A value is a pair (shift, coeffs): coeffs is the tuple of integer
coefficients in ascending order, and shift the exponent of the first one, so
(s, (c_0, ..., c_n)) stands for the sum of c_i g^(s + i). The first and the
last coefficient are nonzero, so n is the span (max_exp - min_exp); the zero
polynomial is ZERO = (0, ()). Units of Z[g^(+-1)] are +-g^k; over the
rationals every c*g^k with c != 0 is one, so callers that work up to
rational units use primitive parts.

A product of at most _SCHOOLBOOK_TERMS terms len(a) * len(b) is taken by
schoolbook, where the packing below would cost more than the terms. Longer
products go through Kronecker substitution with signed slots: a coefficient
list is evaluated at g = 2^w by packing the coefficients' w-bit two's
complements and correcting for the borrows, and an integer is read back as
its balanced base-2^w digits, in [-2^(w-1), 2^(w-1)). With 2^(w-1) above
every coefficient of a product, one big-integer product gives them all.

Slots of up to 64 bits are packed and read back by C-level copies, not by
one call per coefficient. _slot rounds a width of up to 64 bits up to an
array item's (8, 16, 32 or 64 bits), so each coefficient fills one item of
an array.array with the signed typecode of that size (read off the host):
the array's bytes give the integer in one int.from_bytes call, and its
digits come back through one to_bytes call and one array.tolist call.
Array items are in the host's byte order, so on a big-endian host they are
byte-swapped to the little-endian order of the integer. Past 64 bits a
slot is the least multiple of 8 bits, packed and read one coefficient at a
time.

gcd is the heuristic gcd of Char, Geddes and Gonnet (J. Symbolic Comput. 7,
1989). For primitive a, b and an integer xi >= 2 min(|a|, |b|) + 2 (max
norms), the primitive part h of the balanced xi-adic expansion of
gcd(a(xi), b(xi)) is gcd(a, b) whenever h divides both. That division is
checked exactly: the cofactors are read off a(xi) / h(xi) and b(xi) / h(xi),
and h times each must give a and b back. On failure xi grows, and after
_HEU_TRIES points the primitive Euclidean remainder sequence answers.
"""

from __future__ import annotations

import sys
from array import array
from math import gcd as igcd

from .scalars import _int_valuation

ZERO = (0, ())
ONE = (0, (1,))

# Evaluation points GCDHEU tries before the remainder sequence answers.
_HEU_TRIES = 6

# The longest coefficient run value_at evaluates by Horner's rule.
_HORNER_RUN = 256

# The largest len(a) * len(b) that mul_coeffs multiplies by schoolbook. At
# 8x8 schoolbook took 8-16 us per product and Kronecker 12-29 us; the two
# were even at 8x9 (4- to 64-bit coefficients, x86-64, Python 3.11).
_SCHOOLBOOK_TERMS = 64

# The signed array typecode of each item size in bytes, read off the host.
_CODES = {array(code).itemsize: code for code in "bhilq"}
# Array items are in the host's byte order; the Kronecker integers are read
# and written little-endian.
_SWAP = sys.byteorder == "big"


def trim(shift: int, c: list) -> tuple:
    """(shift, c) as a value: zero coefficients stripped from both ends."""
    hi = len(c)
    while hi and not c[hi - 1]:
        hi -= 1
    lo = 0
    while lo < hi and not c[lo]:
        lo += 1
    return (shift + lo, tuple(c[lo:hi])) if lo < hi else ZERO


def _ones(n: int, size: int) -> int:
    """The sum of 2^(w*i) over i < n, for w = 8 * size."""
    return int.from_bytes((b"\x01" + bytes(size - 1)) * n, "little")


def _pack(c, w: int) -> int:
    """c evaluated at 2^w, for w a multiple of 8 and |c_i| < 2^(w-1). The
    slots hold the w-bit two's complements, whose top bits mark the
    negative coefficients; each of those borrows 2^w from the slot above."""
    size = w // 8
    if size in _CODES:
        a = array(_CODES[size], c)
        if _SWAP:
            a.byteswap()
        data = a.tobytes()
    else:
        data = b"".join([x.to_bytes(size, "little", signed=True) for x in c])
    v = int.from_bytes(data, "little")
    return v - (((v >> (w - 1)) & _ones(len(c), size)) << w)


def _digits(v: int, w: int) -> list[int]:
    """The balanced base-2^w digits of v, lowest first, in [-2^(w-1),
    2^(w-1)), with no zero digits on top. Adding 2^(w-1) to every digit
    makes them the unsigned base-2^w digits of v plus that run; flipping
    each slot's top bit back turns them into the digits' w-bit two's
    complements."""
    size = w // 8
    n = v.bit_length() // w + 2
    run = _ones(n, size) << (w - 1)
    data = ((v + run) ^ run).to_bytes(n * size, "little")
    if size in _CODES:
        a = array(_CODES[size], data)
        if _SWAP:
            a.byteswap()
        out = a.tolist()
    else:
        out = [int.from_bytes(data[i : i + size], "little", signed=True) for i in range(0, n * size, size)]
    while out and not out[-1]:
        out.pop()
    return out


def _width(bits: int) -> int:
    """The least slot width of at least bits bits: an array item's width
    (8, 16, 32 or 64) up to 64 bits, the least multiple of 8 past that."""
    if bits > 64:
        return (bits + 7) // 8 * 8
    return 8 << max(0, (bits - 1).bit_length() - 3)


def _slot(bound: int) -> int:
    """The least slot width w with 2^(w-1) > bound."""
    return _width(bound.bit_length() + 1)


def mul_coeffs(a, b) -> list[int]:
    """The product of two nonempty coefficient lists: by schoolbook when it
    has at most _SCHOOLBOOK_TERMS terms len(a) * len(b), by Kronecker
    substitution past that. Zero top coefficients in a or b may be kept as
    zeros on top of the product."""
    if len(a) == 1:
        return [a[0] * y for y in b]
    if len(b) == 1:
        return [x * b[0] for x in a]
    if len(a) * len(b) <= _SCHOOLBOOK_TERMS:
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b, i):
                out[j] += x * y
        return out
    w = _slot(min(len(a), len(b)) * max(map(abs, a)) * max(map(abs, b)))
    pa = _pack(a, w)
    return _digits(pa * (pa if b is a else _pack(b, w)), w)


def mul(a: tuple, b: tuple) -> tuple:
    if not a[1] or not b[1]:
        return ZERO
    return a[0] + b[0], tuple(mul_coeffs(a[1], b[1]))


def scale(a: tuple, c: int) -> tuple:
    """c * a for a nonzero integer c."""
    return a if c == 1 else (a[0], tuple(c * x for x in a[1]))


def neg(a: tuple) -> tuple:
    return a[0], tuple(-x for x in a[1])


def _combine(a: tuple, b: tuple, sign: int) -> tuple:
    (sa, ca), (sb, cb) = a, b
    low = min(sa, sb)
    out = [0] * (max(sa + len(ca), sb + len(cb)) - low)
    out[sa - low : sa - low + len(ca)] = ca
    i = sb - low
    out[i : i + len(cb)] = [x + sign * y for x, y in zip(out[i : i + len(cb)], cb)]
    return trim(low, out)


def add(a: tuple, b: tuple) -> tuple:
    return a if not b[1] else b if not a[1] else _combine(a, b, 1)


def sub(a: tuple, b: tuple) -> tuple:
    return a if not b[1] else neg(b) if not a[1] else _combine(a, b, -1)


def primitive(a: tuple) -> tuple:
    """a divided by its content, with the sign of each coefficient kept."""
    c = igcd(*a[1])
    return a if c <= 1 else (a[0], tuple(x // c for x in a[1]))


def normal(a: tuple) -> tuple:
    """The associate of a nonzero a over the rationals that is primitive,
    has shift 0 and a positive leading coefficient."""
    c = igcd(*a[1])
    if a[1][-1] < 0:
        c = -c
    return 0, a[1] if c == 1 else tuple(x // c for x in a[1])


def pseudo_divmod(f: tuple, d: tuple) -> tuple[int, tuple, tuple]:
    """(c, q, r) with c * f = q * d + r in the Laurent ring, for nonzero d:
    c = lc(d)^(span(f) - span(d) + 1), or 1 when f is the shorter, and r is
    0 or of span below d's. Over the rationals q / c and r / c are the
    quotient and remainder of the Euclidean division that shifts f and d to
    lowest exponent 0 first; q is integral because each quotient digit of
    c * f is."""
    (sf, a), (sd, b) = f, d
    m = len(b) - 1
    if len(a) <= m:
        return 1, ZERO, f
    lc = b[-1]
    c = lc ** (len(a) - m)
    r = [c * x for x in a] if c != 1 else list(a)
    q = [0] * (len(a) - m)
    for i in range(len(q) - 1, -1, -1):
        t = r[i + m] // lc
        if t:
            q[i] = t
            r[i : i + m + 1] = [x - t * y for x, y in zip(r[i : i + m + 1], b)]
    return c, trim(sf - sd, q), trim(sf, r[:m])


def divexact(f: tuple, d: tuple) -> tuple:
    """f / d in the Laurent ring over the integers; ValueError when d does
    not divide f there."""
    c, q, r = pseudo_divmod(f, d)
    if r[1] or any(x % c for x in q[1]):
        raise ValueError("does not divide exactly")
    return q if c == 1 else (q[0], tuple(x // c for x in q[1]))


def _heu_gcd(a: tuple, b: tuple) -> tuple | None:
    """GCDHEU on primitive coefficient tuples with nonzero constant terms:
    the gcd, primitive with a positive leading coefficient, or None when
    no evaluation point was accepted."""
    # 2^(w-1) above both max norms: both pack, and xi = 2^w is at least
    # 2 min(|a|, |b|) + 2.
    w = _slot(max(max(map(abs, a)), max(map(abs, b))))
    for _ in range(_HEU_TRIES):
        pa, pb = _pack(a, w), _pack(b, w)
        h = _digits(igcd(pa, pb), w)
        if h[0]:
            h = normal((0, tuple(h)))[1]
            ph = _pack(h, w)
            qa, ra = divmod(pa, ph)
            qb, rb = divmod(pb, ph)
            if not ra and not rb and mul_coeffs(h, _digits(qa, w)) == list(a) and (
                mul_coeffs(h, _digits(qb, w)) == list(b)
            ):
                return h
        w = _width(w * 3 // 2)
    return None


def _prs_gcd(a: tuple, b: tuple) -> tuple:
    """The primitive Euclidean remainder sequence: gcd(a, b) for nonzero a,
    b with nonzero constant terms, as a normal coefficient tuple."""
    f, g = (0, a), (0, b)
    while g[1]:
        f, g = g, primitive(pseudo_divmod(f, g)[2])
    return normal(f)[1]


def gcd(a: tuple, b: tuple) -> tuple:
    """gcd(a, b) of nonzero values over the rationals, as its normal
    associate (see normal)."""
    f, g = normal(a)[1], normal(b)[1]
    if len(f) == 1 or len(g) == 1:
        return ONE
    if f == g:
        return 0, f
    h = _heu_gcd(f, g)
    return 0, h if h is not None else _prs_gcd(f, g)


def gcd_all(fs) -> tuple:
    """The normal gcd of the nonzero values among fs; ZERO when there are
    none."""
    acc = ZERO
    for f in fs:
        if not f[1]:
            continue
        acc = gcd(acc, f) if acc[1] else normal(f)
        if acc == ONE:
            break
    return acc


def _horner(c, lo: int, hi: int, n: int, d: int) -> int:
    """The sum of c_i n^(i - lo) d^(hi - 1 - i) over lo <= i < hi, by
    Horner's rule."""
    acc, den = c[hi - 1], 1
    if d == 1:
        for x in reversed(c[lo : hi - 1]):
            acc = acc * n + x
    else:
        for x in reversed(c[lo : hi - 1]):
            den *= d
            acc = acc * n + x * den
    return acc


def _homogenized(c, lo: int, hi: int, n: int, d: int, npow: dict, dpow: dict) -> int:
    """The sum H of c_i n^(i - lo) d^(hi - 1 - i) over lo <= i < hi, by
    binary splitting: with the run split at mid into the h coefficients
    below it and the r from it on, H = H(lo, mid) d^r + n^h H(mid, hi).
    npow and dpow keep the powers of n and d, one per length, for the
    whole evaluation."""
    if hi - lo <= _HORNER_RUN:
        return _horner(c, lo, hi, n, d)
    mid = (lo + hi) // 2
    h, r = mid - lo, hi - mid
    if h not in npow:
        npow[h] = n**h
    if r not in dpow:
        dpow[r] = d**r
    low = _homogenized(c, lo, mid, n, d, npow, dpow)
    return low * dpow[r] + npow[h] * _homogenized(c, mid, hi, n, d, npow, dpow)


def value_at(a: tuple, n: int, d: int) -> tuple[int, int]:
    """(u, v) with a(n / d) = u / v, for d > 0 and n != 0 when a has a
    negative exponent: the sum of c_i n^i d^(m - i) over d^m, times
    (n / d)^shift. The sum is taken by binary splitting (_homogenized), in
    time quasi-linear in the size of the result, where Horner's rule alone
    is quadratic in the degree; runs of at most _HORNER_RUN coefficients go
    by Horner's rule."""
    shift, c = a
    if not c:
        return 0, 1
    acc, den = _homogenized(c, 0, len(c), n, d, {}, {}), d ** (len(c) - 1)
    if shift >= 0:
        return acc * n**shift, den * d**shift
    return acc * d**-shift, den * n**-shift


def content_valuation(a: tuple, p: int) -> int | None:
    """v_p of the content of a; None for ZERO."""
    return _int_valuation(igcd(*a[1]), p) if a[1] else None
