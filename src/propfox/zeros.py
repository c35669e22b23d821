"""Zero sets of determinant divisors, over the rationals and over the
p-adic integers, both read off one lifting engine.

Both are zeros of the squarefree part S = F / gcd(F, F') of the primitive
integer form F that the LaurentPoly holds, as ascending int coefficients
(the unit c*g^k drops out, so the constant term is nonzero). Residues mod a
prime p are the roots of gcd(S mod p, x^p - x), split apart by further gcds
(modp.roots), at a cost polynomial in the degree and in log p rather than
linear in p. Simple residues lift uniquely by Newton iteration, which
inverts F' at each step only to the precision the step starts from.

p-adic zeros are residues mod p^N. A residue that is multiple mod p is
resolved by the substitution x = r + p*y, read off the Taylor shift
F(r + x), and a recursion on the precision budget. A residue whose lifted
zero count falls short of its multiplicity mod p is reported as an
obstruction: the missing zeros live in a ramified extension (or need more
precision), not in Z_p.

Rational zeros are read off an l-adic lift (Loos, 1983). A zero s/q in
lowest terms has q | lc(S) and s | S(0), so m = lc(S) * s/q is an integer
with |m| <= |lc(S) S(0)|. Take the least prime l that does not divide lc(S)
and at which every root r of S mod l is simple, S'(r) != 0 mod l. Then q is
a unit mod l, s/q reduces to one of those roots, and s/q is the unique
l-adic zero over it. Newton iteration gives that zero mod l^k for
l^k > 2 |lc(S) S(0)|, and m is the balanced residue of lc(S) times it. Each
candidate m / lc(S) is confirmed, and its multiplicity in F counted, by
exact division by q*x - s on the integers. Such an l exists: S is
squarefree, so its discriminant is nonzero, and at a prime dividing neither
lc(S) nor disc(S) the reduction keeps its degree and stays squarefree. So
every prime passed over divides lc(S) disc(S), and the search ends within
log2 |lc(S) disc(S)| + 1 primes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import count

from . import modp, zpoly
from .errors import IdenticallyZero
from .laurent import LaurentPoly
from .presentation import _is_prime
from .scalars import unit_ball_check, valuation


def _divide_root(coeffs: list, s: int, q: int) -> list | None:
    """The quotient of ascending integer coefficients by q*x - s, for q > 0,
    or None when q*x - s does not divide them. Exact division from the top:
    the quotient digits are b_(n-1) = c_n / q and b_(i-1) = (c_i + s b_i) / q,
    and c_0 + s b_0 must vanish. For primitive coefficients and coprime s,
    q that is the test for the zero s / q: by Gauss's lemma its quotient is
    integral, so the first digit q does not divide rejects it."""
    quot = []
    b = 0
    for c in reversed(coeffs[1:]):
        b, r = divmod(c + s * b, q)
        if r:
            return None
        quot.append(b)
    return quot[::-1] if coeffs[0] + s * b == 0 else None


def _derivative(coeffs: list[int]) -> list[int]:
    return [i * c for i, c in enumerate(coeffs)][1:]


def _newton_lift(coeffs: list[int], deriv: list[int], r: int, p: int, budget: int) -> int:
    """The zero of F mod p^budget over a simple root r of F mod p. Each step
    takes a zero x mod p^m to x - F(x) s mod p^(2m), with s = F'(x)^-1 taken
    only mod p^m: F(x) = 0 and 1 - F'(x) s = 0 mod p^m, so
    F(x - F(x) s) = F(x) (1 - F'(x) s) = 0 mod p^(2m), the Taylor terms of
    order 2 and up carrying F(x)^2."""
    x = r % p
    prec = 1
    while prec < budget:
        low = p**prec
        s = pow(modp.poly_mod(deriv, x, low), -1, low)
        prec = min(2 * prec, budget)
        mod = p**prec
        x = (x - modp.poly_mod(coeffs, x, mod) * s) % mod
    return x


def _taylor_shift(coeffs: list[int], r: int) -> list[int]:
    """The c_i of F(r + x) = sum c_i x^i, by repeated synthetic division by
    (x - r): O(degree^2) integer steps."""
    c = coeffs[:]
    n = len(c) - 1
    for i in range(n):
        for j in range(n - 1, i - 1, -1):
            c[j] += r * c[j + 1]
    return c


def _zp_roots(coeffs: list[int], p: int, budget: int) -> tuple[list[int], list[int]]:
    """Zeros of a squarefree integer polynomial in Z_p, as residues mod
    p^budget, plus the mod-p residues whose lifted count fell short.

    At a residue r that is multiple mod p, F(r + x) = sum c_i x^i gives both
    its multiplicity k_r mod p, the least i with p not dividing c_i, and
    F(r + p*y) = sum c_i p^i y^i, divided by the power p^v of p dividing it."""
    if budget < 1:
        raise ValueError(f"precision budget must be at least 1, got {budget}")
    roots: list[int] = []
    obstructions: list[int] = []
    deriv = _derivative(coeffs)
    for r in modp.roots(coeffs, p):
        if modp.poly_mod(deriv, r, p) != 0:
            roots.append(_newton_lift(coeffs, deriv, r, p, budget))
            continue
        if budget <= 1:
            obstructions.append(r)
            continue
        shifted = _taylor_shift(coeffs, r)
        k_r = next(i for i, c in enumerate(shifted) if c % p)
        v = min(valuation(c, p) + i for i, c in enumerate(shifted) if c)
        reduced = [c * p ** i // p ** v for i, c in enumerate(shifted)]
        sub_roots, _ = _zp_roots(reduced, p, budget - 1)
        roots.extend((r + p * y) % p ** budget for y in sub_roots)
        if len(sub_roots) < k_r:
            obstructions.append(r)
    return sorted(set(roots)), sorted(set(obstructions))


def _squarefree(f: LaurentPoly) -> tuple[list[int], list[int]]:
    """The primitive ascending coefficients F of a nonzero f, and F divided
    by gcd(F, F'): F itself when that gcd is 1. The quotient is primitive
    (Gauss)."""
    if f.is_zero():
        raise IdenticallyZero("the zero polynomial vanishes everywhere")
    coeffs = list(zpoly.primitive(f.form)[1])
    F = (0, tuple(coeffs))
    g = zpoly.gcd_all([F, (0, tuple(_derivative(coeffs)))])
    return coeffs, coeffs if g == zpoly.ONE else list(zpoly.divexact(F, g)[1])


def _rational_roots(coeffs: list[int], sqf: list[int]) -> list[tuple[Fraction, int]]:
    """The rational zeros of F with multiplicities, read off the l-adic
    lifts of the roots of its squarefree part S (see the module docstring)."""
    if len(sqf) == 1:
        return []
    deriv = _derivative(sqf)
    for ell in count(2):
        if sqf[-1] % ell and _is_prime(ell):
            residues = modp.roots(sqf, ell)
            if all(modp.poly_mod(deriv, r, ell) for r in residues):
                break
    lc, mod, k = sqf[-1], ell, 1
    while mod <= 2 * abs(lc * sqf[0]):
        mod, k = mod * ell, k + 1
    roots = []
    for r in residues:
        m = lc * _newton_lift(sqf, deriv, r, ell, k) % mod
        a = Fraction(m - mod if 2 * m > mod else m, lc)
        quot, mult = coeffs, 0
        while (quot := _divide_root(quot, a.numerator, a.denominator)) is not None:
            mult += 1
        if mult:
            roots.append((a, mult))
    return sorted(roots)


def rational_roots(f: LaurentPoly) -> list[tuple[Fraction, int]]:
    """All rational zeros of f with multiplicities, sorted by value. The
    gamma-power unit is stripped first, so 0 is never a zero."""
    return _rational_roots(*_squarefree(f))


def hensel_roots(f: LaurentPoly, p: int, budget: int) -> tuple[list[int], list[int]]:
    """Zeros of f in Z_p as residues mod p^budget, and the obstructed mod-p
    residues, computed on the squarefree part of the primitive integer form
    of f."""
    return _zp_roots(_squarefree(f)[1], p, budget)


@dataclass(frozen=True)
class ZeroReport:
    prime: int
    precision: int
    identically_zero: bool
    rational: tuple[tuple[Fraction, int], ...]
    padic: tuple[tuple[int, int], ...]
    obstructions: tuple[int, ...]


def zero_report(delta: LaurentPoly, p: int, precision: int = 8) -> ZeroReport:
    """Rational and p-adic zero data for a divisor polynomial."""
    if delta.is_zero():
        return ZeroReport(p, precision, True, (), (), ())
    coeffs, sqf = _squarefree(delta)
    residues, obstructions = _zp_roots(sqf, p, precision)
    rational = tuple(_rational_roots(coeffs, sqf))
    return ZeroReport(
        prime=p,
        precision=precision,
        identically_zero=False,
        rational=rational,
        padic=tuple((r, precision) for r in residues),
        obstructions=tuple(obstructions),
    )


def filter_unit_ball(report: ZeroReport) -> ZeroReport:
    """Keep only zeros at distance less than 1 from 1: rationals with
    positive valuation of a - 1, residues congruent to 1 mod p."""
    p = report.prime
    rational = tuple((a, m) for a, m in report.rational if unit_ball_check(a, p))
    padic = tuple((r, n) for r, n in report.padic if r % p == 1)
    obstructions = tuple(r for r in report.obstructions if r % p == 1)
    return replace(report, rational=rational, padic=padic, obstructions=obstructions)
