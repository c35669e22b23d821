"""Zero sets of determinant divisors, over the rationals and over the
p-adic integers.

Both kinds of zero are read off the primitive part of the integer form that
the LaurentPoly holds, as an ascending list of int coefficients: the unit
c*g^k drops out, so the constant term is nonzero. Rational zeros come from
the classical divisor test, with the divisors of the constant and leading
coefficients read off their factorisations by trial division, at a cost that
grows with the second largest prime factor of each, or the square root of
the largest; each candidate s/q is tested by exact division by q*x - s on
the integers. p-adic zeros are residues mod p^N produced by lifting. The
residues mod p are the roots of gcd(f mod p, x^p - x), split apart by
further gcds (modp.roots), at a cost polynomial in the degree and in log p
rather than linear in p. Simple residues lift uniquely by Newton iteration,
while residues that are multiple mod p are resolved by the substitution
x = r + p*y, read off the Taylor shift F(r + x), and a recursion on the
precision budget. A residue whose lifted zero count falls short of its
multiplicity mod p is reported as an obstruction: the missing zeros live in
a ramified extension (or need more precision), not in Z_p.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from . import modp, zpoly
from .errors import IdenticallyZero
from .laurent import LaurentPoly
from .scalars import unit_ball_check, valuation


def _divisors(n: int) -> list[int]:
    """The positive divisors of n != 0, in no particular order, built from
    its factorisation by trial division: each prime found is divided out,
    so the trial stops at the square root of what is left, and the list
    grows only by the multiples of a prime that divides."""
    n, out, i = abs(n), [1], 2
    while i * i <= n:
        new = out
        while n % i == 0:
            n //= i
            new = [d * i for d in new]
            out += new
        i += 1
    if n > 1:
        out += [d * n for d in out]
    return out


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


def rational_roots(f: LaurentPoly) -> list[tuple[Fraction, int]]:
    """All rational zeros of f with multiplicities, sorted by value. The
    gamma-power unit is stripped first, so 0 is never a zero. Each
    candidate s / q divides the primitive integer form as often as it is a
    zero; each quotient is again primitive (Gauss)."""
    if f.is_zero():
        raise IdenticallyZero("the zero polynomial vanishes everywhere")
    coeffs = list(zpoly.primitive(f.form)[1])
    if len(coeffs) == 1:
        return []
    candidates = {
        Fraction(sign * s, q)
        for s in _divisors(coeffs[0])
        for q in _divisors(coeffs[-1])
        for sign in (1, -1)
    }
    roots = []
    for a in sorted(candidates):
        mult = 0
        quot = _divide_root(coeffs, a.numerator, a.denominator)
        while quot is not None:
            mult += 1
            quot = _divide_root(quot, a.numerator, a.denominator)
        if mult:
            roots.append((a, mult))
    return roots


def _poly_mod(coeffs: list[int], x: int, mod: int) -> int:
    v = 0
    for c in reversed(coeffs):
        v = (v * x + c) % mod
    return v


def _derivative(coeffs: list[int]) -> list[int]:
    return [i * c for i, c in enumerate(coeffs)][1:]


def _newton_lift(coeffs: list[int], deriv: list[int], r: int, p: int, budget: int) -> int:
    x = r % p
    prec = 1
    while prec < budget:
        prec = min(2 * prec, budget)
        mod = p ** prec
        fx = _poly_mod(coeffs, x, mod)
        dfx = _poly_mod(deriv, x, mod)
        x = (x - fx * pow(dfx, -1, mod)) % mod
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
    roots: list[int] = []
    obstructions: list[int] = []
    deriv = _derivative(coeffs)
    for r in modp.roots(coeffs, p):
        if _poly_mod(deriv, r, p) != 0:
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


def _squarefree_part(coeffs: list[int]) -> list[int]:
    """The primitive ascending coefficients F divided by gcd(F, F'); F
    itself when that gcd is 1. The quotient is primitive (Gauss)."""
    F = (0, tuple(coeffs))
    g = zpoly.gcd_all([F, (0, tuple(_derivative(coeffs)))])
    return coeffs if g == zpoly.ONE else list(zpoly.divexact(F, g)[1])


def hensel_roots(f: LaurentPoly, p: int, budget: int) -> tuple[list[int], list[int]]:
    """Zeros of f in Z_p as residues mod p^budget, and the obstructed mod-p
    residues, computed on the squarefree part of the primitive integer form
    of f (_squarefree_part, one rational gcd with the derivative)."""
    if f.is_zero():
        raise IdenticallyZero("the zero polynomial vanishes everywhere")
    if budget < 1:
        raise ValueError(f"precision budget must be at least 1, got {budget}")
    coeffs = list(zpoly.primitive(f.form)[1])
    if len(coeffs) == 1:
        return [], []
    return _zp_roots(_squarefree_part(coeffs), p, budget)


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
    rational = tuple(rational_roots(delta))
    residues, obstructions = hensel_roots(delta, p, precision)
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
