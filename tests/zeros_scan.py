"""The residue scan: the reference route that p-adic root finding by
polynomial gcds and one Taylor shift per multiple residue is checked against.

It works on descending coefficient lists (highest degree first) with helpers
of its own. It tests every residue r in range(p) by Horner evaluation mod p,
at a cost of p * degree steps, and always takes the squarefree part by the
rational gcd of f and f'. At a residue that is multiple mod p it counts the
multiplicity by repeated deflation mod p and expands F(r + p*y) by Horner's
rule in the polynomial ring. So the two routes differ in how the residues
mod p, the squarefree part, the multiplicity and the substitution are found;
they share only the primitive integer form and the rational squarefree part.
_horner and _deflate are the synthetic division that rational_roots used on
descending lists. _divide_linear and scan_rational_roots are the divisor
route that rational_roots replaced: every candidate +-s/q from the divisors
of the end coefficients, tested by synthetic division by x - a over
Fraction; rational_roots reads its candidates off an l-adic lift and
divides the integer form by q*x - s exactly.
"""

from fractions import Fraction

from propfox import zpoly
from propfox.errors import IdenticallyZero
from propfox.scalars import valuation
from propfox.zeros import _squarefree


def _horner(coeffs: list, x: Fraction) -> Fraction:
    v = Fraction(0)
    for c in coeffs:
        v = v * x + c
    return v


def _deflate(coeffs: list, a: Fraction) -> list:
    """Quotient of a descending coefficient list by (x - a); the caller must
    know a is a root."""
    out = [coeffs[0]]
    for c in coeffs[1:-1]:
        out.append(c + a * out[-1])
    return out


def _divide_linear(coeffs: list, a: Fraction) -> tuple[list, Fraction]:
    """Quotient and remainder f(a) of an ascending coefficient list by
    (x - a), by synthetic division from the top."""
    acc = 0
    quot = []
    for c in reversed(coeffs):
        acc = acc * a + c
        quot.append(acc)
    rem = quot.pop()
    return quot[::-1], rem


def _divisors_by_factoring(n: int) -> list[int]:
    """The positive divisors of n != 0, from its factorization by trial
    division."""
    n = abs(n)
    divisors = [1]
    p = 2
    while n > 1:
        if p * p > n:
            p = n
        k = 0
        while n % p == 0:
            n //= p
            k += 1
        divisors = [d * p**i for d in divisors for i in range(k + 1)]
        p += 1
    return divisors


def scan_rational_roots(f):
    """rational_roots by Fraction synthetic division: every candidate
    +-s/q, s dividing the constant and q the leading coefficient of the
    primitive integer form, divided out while the remainder is 0."""
    if f.is_zero():
        raise IdenticallyZero("the zero polynomial vanishes everywhere")
    coeffs = list(zpoly.primitive(f.form)[1])
    if len(coeffs) == 1:
        return []
    candidates = {
        Fraction(sign * s, q)
        for s in _divisors_by_factoring(coeffs[0])
        for q in _divisors_by_factoring(coeffs[-1])
        for sign in (1, -1)
    }
    roots = []
    for a in sorted(candidates):
        mult = 0
        quot, rem = _divide_linear(coeffs, a)
        while rem == 0:
            mult += 1
            quot, rem = _divide_linear(quot, a)
        if mult:
            roots.append((a, mult))
    return roots


def _poly_mod(coeffs: list[int], x: int, mod: int) -> int:
    v = 0
    for c in coeffs:
        v = (v * x + c) % mod
    return v


def _derivative(coeffs: list[int]) -> list[int]:
    deg = len(coeffs) - 1
    return [c * (deg - i) for i, c in enumerate(coeffs[:-1])]


def _mult_mod_p(coeffs: list[int], r: int, p: int) -> int:
    """Multiplicity of r as a root of the reduction mod p."""
    work = [c % p for c in coeffs]
    mult = 0
    while len(work) > 1 and _poly_mod(work, r, p) == 0:
        out = [work[0]]
        for c in work[1:-1]:
            out.append((c + r * out[-1]) % p)
        work = out
        mult += 1
    return mult


def _newton_lift(coeffs: list[int], r: int, p: int, budget: int) -> int:
    x = r % p
    prec = 1
    deriv = _derivative(coeffs)
    while prec < budget:
        prec = min(2 * prec, budget)
        mod = p**prec
        fx = _poly_mod(coeffs, x, mod)
        dfx = _poly_mod(deriv, x, mod)
        x = (x - fx * pow(dfx, -1, mod)) % mod
    return x


def _compose_affine(coeffs: list[int], r: int, p: int) -> list[int]:
    """Descending integer coefficients of F(r + p*y), by Horner in the
    polynomial ring: acc <- acc * (p*y + r) + c."""
    acc = [coeffs[0]]
    for c in coeffs[1:]:
        nxt = [p * a for a in acc] + [0]
        for i, a in enumerate(acc):
            nxt[i + 1] += r * a
        nxt[-1] += c
        acc = nxt
    return acc


def scan_zp_roots(coeffs, p, budget):
    """Zeros of a squarefree integer polynomial (highest degree first) in
    Z_p, as residues mod p^budget, plus the obstructed mod-p residues."""
    roots = []
    obstructions = []
    deriv = _derivative(coeffs)
    for r in range(p):
        if _poly_mod(coeffs, r, p) != 0:
            continue
        if _poly_mod(deriv, r, p) != 0:
            roots.append(_newton_lift(coeffs, r, p, budget))
            continue
        k_r = _mult_mod_p(coeffs, r, p)
        if budget <= 1:
            obstructions.append(r)
            continue
        shifted = _compose_affine(coeffs, r, p)
        v = min(valuation(c, p) for c in shifted if c != 0)
        reduced = [c // p**v for c in shifted]
        sub_roots, _ = scan_zp_roots(reduced, p, budget - 1)
        roots.extend(sorted((r + p * y) % p**budget for y in sub_roots))
        if len(sub_roots) < k_r:
            obstructions.append(r)
    return sorted(set(roots)), sorted(set(obstructions))


def scan_hensel_roots(f, p, budget):
    """hensel_roots by the scan, on the squarefree part from the rational gcd."""
    if f.is_zero():
        raise IdenticallyZero("the zero polynomial vanishes everywhere")
    coeffs = _squarefree(f)[1][::-1]
    if len(coeffs) == 1:
        return [], []
    return scan_zp_roots(coeffs, p, budget)
