"""The residue scan: the reference route that p-adic root finding by
polynomial gcds is checked against.

It tests every residue r in range(p) by Horner evaluation mod p, at a cost of
p * degree steps, and always takes the squarefree part by the rational gcd of
f and f'. The Newton lift, the multiplicity count and the substitution
x = r + p*y are the program's own, so the two routes differ only in how the
residues mod p and the squarefree part are found.
"""

from propfox.errors import IdenticallyZero
from propfox.zeros import (
    _compose_affine,
    _dense_int_coeffs,
    _derivative,
    _mult_mod_p,
    _newton_lift,
    _poly_mod,
    _squarefree_part,
)
from propfox.scalars import valuation


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
    coeffs = _dense_int_coeffs(_squarefree_part(f))
    if len(coeffs) == 1:
        return [], []
    return scan_zp_roots(coeffs, p, budget)
