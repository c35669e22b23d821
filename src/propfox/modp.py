"""Dense polynomials over F_p and their roots, without scanning residues.

A polynomial is a list of ints in [0, p), lowest degree first, with no
trailing zeros; the zero polynomial is []. Products are integer products
(zpoly.mul_coeffs: schoolbook when short, Kronecker substitution past that),
reduced mod p. Division reads a long quotient off the reversals, rev(a) *
rev(b)^-1 mod x^k, with the inverse taken by Newton iteration (von zur
Gathen and Gerhard, Modern Computer Algebra, ch. 9); a short quotient or a
low-degree divisor goes by schoolbook (see _NEWTON_DIVISION). Remainders
modulo a fixed monic polynomial use the same inverse, taken once, so each
reduction costs two products.

The distinct roots of f come from gcd(f, x^p - x), with x^p mod f taken by
repeated squaring. A factor of degree 2 gives its roots by the quadratic
formula, with a Tonelli-Shanks square root. A longer one is split by
gcd((x + delta)^((p-1)/2) - 1, .) for delta = 1, 2, ... in turn. For p odd
and two distinct roots r, s, some delta in 1..p has (r + delta) a nonzero
square and (s + delta) not, or the other way round (the character sum of
(r + d)(s + d) over d is -1, not p - 2), so the splitting ends. The cost is
polynomial in the degree and in log p. There is no randomness: the square
root searches for the least non-residue, and the roots are returned sorted.

poly_mod evaluates an integer polynomial by Horner's rule modulo any
modulus, a prime or a prime power, and rank is the rank over F_p of a
matrix of residues, by Gaussian elimination.
"""

from __future__ import annotations

from . import zpoly

# The least quotient length and divisor degree at which _divmod divides by
# a Newton inverse. At 32 by 32 it took 0.8-1.0 of schoolbook's time (p =
# 101 to 2^61 - 1); against divisors of degree 16 or less it was mostly
# slower; at 265 by 163 it took 0.57 ms against 5.1 ms (x86-64, Python 3.11).
_NEWTON_DIVISION = 32


def _trim(a: list[int]) -> list[int]:
    while a and not a[-1]:
        a.pop()
    return a


def mul(a: list[int], b: list[int], p: int) -> list[int]:
    """The product a*b mod p, by zpoly's Kronecker substitution."""
    if not a or not b:
        return []
    return _trim([c % p for c in zpoly.mul_coeffs(a, b)])


def _inverse(g: list[int], k: int, p: int) -> list[int]:
    """g^-1 mod x^k for g[0] != 0 and k >= 1, by Newton iteration
    h <- h(2 - gh), which doubles the precision of h each step."""
    inv, prec = [pow(g[0], -1, p)], 1
    while prec < k:
        prec = min(2 * prec, k)
        e = [-c % p for c in mul(g[:prec], inv, p)[:prec]]
        e[0] = (e[0] + 2) % p
        inv = _trim(mul(inv, e, p)[:prec])
    return inv


def _divmod(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder of a by a nonzero b. When the quotient's k
    digits and the degree of b are both at least _NEWTON_DIVISION, the
    quotient is read off its reversal, rev(a) * rev(b)^-1 mod x^k, and the
    remainder off the low terms of a - q*b; otherwise schoolbook division
    takes one digit at a time."""
    db = len(b) - 1
    k = len(a) - db
    if min(k, db) >= _NEWTON_DIVISION:
        qrev = mul(a[::-1][:k], _inverse(b[::-1], k, p), p)[:k]
        q = [0] * (k - len(qrev)) + qrev[::-1]
        return q, _sub(a[:db], mul(q[:db], b[:db], p)[:db], p)
    rem = a[:]
    inv = pow(b[-1], -1, p)
    quot = [0] * max(k, 0)
    while len(rem) > db:
        c = rem[-1] * inv % p
        shift = len(rem) - 1 - db
        quot[shift] = c
        rem[shift:] = [(x - c * y) % p for x, y in zip(rem[shift:], b)]
        _trim(rem)
    return quot, rem


def _monic(a: list[int], p: int) -> list[int]:
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def gcd(a: list[int], b: list[int], p: int) -> list[int]:
    """The monic gcd of a and b, not both zero."""
    while b:
        a, b = b, _divmod(a, b, p)[1]
    return _monic(a, p)


class Modulus:
    """Reduction modulo a fixed monic f of degree n >= 2."""

    def __init__(self, f: list[int], p: int):
        self.f, self.p, self.n = f, p, len(f) - 1
        self.inv = _inverse(f[::-1], self.n - 1, p)

    def rem(self, a: list[int]) -> list[int]:
        """a mod f for a of degree below 2n - 1, such as a product of two
        reduced polynomials: the quotient's k coefficients, reversed, are
        rev(a) * rev(f)^-1 mod x^k."""
        n, p = self.n, self.p
        k = len(a) - n
        if k <= 0:
            return a
        qrev = mul(a[::-1][:k], self.inv[:k], p)[:k]
        q = [0] * (k - len(qrev)) + qrev[::-1]
        qf = mul(q, self.f, p)
        return _trim([(x - y) % p for x, y in zip(a[:n], qf)])

    def linear_pow(self, delta: int, e: int) -> list[int]:
        """(x + delta)^e mod f for e >= 1, by left-to-right repeated squaring."""
        n, p = self.n, self.p
        out = [delta, 1]
        for bit in bin(e)[3:]:
            out = self.rem(mul(out, out, p))
            if bit == "1":
                # out*(x + delta), less its x^n coefficient times f
                top = out[-1] if len(out) == n else 0
                padded = out + [0] * (n - len(out))
                out = _trim([(a + delta * b - top * c) % p for a, b, c in zip([0] + out, padded, self.f)])
        return out


def _sub(a: list[int], b: list[int], p: int) -> list[int]:
    n = max(len(a), len(b))
    return _trim([(x - y) % p for x, y in zip(a + [0] * (n - len(a)), b + [0] * (n - len(b)))])


def _sqrt(n: int, p: int) -> int:
    """A square root of a nonzero square n mod an odd prime p, by
    Tonelli-Shanks. With p - 1 = q 2^s, q odd, x = n^((q + 1) / 2) has
    x^2 = n t for t = n^q, of order 2^i for some i < s; each step multiplies
    x by a power b of c = z^q, z the least non-residue, of order 2^(i+1),
    and so t by b^2, which lowers i. No step runs when t = 1, as always
    at p = 3 mod 4."""
    q, s = p - 1, 0
    while not q % 2:
        q, s = q // 2, s + 1
    x, t = pow(n, (q + 1) // 2, p), pow(n, q, p)
    if t == 1:
        return x
    z = 2
    while pow(z, (p - 1) // 2, p) == 1:
        z += 1
    c, m = pow(z, q, p), s
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            i, t2 = i + 1, t2 * t2 % p
        b = pow(c, 1 << (m - i - 1), p)
        x, c, t, m = x * b % p, b * b % p, t * b * b % p, i
    return x


def roots(f: list[int], p: int) -> list[int]:
    """The distinct roots in [0, p) of an integer polynomial f (lowest degree
    first) reduced mod p, sorted."""
    fbar = _trim([c % p for c in f])
    if len(fbar) > p:
        # f mod x^p - x has the same roots: x^i = x^(1 + (i - 1) mod (p - 1)) for i >= 1
        fbar = _trim([fbar[0]] + [sum(fbar[i :: p - 1]) % p for i in range(1, p)])
        if not fbar:
            return list(range(p))
    if len(fbar) < 2:
        return []
    fbar = _monic(fbar, p)
    # a linear polynomial divides x^p - x
    g = fbar if len(fbar) == 2 else gcd(fbar, _sub(Modulus(fbar, p).linear_pow(0, p), [0, 1], p), p)
    found = []
    todo = [(g, 1)] if len(g) > 1 else []
    while todo:
        g, delta = todo.pop()
        if len(g) == 2:
            found.append(-g[0] % p)
            continue
        # fbar, at most p long, is linear at p = 2, so p is odd from here on
        assert p > 2
        if len(g) == 3:
            # x^2 + bx + c with two distinct roots: (-b +- sqrt(b^2 - 4c)) / 2
            c, b = g[0], g[1]
            s, half = _sqrt((b * b - 4 * c) % p, p), (p + 1) // 2
            found += [(s - b) * half % p, (-s - b) * half % p]
            continue
        mod = Modulus(g, p)
        while True:
            half = gcd(g, _sub(mod.linear_pow(delta % p, (p - 1) // 2), [1], p), p)
            delta += 1
            if 1 < len(half) < len(g):
                todo += [(half, delta), (_divmod(g, half, p)[0], delta)]
                break
    return sorted(found)


def poly_mod(coeffs: list[int], x: int, mod: int) -> int:
    """The value at x of integer coefficients, lowest degree first, modulo
    mod, by Horner's rule with one reduction per coefficient."""
    v = 0
    for c in reversed(coeffs):
        v = (v * x + c) % mod
    return v


def rank(M: list[list[int]], p: int) -> int:
    """The rank over F_p of a matrix of ints in [0, p), by Gaussian
    elimination on a copy of its nonzero rows."""
    rows = [row for row in M if any(row)]
    n_cols = len(rows[0]) if rows else 0
    found = 0
    for j in range(n_cols):
        i = next((i for i in range(found, len(rows)) if rows[i][j]), None)
        if i is None:
            continue
        rows[found], rows[i] = rows[i], rows[found]
        piv = rows[found]
        inv = pow(piv[j], -1, p)
        for i in range(found + 1, len(rows)):
            if c := rows[i][j] * inv % p:
                rows[i] = [(x - c * y) % p for x, y in zip(rows[i], piv)]
        found += 1
        if found == len(rows):
            break
    return found
