"""Dense polynomials over F_p and their roots, without scanning residues.

A polynomial is a list of ints in [0, p), lowest degree first, with no
trailing zeros; the zero polynomial is []. Products are integer products by
Kronecker substitution (zpoly.mul_coeffs), reduced mod p. Remainders modulo
a fixed monic polynomial use a precomputed Newton inverse of its reversal,
so each reduction costs two products.

The distinct roots of f come from gcd(f, x^p - x), with x^p mod f taken by
repeated squaring, and are split by gcd((x + delta)^((p-1)/2) - 1, .) for
delta = 1, 2, ... in turn. For p odd and two distinct roots r, s, some delta
in 1..p has (r + delta) a nonzero square and (s + delta) not, or the other way
round (the character sum of (r + d)(s + d) over d is -1, not p - 2), so the
splitting ends. The cost is polynomial in the degree and in log p. There is
no randomness, and the roots are returned sorted.
"""

from __future__ import annotations

from . import zpoly


def _trim(a: list[int]) -> list[int]:
    while a and not a[-1]:
        a.pop()
    return a


def mul(a: list[int], b: list[int], p: int) -> list[int]:
    """The product a*b mod p, by zpoly's Kronecker substitution."""
    if not a or not b:
        return []
    return _trim([c % p for c in zpoly.mul_coeffs(a, b)])


def _divmod(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    """Schoolbook quotient and remainder of a by a nonzero b."""
    rem = a[:]
    db = len(b) - 1
    inv = pow(b[-1], -1, p)
    quot = [0] * max(len(a) - db, 0)
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
        # the reversal's inverse mod x^(n-1), by Newton iteration h <- h(2 - gh)
        rev, inv, prec = f[::-1], [1], 1
        while prec < self.n - 1:
            prec = min(2 * prec, self.n - 1)
            e = [-c % p for c in mul(rev[:prec], inv, p)[:prec]]
            e[0] = (e[0] + 2) % p
            inv = _trim(mul(inv, e, p)[:prec])
        self.inv = inv

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
    # p = 2 never splits below (exponent 0): fbar, at most p long, is linear.
    found = []
    todo = [(g, 1)] if len(g) > 1 else []
    while todo:
        g, delta = todo.pop()
        if len(g) == 2:
            found.append(-g[0] % p)
            continue
        mod = Modulus(g, p)
        while True:
            half = gcd(g, _sub(mod.linear_pow(delta % p, (p - 1) // 2), [1], p), p)
            delta += 1
            if 1 < len(half) < len(g):
                todo += [(half, delta), (_divmod(g, half, p)[0], delta)]
                break
    return sorted(found)
