"""The Fox calculus over Laurent-valued matrices: the reference route the
graded one-pass relation matrix is checked against.

Each syllable g^e contributes (image of the prefix so far) times the geometric
sum of the image of g with length e, every product taken over Laurent
polynomials, one walk per generator. The ring-generic matrix helpers this
route needs live here, next to their only consumer.

fraction_fox_pass is the one-pass walk on Fraction coefficients that the
integer pass in propfox.fox replaced, kept as a second oracle.
"""

from propfox.errors import NotInvertible
from propfox.fox import AlexanderMatrix, Representation
from propfox.laurent import LaurentPoly

from matrices_oracle import mat_mul, oracle_identity, oracle_inverse


def mat_add(A, B):
    return tuple(tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(A, B))


def mat_neg(A):
    return tuple(tuple(-a for a in r) for r in A)


def mat_scale(c, A):
    return tuple(tuple(c * a for a in r) for r in A)


def identity(n: int, one, zero):
    return tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))


def mat_pow(A, n: int, ident):
    """A^n for n >= 0 by repeated squaring, over any ring."""
    if n < 0:
        raise ValueError(f"matrix power needs n >= 0, got {n}")
    result = ident
    base = A
    while n:
        if n & 1:
            result = mat_mul(result, base)
        base = mat_mul(base, base) if n > 1 else base
        n >>= 1
    return result


def geometric_sum(M, n: int, ident, inverse=None):
    """I + M + ... + M^(n-1) for n >= 0, by joint doubling of the pair
    (M^k, partial sum). For n < 0 returns -(M^-1 + ... + M^n), which needs
    the inverse of M."""
    zero = mat_scale(0, ident)
    if n == 0:
        return zero
    if n < 0:
        if inverse is None:
            raise NotInvertible("negative syllable power needs an inverse image")
        return mat_neg(mat_mul(mat_pow(inverse, -n, ident), geometric_sum(M, -n, ident)))
    S = zero
    P = ident
    for bit in bin(n)[2:]:
        S = mat_add(S, mat_mul(P, S))
        P = mat_mul(P, P)
        if bit == "1":
            S = mat_add(S, P)
            P = mat_mul(P, M)
    return S


def _laurent_wrap(M, exp: int):
    """Lift a rational matrix into the Laurent ring, scaled by g^exp."""
    return tuple(
        tuple(LaurentPoly({exp: c}) if c else LaurentPoly.zero() for c in row) for row in M
    )


class LaurentTensorRep:
    """The generator images g^{alpha_i} (x) phi(g_i) as Laurent-valued
    matrices, with the protocol laurent_evaluate_word and geometric_sum
    expect."""

    def __init__(self, pres, phi: Representation):
        if len(phi.images) != pres.n_generators:
            raise ValueError("representation does not match the generator count")
        self.exps = pres.alpha
        self.dim = phi.dim
        self.phi_mats = phi.images
        self.phi_invs = tuple(map(oracle_inverse, phi.images))

    def identity(self):
        return identity(self.dim, LaurentPoly.one(), LaurentPoly.zero())

    def image(self, i: int):
        return _laurent_wrap(self.phi_mats[i], self.exps[i])

    def image_inverse(self, i: int):
        return _laurent_wrap(self.phi_invs[i], -self.exps[i])

    def syllable_image(self, i: int, e: int):
        base = self.phi_mats[i] if e >= 0 else self.phi_invs[i]
        return _laurent_wrap(mat_pow(base, abs(e), oracle_identity(self.dim)), self.exps[i] * e)


def laurent_evaluate_word(rep: LaurentTensorRep, word):
    """Image of a word as the product of its Laurent syllable images."""
    acc = rep.identity()
    for g, e in word.syllables:
        acc = mat_mul(acc, rep.syllable_image(g, e))
    return acc


def laurent_fox_derivative(rep: LaurentTensorRep, word, gen: int):
    ident = rep.identity()
    acc = mat_scale(0, ident)
    pre = ident
    for j, e in word.syllables:
        if j == gen:
            inv = rep.image_inverse(j) if e < 0 else None
            acc = mat_add(acc, mat_mul(pre, geometric_sum(rep.image(j), e, ident, inv)))
        pre = mat_mul(pre, rep.syllable_image(j, e))
    return acc


def laurent_alexander_matrix(pres, rep: Representation | None = None) -> AlexanderMatrix:
    """The relation matrix by the reference route, hypotheses unchecked."""
    if rep is None:
        rep = Representation.trivial(pres.n_generators)
    tensor = LaurentTensorRep(pres, rep)
    ell = tensor.dim
    rows = []
    for rel in pres.relators:
        w = rel.flatten()
        blocks = [laurent_fox_derivative(tensor, w, i) for i in range(pres.n_generators)]
        for r in range(ell):
            rows.append(tuple(blocks[i][r][c] for i in range(pres.n_generators) for c in range(ell)))
    return AlexanderMatrix.from_entries(
        entries=tuple(rows),
        n_relators=len(pres.relators),
        n_generators=pres.n_generators,
        block_dim=ell,
        prime=pres.prime,
    )


def fraction_fox_pass(exps, mats, invs, word) -> list:
    """The derivatives of the word by every generator, in one walk over its
    letters: dim rows of n_generators * dim maps from int exponents to
    Fraction coefficients, some of them zero sums, column block i holding
    the derivative by g_i. Generator g_i maps to g^exps[i] (x) mats[i], and
    invs[i] is the inverse of mats[i].

    The image of the prefix read so far is one graded pair g^k (x) P. A letter
    g_j contributes +P at g^k to block j and then steps the pair to
    g^(k + exps[j]) (x) P mats[j]; a letter g_j^-1 first steps the pair by
    the inverse image and then contributes -P."""
    ell = len(mats[0]) if mats else 1
    one = oracle_identity(ell)
    rows = [[{} for _ in range(len(exps) * ell)] for _ in range(ell)]
    P = one
    k = 0
    for j, e in word.syllables:
        step = mats[j] if e > 0 else invs[j]
        shift = exps[j] if e > 0 else -exps[j]
        fixed = step == one
        block = [row[j * ell:(j + 1) * ell] for row in rows]
        for _ in range(abs(e)):
            if e < 0:
                P = P if fixed else mat_mul(P, step)
                k += shift
            for Pr, cells in zip(P, block):
                for x, cell in zip(Pr, cells):
                    if x:
                        cell[k] = cell.get(k, 0) + (x if e > 0 else -x)
            if e > 0:
                P = P if fixed else mat_mul(P, step)
                k += shift
    return rows
