"""Crossed homomorphisms and block-triangular extensions of a
representation at a rational evaluation point.

A generator assignment beta(g_i) extends to a crossed homomorphism on the
presented group exactly when the specialized relation matrix kills the
stacked vector of its values, so the space of crossed homomorphisms is a
nullspace computation. Each crossed homomorphism yields a representation one
dimension up, with the old one in the corner and beta in the new column, and
the relator images of that candidate are checked explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DivisionByZero
from .fitting import fitting_delta, zero_by_both_routes
from .fox import Representation, _check_shape, alexander_matrix, evaluate_word
from .matrices import frac_identity, frac_rank_nullspace, freeze
from .presentation import Presentation, Word
from .scalars import Rational


def mat_vec(M, v):
    return tuple(sum(row[c] * v[c] for c in range(len(v))) for row in M)


def _nonzero_point(a: Rational) -> Fraction:
    a = Fraction(a)
    if a == 0:
        raise DivisionByZero("the evaluation point must be a nonzero rational")
    return a


@dataclass(frozen=True)
class CrossedHom:
    """One value vector per generator, each of length ell."""

    ell: int
    vectors: tuple

    def __post_init__(self):
        for vec in self.vectors:
            if len(vec) != self.ell:
                raise ValueError("crossed homomorphism vector has the wrong length")

    @staticmethod
    def from_flat(flat, ell: int) -> "CrossedHom":
        if len(flat) % ell:
            raise ValueError("flat vector length is not a multiple of the dimension")
        n = len(flat) // ell
        vecs = tuple(tuple(flat[i * ell + c] for c in range(ell)) for i in range(n))
        return CrossedHom(ell, vecs)

    def stacked(self) -> tuple:
        return tuple(x for vec in self.vectors for x in vec)

    def scale(self, c) -> "CrossedHom":
        c = Fraction(c)
        return CrossedHom(self.ell, tuple(tuple(c * x for x in v) for v in self.vectors))

    def __add__(self, other: "CrossedHom") -> "CrossedHom":
        if self.ell != other.ell or len(self.vectors) != len(other.vectors):
            raise ValueError("crossed homomorphism shapes differ")
        return CrossedHom(
            self.ell,
            tuple(
                tuple(x + y for x, y in zip(u, v))
                for u, v in zip(self.vectors, other.vectors)
            ),
        )


class SpecializedRep:
    """Generator images at a rational point a, as rational matrices with
    their inverses: a^{alpha_i} phi(g_i) from specialize, or the
    block-triangular [[a^{alpha_i} phi(g_i), beta_i], [0, 1]] from
    build_extension."""

    def __init__(self, pres: Presentation, a: Fraction, mats: tuple, invs: tuple):
        self.pres = pres
        self.a = a
        self.mats = mats
        self.invs = invs
        self.dim = len(mats[0]) if mats else 1

    def identity(self):
        return frac_identity(self.dim)

    def factors_through(self) -> bool:
        """Whether every relator maps to the identity, i.e. the images define
        a representation of the presented group and not just of the free
        group."""
        return verify_factors(self, self.pres).ok


def specialize(pres: Presentation, phi: Representation, a: Rational) -> SpecializedRep:
    a = _nonzero_point(a)
    _check_shape(pres, phi)

    def scaled(images, sign):
        return tuple(
            freeze([[a ** (sign * e) * x for x in row] for row in M])
            for e, M in zip(pres.alpha, images)
        )

    # (a^e M)^-1 = a^-e M^-1, with M^-1 computed once per representation
    return SpecializedRep(pres, a, scaled(phi.images, 1), scaled(phi.inverses, -1))


@dataclass(frozen=True)
class CocycleSpace:
    a: Fraction
    ell: int
    dim: int
    basis: tuple


def cocycle_space(pres: Presentation, phi: Representation, a: Rational) -> CocycleSpace:
    """Basis of the crossed homomorphisms of the presented group valued in
    the specialization at a: the nullspace of the specialized relation
    matrix, reshaped to one vector per generator."""
    a = _nonzero_point(a)
    Q = alexander_matrix(pres, phi)
    _, basis = frac_rank_nullspace(Q.specialize(a), Q.n_cols)
    hom_basis = tuple(CrossedHom.from_flat(vec, Q.block_dim) for vec in basis)
    return CocycleSpace(a=a, ell=Q.block_dim, dim=len(hom_basis), basis=hom_basis)


def _corner(M, b):
    ell = len(M)
    rows = [tuple(M[r]) + (b[r],) for r in range(ell)]
    rows.append(tuple(Fraction(0) for _ in range(ell)) + (Fraction(1),))
    return freeze(rows)


def _extend(rho: SpecializedRep, beta: CrossedHom) -> SpecializedRep:
    """The images [[rho(g_i), beta_i], [0, 1]], with inverses
    [[rho(g_i)^-1, -rho(g_i)^-1 beta_i], [0, 1]]. Block multiplication is
    the product rule beta(uv) = beta(u) + rho(u) beta(v), so the image of a
    word holds the value of beta on it in the corner column."""
    if beta.ell != rho.dim or len(beta.vectors) != len(rho.mats):
        raise ValueError("crossed homomorphism shape does not match")
    mats = tuple(_corner(M, b) for M, b in zip(rho.mats, beta.vectors))
    invs = tuple(
        _corner(Minv, tuple(-x for x in mat_vec(Minv, b)))
        for Minv, b in zip(rho.invs, beta.vectors)
    )
    return SpecializedRep(rho.pres, rho.a, mats, invs)


def _corner_column(ext: SpecializedRep, word: Word) -> tuple:
    """The top entries of the last column of the word's image under an
    extension: the value on the word of the crossed homomorphism it
    extends by."""
    return tuple(row[-1] for row in evaluate_word(ext, word)[:-1])


def build_extension(
    pres: Presentation, phi: Representation, a: Rational, beta: CrossedHom
) -> SpecializedRep:
    """Generator images [[a^{alpha_i} phi(g_i), beta_i], [0, 1]], one
    dimension up from phi. Nothing is verified here; run verify_factors to
    test the relators."""
    return _extend(specialize(pres, phi, a), beta)


@dataclass(frozen=True)
class RelatorCheck:
    ok: bool
    image: tuple


@dataclass(frozen=True)
class VerificationReport:
    ok: bool
    relators: tuple


def verify_factors(candidate: SpecializedRep, pres: Presentation) -> VerificationReport:
    """Evaluate every flattened relator through the candidate; each must come
    out as the identity matrix."""
    ident = candidate.identity()
    checks = []
    for rel in pres.relators:
        image = evaluate_word(candidate, rel.flatten())
        checks.append(RelatorCheck(ok=image == ident, image=image))
    return VerificationReport(ok=all(c.ok for c in checks), relators=tuple(checks))


def evaluate_cocycle(beta: CrossedHom, rho: SpecializedRep, word: Word):
    """Value of the crossed homomorphism on a word: the corner column of
    the word's image under the extension of rho by beta."""
    return _corner_column(_extend(rho, beta), word)


@dataclass(frozen=True)
class ExtensionCount:
    dim: int
    k: int
    meets_k: bool
    delta_zero: bool


def extension_count_criterion(
    pres: Presentation, phi: Representation, a: Rational, k: int | None = None
) -> ExtensionCount:
    """Compare the crossed-homomorphism dimension against the threshold k,
    and cross-check against the vanishing of the (k-1)-st determinant
    divisor at a. The dimension is the nullity of the specialized relation
    matrix, so the two tests are equivalent by rank counting; if they ever
    disagree there is a bug, and the run stops hard."""
    if k is None:
        k = phi.dim + 1
    space = cocycle_space(pres, phi, a)
    delta = fitting_delta(alexander_matrix(pres, phi), k - 1).delta
    dz = zero_by_both_routes(delta.eval_at(space.a), space.dim, k - 1, space.a)
    return ExtensionCount(dim=space.dim, k=k, meets_k=space.dim >= k, delta_zero=dz)
