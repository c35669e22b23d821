"""Crossed homomorphisms and block-triangular extensions of a
representation at a rational evaluation point.

A generator assignment beta(g_i) extends to a crossed homomorphism on the
presented group exactly when the specialized relation matrix kills the
stacked vector of its values, so the space of crossed homomorphisms is a
nullspace computation. Each crossed homomorphism yields a representation one
dimension up, with the old one in the corner and beta in the new column, and
the relator images of that candidate are checked explicitly.

Each point is computed once. specialize keeps the specialized
representations of the fox.MEMO_SIZE (presentation, representation, point)
triples used last, so equal inputs share one SpecializedRep; nothing
mutates one, and its relator check is made once per object. cocycle_space
reads the nullspace of the specialized relation matrix from the memo that
fitting.rank_at shares (fitting._nullspace_at).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import lcm

from .errors import DivisionByZero
from .fitting import _nullspace_at, fitting_delta, zero_by_both_routes
from .fox import MEMO_SIZE, Representation, _check_shape, alexander_matrix, scaled_image
from .matrices import from_scaled, is_scaled_identity, lowest_terms
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
    """Generator images at a rational point a, with their inverses:
    a^{alpha_i} phi(g_i) from specialize, or the block-triangular
    [[a^{alpha_i} phi(g_i), beta_i], [0, 1]] from build_extension.

    The constructor takes the images as scaled matrices, integer rows
    over one positive denominator in lowest terms (scaled and scaled_invs),
    which is what word products, relator checks and the point eliminations
    read. mats and invs are the same images as Fraction matrices, built on
    first use. Nothing mutates an instance after it is built, so one from
    specialize may be shared."""

    def __init__(self, pres: Presentation, a: Fraction, scaled: tuple, scaled_invs: tuple):
        self.pres = pres
        self.a = a
        self.scaled = scaled
        self.scaled_invs = scaled_invs
        self.dim = len(scaled[0][0]) if scaled else 1

    @cached_property
    def mats(self) -> tuple:
        return tuple(map(from_scaled, self.scaled))

    @cached_property
    def invs(self) -> tuple:
        return tuple(map(from_scaled, self.scaled_invs))

    def factors_through(self) -> bool:
        """Whether every relator maps to the identity, i.e. the images define
        a representation of the presented group and not just of the free
        group. The relators are multiplied out on the first call only."""
        return self._kills_relators

    @cached_property
    def _kills_relators(self) -> bool:
        return all(is_scaled_identity(scaled_image(self, rel.flatten())) for rel in self.pres.relators)


def _power_times(S, e: int, n: int, d: int):
    """The scaled matrix (n / d)^e * S, in lowest terms."""
    rows, den = S
    top, bottom = (n ** e, d ** e) if e >= 0 else (d ** -e, n ** -e)
    if bottom < 0:
        top, bottom = -top, -bottom
    return lowest_terms([[x * top for x in row] for row in rows], den * bottom)


@lru_cache(maxsize=MEMO_SIZE)
def specialize(pres: Presentation, phi: Representation, a: Rational) -> SpecializedRep:
    """The images a^{alpha_i} phi(g_i) and their inverses. The MEMO_SIZE
    triples used last are kept; the key is the point's value, so 4 and
    Fraction(4) share one entry."""
    a = _nonzero_point(a)
    _check_shape(pres, phi)
    n, d = a.numerator, a.denominator
    mats, invs = phi.scaled, phi.scaled_invs
    # (a^e M)^-1 = a^-e M^-1, with M^-1 computed once per representation
    images = tuple(_power_times(S, e, n, d) for e, S in zip(pres.alpha, mats))
    inverses = tuple(_power_times(S, -e, n, d) for e, S in zip(pres.alpha, invs))
    return SpecializedRep(pres, a, images, inverses)


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
    _, basis = _nullspace_at(Q, a)
    hom_basis = tuple(CrossedHom.from_flat(vec, Q.block_dim) for vec in basis)
    return CocycleSpace(a=a, ell=Q.block_dim, dim=len(hom_basis), basis=hom_basis)


def _corner(rows, column, den: int):
    """The scaled matrix [[rows, column], [0, den]] / den, in lowest terms."""
    out = [[*row, x] for row, x in zip(rows, column)]
    out.append([0] * len(column) + [den])
    return lowest_terms(out, den)


def _extend(rho: SpecializedRep, beta: CrossedHom) -> SpecializedRep:
    """The images [[rho(g_i), beta_i], [0, 1]], with inverses
    [[rho(g_i)^-1, -rho(g_i)^-1 beta_i], [0, 1]]. Block multiplication is
    the product rule beta(uv) = beta(u) + rho(u) beta(v), so the image of a
    word holds the value of beta on it in the corner column. With beta_i =
    b / B for an integer vector b, both are scaled matrices over den * B."""
    if beta.ell != rho.dim or len(beta.vectors) != len(rho.scaled):
        raise ValueError("crossed homomorphism shape does not match")
    mats, invs = [], []
    for (rows, den), (inv_rows, inv_den), vec in zip(rho.scaled, rho.scaled_invs, beta.vectors):
        B = lcm(*(x.denominator for x in vec))
        b = [x.numerator * (B // x.denominator) for x in vec]
        mats.append(_corner([[x * B for x in row] for row in rows], [den * y for y in b], den * B))
        invs.append(
            _corner(
                [[x * B for x in row] for row in inv_rows],
                [-sum(x * y for x, y in zip(row, b)) for row in inv_rows],
                inv_den * B,
            )
        )
    return SpecializedRep(rho.pres, rho.a, tuple(mats), tuple(invs))


def _corner_column(ext: SpecializedRep, word: Word) -> tuple:
    """The top entries of the last column of the word's image under an
    extension: the value on the word of the crossed homomorphism it
    extends by."""
    rows, den = scaled_image(ext, word)
    return tuple(Fraction(row[-1], den) for row in rows[:-1])


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
    out as the identity matrix. The check reads the scaled product: in
    lowest terms it is I exactly when its denominator is 1 and its rows are
    those of I. The Fraction image is built only for the report."""
    checks = []
    for rel in pres.relators:
        image = scaled_image(candidate, rel.flatten())
        checks.append(RelatorCheck(ok=is_scaled_identity(image), image=from_scaled(image)))
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
