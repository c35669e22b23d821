"""Free differential calculus and the twisted relation matrix.

The derivative of a word with respect to a generator is taken through a
representation. Coefficients lie in a one-variable Laurent-polynomial ring
whose variable g records the exponent weighting of the presentation, tensored
with a finite-dimensional rational representation of the generators. Every
generator image is g^alpha_i (x) phi(g_i), so the image of any prefix is one
graded pair g^k (x) P with P rational: one walk over a word's letters gives
its derivatives by every generator, with one rational matrix product per
letter and no Laurent multiplication.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

from .errors import HypothesisViolated, ParseError, UnknownGenerator
from .laurent import LaurentPoly
from .matrices import (
    frac_identity,
    frac_inverse,
    freeze,
    from_scaled,
    mat_mul,
    scaled_mul,
    scaled_pow,
    to_scaled,
)
from .presentation import Presentation, Word, validate_presentation
from .scalars import Rational, parse_int, parse_rational


@dataclass(frozen=True)
class Representation:
    """A map from the generators to invertible square rational matrices."""

    dim: int
    images: tuple

    def __post_init__(self):
        for M in self.images:
            if len(M) != self.dim or any(len(row) != self.dim for row in M):
                raise ValueError("representation matrix has the wrong shape")

    @staticmethod
    def trivial(n_generators: int) -> "Representation":
        one = ((Fraction(1),),)
        return Representation(1, tuple(one for _ in range(n_generators)))

    @cached_property
    def inverses(self) -> tuple:
        return tuple(frac_inverse(M) for M in self.images)

    def is_trivial(self) -> bool:
        return self.dim == 1 and all(M[0][0] == 1 for M in self.images)


def parse_representation(text: str, pres: Presentation) -> Representation:
    """Read a representation file: 'dim L' then, per generator, a 'matrix
    name' header followed by L rows of L rationals."""
    dim: int | None = None
    images: dict[int, tuple] = {}
    pending: str | None = None
    pending_rows: list[tuple] = []
    gen_index = {name: i for i, name in enumerate(pres.generators)}

    def close_pending(lineno: int):
        nonlocal pending, pending_rows
        if pending is None:
            return
        if len(pending_rows) != dim:
            raise ParseError(
                f"matrix {pending!r} has {len(pending_rows)} rows, expected {dim}", lineno
            )
        images[gen_index[pending]] = freeze(pending_rows)
        pending, pending_rows = None, []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        if head == "dim":
            if dim is not None:
                raise ParseError("dim given twice", lineno)
            try:
                dim = parse_int(rest.strip())
            except ValueError as exc:
                raise ParseError(f"bad dimension: {exc}", lineno)
            if dim < 1:
                raise ParseError(f"dimension must be positive, got {dim}", lineno)
        elif head == "matrix":
            if dim is None:
                raise ParseError("matrix before dim", lineno)
            close_pending(lineno)
            name = rest.strip()
            if name not in gen_index:
                raise UnknownGenerator(f"unknown generator {name!r}", lineno)
            if gen_index[name] in images:
                raise ParseError(f"matrix {name!r} given twice", lineno)
            pending = name
        else:
            if pending is None:
                raise ParseError(f"unexpected row outside a matrix block: {line!r}", lineno)
            cells = line.split()
            if len(cells) != dim:
                raise ParseError(
                    f"row has {len(cells)} entries, expected {dim}", lineno
                )
            try:
                pending_rows.append(tuple(parse_rational(c) for c in cells))
            except ValueError as exc:
                raise ParseError(str(exc), lineno)
            if len(pending_rows) > dim:
                raise ParseError(f"matrix {pending!r} has too many rows", lineno)
    close_pending(len(text.splitlines()))
    if dim is None:
        raise ParseError("missing dim directive")
    missing = [n for n, i in gen_index.items() if i not in images]
    if missing:
        raise ParseError("missing matrix for: " + " ".join(missing))
    rep = Representation(dim, tuple(images[i] for i in range(len(pres.generators))))
    rep.inverses  # noqa: B018 - force the invertibility check at parse time
    return rep


def format_representation(rep: Representation, pres: Presentation) -> str:
    lines = [f"dim {rep.dim}"]
    for name, M in zip(pres.generators, rep.images):
        lines.append(f"matrix {name}")
        for row in M:
            lines.append(" ".join(str(c) for c in row))
    return "\n".join(lines) + "\n"


def evaluate_word(rep, word: Word):
    """Image of a word under a SpecializedRep, as exact Fractions: the
    explicit product of its syllable images rep.mats[g]^e, with rep.invs[g]
    for e < 0. The product runs on scaled-integer matrices; each generator
    image is converted once and each distinct syllable power computed once
    per call."""
    scaled = {}
    powers = {}
    acc = None
    for g, e in word.syllables:
        power = powers.get((g, e))
        if power is None:
            key = (g, e > 0)
            if key not in scaled:
                scaled[key] = to_scaled(rep.mats[g] if e > 0 else rep.invs[g])
            power = powers[g, e] = scaled_pow(scaled[key], abs(e))
        acc = power if acc is None else scaled_mul(acc, power)
    return frac_identity(rep.dim) if acc is None else from_scaled(acc)


def _fox_pass(exps, mats, invs, word: Word) -> list:
    """The derivatives of the word by every generator, in one walk over its
    letters: dim rows of n_generators * dim maps from int exponents to
    Fraction coefficients, some of them zero sums, column block i holding
    the derivative by g_i. Generator g_i maps to
    g^exps[i] (x) mats[i], and invs[i] is the inverse of mats[i].

    The image of the prefix read so far is one graded pair g^k (x) P. A letter
    g_j contributes +P at g^k to block j and then steps the pair to
    g^(k + exps[j]) (x) P mats[j]; a letter g_j^-1 first steps the pair by
    the inverse image and then contributes -P."""
    ell = len(mats[0]) if mats else 1
    one = frac_identity(ell)
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


def _check_shape(pres: Presentation, phi: Representation) -> None:
    if len(phi.images) != pres.n_generators:
        raise ValueError("representation does not match the generator count")


def fox_derivative_matrix(pres: Presentation, phi: Representation, word: Word, gen: int):
    """Derivative of the word with respect to generator `gen`, pushed through
    g^alpha (x) phi: a dim x dim matrix over the Laurent ring."""
    _check_shape(pres, phi)
    ell = phi.dim
    return tuple(
        tuple(LaurentPoly.from_sums(cell) for cell in row[gen * ell:(gen + 1) * ell])
        for row in _fox_pass(pres.alpha, phi.images, phi.inverses, word)
    )


@dataclass(frozen=True)
class AlexanderMatrix:
    """The block matrix of relator derivatives. Rows come in blocks of
    block_dim per relator, columns in blocks of block_dim per generator."""

    entries: tuple
    n_relators: int
    n_generators: int
    block_dim: int
    prime: int

    @property
    def n_rows(self) -> int:
        return self.n_relators * self.block_dim

    @property
    def n_cols(self) -> int:
        return self.n_generators * self.block_dim

    def block(self, j: int, i: int):
        ell = self.block_dim
        return tuple(
            tuple(self.entries[j * ell + r][i * ell + c] for c in range(ell))
            for r in range(ell)
        )

    def specialize(self, a: Rational):
        """Evaluate every Laurent entry at the rational point a."""
        a = Fraction(a)
        return tuple(tuple(f.eval_at(a) for f in row) for row in self.entries)


def alexander_matrix(pres: Presentation, rep: Representation | None = None) -> AlexanderMatrix:
    """Differentiate every relator (flattened to left * right^-1) by every
    generator under the weighted tensor representation. The hypotheses are
    checked on every call; the matrix itself is built once per equal
    (presentation, representation) pair and shared by every later call."""
    report = validate_presentation(pres)
    if not report.ok:
        raise HypothesisViolated("; ".join(report.failures))
    if rep is None:
        rep = Representation.trivial(pres.n_generators)
    return _relation_matrix(pres, rep)


@lru_cache(maxsize=None)
def _relation_matrix(pres: Presentation, rep: Representation) -> AlexanderMatrix:
    """alexander_matrix without the hypothesis check. Like fitting_delta,
    the memo keeps every matrix it builds for the life of the process."""
    _check_shape(pres, rep)
    invs = rep.inverses
    rows = [
        tuple(LaurentPoly.from_sums(cell) for cell in row)
        for rel in pres.relators
        for row in _fox_pass(pres.alpha, rep.images, invs, rel.flatten())
    ]
    return AlexanderMatrix(
        entries=tuple(rows),
        n_relators=len(pres.relators),
        n_generators=pres.n_generators,
        block_dim=rep.dim,
        prime=pres.prime,
    )
