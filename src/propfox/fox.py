"""Free differential calculus and the twisted relation matrix.

The derivative of a word with respect to a generator is taken through a
representation. Coefficients lie in a one-variable Laurent-polynomial ring
whose variable g records the exponent weighting of the presentation, tensored
with a finite-dimensional rational representation of the generators. Every
generator image is g^alpha_i (x) phi(g_i), so the image of any prefix is one
graded pair g^k (x) P with P rational: one walk over a word's letters gives
its derivatives by every generator, with one matrix product per letter and
no Laurent multiplication.

The walk runs on integers throughout. P is a scaled-integer matrix (integer
rows over one denominator), and each coefficient gathers in a sparse map
from exponents to integers over one running denominator per relator. The
relation matrix keeps that integer form: L, the least common denominator of
all its coefficients, and L times each entry as a zpoly value. The divisor
layer reads the form as it is held, specialization evaluates it by Horner's
rule on integers, and each LaurentPoly entry, when read, wraps its row's
zpoly value over L with no Fraction per coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, lcm

from . import zpoly
from .errors import DivisionByZero, HypothesisViolated, ParseError, UnknownGenerator
from .laurent import LaurentPoly
from .matrices import (
    frac_inverse,
    freeze,
    from_scaled,
    scaled_identity,
    scaled_mul,
    scaled_pow,
    to_scaled,
)
from .presentation import Presentation, Word, validate_presentation
from .scalars import Rational, parse_int, parse_rational
from .zpoly import ZERO, value_at


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

    @cached_property
    def scaled(self) -> tuple:
        """(images, inverses) as scaled matrices, converted once: what
        the Fox walk and specialization read."""
        return tuple(map(to_scaled, self.images)), tuple(map(to_scaled, self.inverses))

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


def scaled_image(rep, word: Word):
    """Image of a word under a SpecializedRep, as a scaled matrix in lowest
    terms: the explicit product of its syllable images rep.scaled[g]^e,
    with rep.scaled_invs[g] for e < 0, each distinct syllable power computed
    once per call."""
    powers = {}
    acc = None
    for g, e in word.syllables:
        power = powers.get((g, e))
        if power is None:
            image = rep.scaled[g] if e > 0 else rep.scaled_invs[g]
            power = powers[g, e] = scaled_pow(image, abs(e))
        acc = power if acc is None else scaled_mul(acc, power)
    return scaled_identity(rep.dim) if acc is None else acc


def evaluate_word(rep, word: Word):
    """Image of a word under a SpecializedRep, as exact Fractions: the
    scaled_image product, converted once."""
    return from_scaled(scaled_image(rep, word))


def _fox_pass(exps, rep: Representation, word: Word) -> tuple[int, list]:
    """The derivatives of the word by every generator, in one walk over its
    letters, as (D, rows): dim rows of n_generators * dim maps from int
    exponents to int coefficients, some of them zero sums, all over the one
    denominator D, column block i holding the derivative by g_i. Generator
    g_i maps to g^exps[i] (x) rep.images[i]; the walk reads both images and
    inverses from rep.scaled, converted once per representation.

    The image of the prefix read so far is one graded pair g^k (x) P, with
    P a scaled-integer matrix (integer rows over one denominator). A letter
    g_j contributes +P at g^k to block j and then steps the pair to
    g^(k + exps[j]) (x) P images[j]; a letter g_j^-1 first steps the pair
    by the inverse image and then contributes -P. When the denominator of P
    does not divide D, every map is first brought to their lcm. Within a
    syllable whose image is the identity P stays fixed, so its letters add
    the same integers at exponents k, k + shift, ..."""
    ell = rep.dim
    mats, invs = rep.scaled
    rows = [[{} for _ in range(len(exps) * ell)] for _ in range(ell)]
    one = scaled_identity(ell)
    P, D, k = one, 1, 0
    for j, e in word.syllables:
        step = mats[j] if e > 0 else invs[j]
        shift = exps[j] if e > 0 else -exps[j]
        sign = 1 if e > 0 else -1
        block = [row[j * ell:(j + 1) * ell] for row in rows]
        if step == one:
            D = _rescale(rows, D, P[1])
            f = sign * D // P[1]
            if shift:
                first = k if e > 0 else k + shift
                _add_image(P, block, f, range(first, first + abs(e) * shift, shift))
            else:
                _add_image(P, block, f * abs(e), (k,))
            k += shift * abs(e)
            continue
        for _ in range(abs(e)):
            if e < 0:
                P = scaled_mul(P, step)
                k += shift
            D = _rescale(rows, D, P[1])
            _add_image(P, block, sign * D // P[1], (k,))
            if e > 0:
                P = scaled_mul(P, step)
                k += shift
    return D, rows


def _rescale(rows, D: int, den: int) -> int:
    """lcm(D, den), with every map of rows brought from D to it."""
    if not D % den:
        return D
    m = den // gcd(D, den)
    for row in rows:
        for cell in row:
            for t in cell:
                cell[t] *= m
    return D * m


def _add_image(P, block, f: int, ks) -> None:
    """Add f times each entry of the scaled matrix P at every exponent of
    ks to the matching map of block."""
    for Pr, cells in zip(P[0], block):
        for x, cell in zip(Pr, cells):
            if x:
                v = x * f
                for t in ks:
                    cell[t] = cell.get(t, 0) + v


def _least_denominator(D: int, rows) -> tuple[int, int]:
    """(D', g): the maps over D hold the same values as their coefficients
    divided by g over D' = D / g, with g the gcd of D and every
    coefficient, so D' is their least common denominator."""
    g = gcd(D, *(x for row in rows for cell in row for x in cell.values()))
    return D // g, g


def _dense(cell: dict, div: int, m: int) -> tuple:
    """The map as a zpoly value, each coefficient divided by div (exactly)
    and multiplied by m."""
    live = [t for t, x in cell.items() if x]
    if not live:
        return ZERO
    low = min(live)
    c = [0] * (max(live) - low + 1)
    for t in live:
        c[t - low] = cell[t] // div * m
    return low, tuple(c)


def _check_shape(pres: Presentation, phi: Representation) -> None:
    if len(phi.images) != pres.n_generators:
        raise ValueError("representation does not match the generator count")


def fox_derivative_matrix(pres: Presentation, phi: Representation, word: Word, gen: int):
    """Derivative of the word with respect to generator `gen`, pushed through
    g^alpha (x) phi: a dim x dim matrix over the Laurent ring."""
    _check_shape(pres, phi)
    if not 0 <= gen < pres.n_generators:
        raise ValueError(f"no generator {gen}: the presentation has {pres.n_generators}")
    ell = phi.dim
    D, rows = _fox_pass(pres.alpha, phi, word)
    return tuple(
        tuple(LaurentPoly.from_form(_dense(cell, 1, 1), D) for cell in row[gen * ell:(gen + 1) * ell])
        for row in rows
    )


@dataclass(frozen=True)
class AlexanderMatrix:
    """The block matrix of relator derivatives. Rows come in blocks of
    block_dim per relator, columns in blocks of block_dim per generator.

    The matrix is held in one integer form: rows are zpoly values, scale
    times the Laurent entries, and scale is the least common denominator of
    all their coefficients. That form is unique, so equality and hashing
    read only these integer fields. The LaurentPoly entries wrap the rows
    over scale on first use; from_entries builds a matrix from them."""

    scale: int
    rows: tuple
    n_relators: int
    n_generators: int
    block_dim: int
    prime: int

    @staticmethod
    def from_entries(
        entries, n_relators: int, n_generators: int, block_dim: int, prime: int
    ) -> "AlexanderMatrix":
        L = lcm(1, *(f.den for row in entries for f in row))
        rows = tuple(tuple(zpoly.scale(f.form, L // f.den) for f in row) for row in entries)
        return AlexanderMatrix(L, rows, n_relators, n_generators, block_dim, prime)

    @cached_property
    def entries(self) -> tuple:
        """The LaurentPoly entries, rows[i][j] / scale."""
        return tuple(tuple(LaurentPoly.from_form(f, self.scale) for f in row) for row in self.rows)

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

    def _values_at(self, a: Rational) -> list[list[tuple[int, int]]]:
        """(u, v) per entry with rows[i][j](a) = u / v, by Horner's rule on
        the integer form."""
        a = Fraction(a)
        n, d = a.numerator, a.denominator
        if not n and any(f[0] < 0 for row in self.rows for f in row if f[1]):
            raise DivisionByZero("negative powers evaluated at 0")
        return [[value_at(f, n, d) for f in row] for row in self.rows]

    def specialize(self, a: Rational):
        """Evaluate every Laurent entry at the rational point a."""
        L = self.scale
        return tuple(tuple(Fraction(u, v * L) for u, v in row) for row in self._values_at(a))

    def rows_at(self, a: Rational) -> list[list[int]]:
        """The rows of specialize(a), each times the lcm of its nonzero
        entries' denominators: integer rows with the same rank, nullspace
        and reduced row echelon form, and no Fraction per entry."""
        out = []
        for row in self._values_at(a):
            m = lcm(*(v for u, v in row if u))
            out.append([u * (m // v) if u else 0 for u, v in row])
        return out


def alexander_matrix(pres: Presentation, rep: Representation | None = None) -> AlexanderMatrix:
    """Differentiate every relator (flattened to left * right^-1) by every
    generator under the weighted tensor representation. The hypotheses are
    checked on every call, against the report kept on the presentation; the
    matrix itself is built once per equal (presentation, representation)
    pair and shared by every later call."""
    report = validate_presentation(pres)
    if not report.ok:
        raise HypothesisViolated("; ".join(report.failures))
    if rep is None:
        rep = Representation.trivial(pres.n_generators)
    return _relation_matrix(pres, rep)


@lru_cache(maxsize=None)
def _relation_matrix(pres: Presentation, rep: Representation) -> AlexanderMatrix:
    """alexander_matrix without the hypothesis check. Like fitting_delta,
    the memo keeps every matrix it builds for the life of the process.

    Each relator's pass is reduced to its least denominator D_j; the least
    common denominator of the whole matrix is then L = lcm(D_j), and
    relator j's maps are scaled by L / D_j."""
    _check_shape(pres, rep)
    passes = []
    for rel in pres.relators:
        D, rows = _fox_pass(pres.alpha, rep, rel.flatten())
        passes.append((*_least_denominator(D, rows), rows))
    L = lcm(1, *(D for D, _, _ in passes))
    return AlexanderMatrix(
        scale=L,
        rows=tuple(
            tuple(_dense(cell, g, L // D) for cell in row) for D, g, rows in passes for row in rows
        ),
        n_relators=len(pres.relators),
        n_generators=pres.n_generators,
        block_dim=rep.dim,
        prime=pres.prime,
    )
