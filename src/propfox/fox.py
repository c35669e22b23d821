"""Free differential calculus and the twisted relation matrix.

The derivative of a word with respect to a generator is taken through a
representation. Coefficients lie in a one-variable Laurent-polynomial ring
whose variable g records the exponent weighting of the presentation, tensored
with a finite-dimensional rational representation of the generators. Every
generator image is g^alpha_i (x) phi(g_i), so the image of any prefix is one
graded pair g^k (x) P with P rational: one walk over a word's letters gives
its derivatives by every generator, with one matrix product per letter and
no Laurent multiplication. Only the relation matrix runs that walk:
fox_derivative_matrix is one block of a one-relator presentation's.

The walk and every word image read the word's runs (Word.runs): blocks of
at most 8 syllables, each repeated count times. A word image raises each
block's product to its count by squaring. The walk has one replication
rule. It reads a run of one syllable g^e as |e| copies of the one-letter
block g^(+-1), and reads any run's block once when the block's image is
exactly the identity, since P then comes back to itself after every copy;
each contribution is added at every copy's offset (the block's degree
apart, or times count when that degree is 0). Any other run is walked
copy by copy. So a^n costs the walk one letter whenever phi(a) = I, and a
power (x1*x0^-1)^n one block, not n, whenever phi(x1) = phi(x0).

The walk runs on integers throughout. P is a scaled-integer matrix (integer
rows over one denominator), and each entry gathers in a list of integers
over one running denominator per relator, indexed by exponent from the
word's least prefix degree to its greatest. The relation matrix keeps that
integer form: L, the least common denominator of all its coefficients, and
L times each entry as a zpoly value. The divisor layer reads the form as it
is held, specialization evaluates it on the integers (zpoly.value_at), and
each LaurentPoly entry, when read, wraps its row's zpoly value over L with
no Fraction per coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, lcm

from . import zpoly
from .errors import (
    DivisionByZero,
    HypothesisViolated,
    InputTooLarge,
    ParseError,
    UnknownGenerator,
)
from .laurent import LaurentPoly
from .matrices import (
    freeze,
    from_scaled,
    is_scaled_identity,
    scaled_identity,
    scaled_inverse,
    scaled_mul,
    scaled_pow,
    to_scaled,
)
from .presentation import Presentation, Relator, Word, validate_presentation
from .scalars import MAX_MATRIX_SPAN, Rational, format_rational, parse_int, parse_rational
from .zpoly import trim, value_at


@dataclass(frozen=True)
class Representation:
    """A map from the generators to invertible square rational matrices."""

    dim: int
    images: tuple

    def __post_init__(self):
        for M in self.images:
            if len(M) != self.dim or any(len(row) != self.dim for row in M):
                raise ValueError("representation matrix has the wrong shape")

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        # hashing reads every Fraction image; the relation-matrix memo
        # hashes the representation on every call
        return hash((self.dim, self.images))

    @staticmethod
    def trivial(n_generators: int) -> "Representation":
        one = ((Fraction(1),),)
        return Representation(1, tuple(one for _ in range(n_generators)))

    @cached_property
    def scaled(self) -> tuple:
        """The images as scaled matrices, converted once: what the Fox
        walk, word images and specialization read, as on SpecializedRep."""
        return tuple(map(to_scaled, self.images))

    @cached_property
    def scaled_invs(self) -> tuple:
        """The inverses of the images as scaled matrices, by the integer
        elimination; NotInvertible when an image is singular."""
        return tuple(map(scaled_inverse, self.scaled))


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
    rep.scaled_invs  # noqa: B018 - force the invertibility check at parse time
    return rep


def format_representation(rep: Representation, pres: Presentation) -> str:
    lines = [f"dim {rep.dim}"]
    for name, M in zip(pres.generators, rep.images):
        lines.append(f"matrix {name}")
        for row in M:
            lines.append(" ".join(map(format_rational, row)))
    return "\n".join(lines) + "\n"


def _product(mats, invs, sylls):
    """The scaled product of the syllable images mats[g]^e, with invs[g]^-e
    for e < 0; None for no syllables."""
    acc = None
    for g, e in sylls:
        power = scaled_pow(mats[g] if e > 0 else invs[g], abs(e))
        acc = power if acc is None else scaled_mul(acc, power)
    return acc


def scaled_image(rep, word: Word):
    """Image of a word under a SpecializedRep, as a scaled matrix in lowest
    terms, read off the word's runs (Word.runs): the product of each
    block's syllable images rep.scaled[g]^e (rep.scaled_invs[g] for e < 0)
    is raised to the run's count by squaring, and the runs' images are
    multiplied in order. Every product is in lowest terms, so this is the
    one scaled matrix of the syllable-by-syllable product, at a cost of
    O(blocks * log count) products."""
    acc = None
    for block, count in word.runs:
        image = _product(rep.scaled, rep.scaled_invs, block)
        if count > 1:
            image = scaled_pow(image, count)
        acc = image if acc is None else scaled_mul(acc, image)
    return scaled_identity(rep.dim) if acc is None else acc


def evaluate_word(rep, word: Word):
    """Image of a word under a SpecializedRep, as exact Fractions: the
    scaled_image product, converted once."""
    return from_scaled(scaled_image(rep, word))


def _fox_pass(exps, rep: Representation, word: Word, lo: int, n: int) -> tuple[int, list]:
    """The derivatives of the word by every generator, in one walk over its
    letters, as (D, rows): dim rows of n_generators * dim lists of n int
    coefficients, all over the one denominator D, column block i holding
    the derivative by g_i, and index t holding exponent lo + t, for the
    word's (lo, hi) from _check_span and n = hi - lo + 1. Generator g_i
    maps to g^exps[i] (x) rep.images[i]; the walk reads the images and
    their inverses from rep.scaled and rep.scaled_invs, converted once per
    representation.

    The image of the prefix read so far is one graded pair g^k (x) P, with
    P a scaled-integer matrix (integer rows over one denominator). A letter
    g_j contributes +P at g^k to block j and then steps the pair to
    g^(k + exps[j]) (x) P images[j]; a letter g_j^-1 first steps the pair
    by the inverse image and then contributes -P. When the denominator of P
    does not divide D, every list is first brought to their lcm.

    The walk reads the word's runs (Word.runs): blocks of at most
    presentation._RUN_BLOCK syllables, each repeated count times, where a
    run of the one syllable g_j^e is read as |e| copies of the one-letter
    block g_j^(+-1). When the image of a run's block is exactly the
    identity (the flag fixed[j] for one letter, the block's product for a
    longer block), P returns to itself after every copy, so the walk reads
    the block once and adds each contribution at every copy's offset: s
    apart for the block's degree s, or once with its coefficient times
    count when s = 0. Any other run is walked copy by copy."""
    ell = rep.dim
    mats, invs = rep.scaled, rep.scaled_invs
    rows = [[[0] * n for _ in range(len(exps) * ell)] for _ in range(ell)]
    cols = [[row[j * ell:(j + 1) * ell] for row in rows] for j in range(len(exps))]
    one = scaled_identity(ell)
    fixed = [M == one for M in mats]
    P, D, k = one, 1, -lo  # k indexes the prefix degree: the degree minus lo
    for block, count in word.runs:
        if len(block) == 1:
            [(j, e)] = block
            block, count = ((j, 1 if e > 0 else -1),), abs(e)
        walks, times, offs, rest = count, 1, None, 0
        if count > 1 and (
            fixed[block[0][0]] if len(block) == 1 else is_scaled_identity(_product(mats, invs, block))
        ):
            s = sum(exps[j] * e for j, e in block)
            walks, rest = 1, s * (count - 1)
            if s:
                # the offsets 0, s, ..., rest, lowest first
                offs = range(min(0, rest), max(0, rest) + 1, abs(s))
            else:
                times = count
        for _ in range(walks):
            for j, e in block:
                step, shift, sign = (mats[j], exps[j], 1) if e > 0 else (invs[j], -exps[j], -1)
                for _ in range(abs(e)):
                    if e < 0:
                        P = P if fixed[j] else scaled_mul(P, step)
                        k += shift
                    D = _rescale(rows, D, P[1])
                    _add_image(P, cols[j], sign * times * D // P[1], k, offs)
                    if e > 0:
                        P = P if fixed[j] else scaled_mul(P, step)
                        k += shift
        k += rest
    return D, rows


def _rescale(rows, D: int, den: int) -> int:
    """lcm(D, den), with every list of rows brought from D to it."""
    if not D % den:
        return D
    m = den // gcd(D, den)
    for row in rows:
        for cell in row:
            cell[:] = [x * m for x in cell]
    return D * m


def _add_image(P, block, f: int, k: int, offs: range | None) -> None:
    """Add f times each entry of the scaled matrix P to the matching list
    of block, at index k or, through one slice, at k + o for each o in offs
    (a positive step: a negative one whose stop is -1 would wrap round)."""
    ts = None if offs is None else slice(k + offs.start, k + offs.stop, offs.step)
    for Pr, cells in zip(P[0], block):
        for x, cell in zip(Pr, cells):
            if x:
                v = x * f
                if ts is None:
                    cell[k] += v
                else:
                    cell[ts] = [y + v for y in cell[ts]]


def _least_denominator(D: int, rows) -> int:
    """The least common denominator D / g of the lists over D, for g the
    gcd of D and every coefficient, with every list divided by g."""
    g = gcd(D, *(gcd(*cell) for row in rows for cell in row))
    if g > 1:
        for row in rows:
            for cell in row:
                cell[:] = [x // g for x in cell]
    return D // g


def _check_shape(pres: Presentation, phi: Representation) -> None:
    if len(phi.images) != pres.n_generators:
        raise ValueError("representation does not match the generator count")


def _degree_range(alpha, word: Word) -> tuple[int, int]:
    """The least and greatest prefix degree of the word (0 for the empty
    prefix), read off its runs: a run's copies repeat one block's prefix
    degrees, each copy shifted by the block's degree."""
    lo = hi = k = 0
    for block, count in word.runs:
        b_lo = b_hi = t = 0
        for g, e in block:
            t += alpha[g] * e
            b_lo, b_hi = min(b_lo, t), max(b_hi, t)
        rest = t * (count - 1)
        lo, hi = min(lo, k + b_lo + min(0, rest)), max(hi, k + b_hi + max(0, rest))
        k += t * count
    return lo, hi


def _check_span(alpha, words, n_generators: int, dim: int) -> list[tuple[int, int]]:
    """Each word's (lo, hi), its least and greatest prefix degree: its
    derivatives are n_generators * dim^2 lists of hi - lo + 1 coefficients.
    Refuse the pass when all of them would hold more than MAX_MATRIX_SPAN."""
    ranges = [_degree_range(alpha, w) for w in words]
    span = n_generators * dim * dim * sum(hi - lo + 1 for lo, hi in ranges)
    if span > MAX_MATRIX_SPAN:
        raise InputTooLarge(
            f"the relation matrix spans {span} coefficients: "
            f"the limit is {MAX_MATRIX_SPAN} (scalars.MAX_MATRIX_SPAN)"
        )
    return ranges


def fox_derivative_matrix(pres: Presentation, phi: Representation, word: Word, gen: int):
    """Derivative of the word with respect to generator `gen`, pushed through
    g^alpha (x) phi: a dim x dim matrix over the Laurent ring, block
    (0, gen) of the unmemoized relation matrix of the word as one relator."""
    _check_shape(pres, phi)
    if not 0 <= gen < pres.n_generators:
        raise ValueError(f"no generator {gen}: the presentation has {pres.n_generators}")
    one = Presentation(pres.prime, pres.generators, (Relator(word),), pres.alpha)
    return _relation_matrix.__wrapped__(one, phi).block(0, gen)


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

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        # the fitting_delta memo hashes its matrix on every call
        return hash(
            (self.scale, self.rows, self.n_relators, self.n_generators, self.block_dim, self.prime)
        )

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
        """(u, v) per entry with rows[i][j](a) = u / v, by zpoly.value_at
        on the integer form."""
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


# How many entries each memo keeps, the least recently used dropped first:
# relation matrices here, divisor results and elimination states in fitting.
MEMO_SIZE = 64


@lru_cache(maxsize=MEMO_SIZE)
def _relation_matrix(pres: Presentation, rep: Representation) -> AlexanderMatrix:
    """alexander_matrix without the hypothesis check. The memo keeps the
    MEMO_SIZE matrices used last; an equal pair asked again shares one.

    Each relator's pass is reduced to its least denominator D_j; the least
    common denominator of the whole matrix is then L = lcm(D_j), and
    relator j's lists are scaled by L / D_j. Nothing is built when the
    matrix would span more than MAX_MATRIX_SPAN coefficients."""
    _check_shape(pres, rep)
    words = tuple(rel.flatten() for rel in pres.relators)
    passes = []
    for word, (lo, hi) in zip(words, _check_span(pres.alpha, words, pres.n_generators, rep.dim)):
        D, rows = _fox_pass(pres.alpha, rep, word, lo, hi - lo + 1)
        passes.append((lo, _least_denominator(D, rows), rows))
    L = lcm(1, *(D for _, D, _ in passes))
    return AlexanderMatrix(
        scale=L,
        rows=tuple(
            tuple(zpoly.scale(trim(lo, cell), L // D) for cell in row) for lo, D, rows in passes for row in rows
        ),
        n_relators=len(pres.relators),
        n_generators=pres.n_generators,
        block_dim=rep.dim,
        prime=pres.prime,
    )
