"""Determinant divisors of the relation matrix.

For a matrix over the rational Laurent ring, the d-th divisor is the
normalized greatest common divisor of its r-minors, r = n_cols - d, together
with the minimum p-valuation of the rational contents of the nonzero
r-minors. The gcd normalization makes nonzero rationals and powers of the
variable into units, so the p-part of the content has to be tracked
separately.

Neither output expands minors. The Laurent ring is a principal ideal domain
with the span (max_exp - min_exp) as Euclidean function, so the divisor is
the product of the first r Smith invariant factors: r - 1 steps of Smith
elimination give s_1, ..., s_(r-1), and s_r is the gcd of the block that is
left. The content valuation of the Gauss lemma is a discrete valuation, so
r - 1 steps of fraction-free (Bareiss) elimination that always pivot on an
entry of least valuation leave a block of r-minors whose least valuation is
the least over all r-minors. Both stop at step r: running further would
build larger minors than the question needs.

minor_count keeps the meaning it had when the divisor was computed by
enumeration: the number of minors the lexicographic (row set, column set)
scan expands before its early exit. That exit can fire only when the
divisor is 1, the content minimum is 0 and every entry is p-integral; then
the scan itself runs, and its result is checked against the eliminations.
Otherwise the count is the number of all r-minors.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb

from .errors import DivisionByZero, InternalInconsistency
from .fox import AlexanderMatrix, alexander_matrix
from .laurent import (
    LaurentPoly,
    content_valuation,
    div_exact,
    gcd_many,
    laurent_divmod,
    normalize_associate,
)
from .matrices import frac_rank_nullspace
from .presentation import Presentation
from .scalars import Rational


def det_laurent(rows) -> LaurentPoly:
    """Exact determinant of a square Laurent matrix. Pulls the lowest
    variable power out of each row first, then runs fraction-free
    elimination, so intermediate entries never leave the polynomial ring."""
    k = len(rows)
    if k == 0:
        return LaurentPoly.one()
    shift = 0
    M: list[list[LaurentPoly]] = []
    for row in rows:
        nonzero = [f for f in row if not f.is_zero()]
        if not nonzero:
            return LaurentPoly.zero()
        low = min(f.min_exp() for f in nonzero)
        shift += low
        M.append([f.shift(-low) for f in row])
    sign = 1
    prev = LaurentPoly.one()
    for c in range(k - 1):
        piv = next((i for i in range(c, k) if not M[i][c].is_zero()), None)
        if piv is None:
            return LaurentPoly.zero()
        if piv != c:
            M[c], M[piv] = M[piv], M[c]
            sign = -sign
        for i in range(c + 1, k):
            for j in range(c + 1, k):
                M[i][j] = div_exact(M[c][c] * M[i][j] - M[i][c] * M[c][j], prev)
            M[i][c] = LaurentPoly.zero()
        prev = M[c][c]
    det = M[k - 1][k - 1]
    return det.shift(shift) if sign > 0 else (-det).shift(shift)


@dataclass(frozen=True)
class FittingResult:
    d: int
    delta: LaurentPoly
    mu_content: int | None
    minor_count: int


def _minor(Q: AlexanderMatrix, row_set, col_set) -> LaurentPoly:
    sub = tuple(tuple(Q.entries[r][c] for c in col_set) for r in row_set)
    return det_laurent(sub)


@lru_cache(maxsize=None)
def fitting_delta(Q: AlexanderMatrix, d: int) -> FittingResult:
    """Normalized gcd of the (n_cols - d)-minors of Q, the minimum content
    valuation over the nonzero ones, and how many minors the lexicographic
    enumeration would expand before its early exit (see the module
    docstring)."""
    r = Q.n_cols - d
    if r <= 0:
        return FittingResult(d, LaurentPoly.one(), 0, 0)
    if r > Q.n_rows:
        return FittingResult(d, LaurentPoly.zero(), None, 0)
    p = Q.prime
    delta = _smith_divisor(Q.entries, r)
    mu = _least_content(Q.entries, r, p)
    integral = all(
        (v := content_valuation(f, p)) is None or v >= 0
        for row in Q.entries
        for f in row
    )
    if not (integral and mu == 0 and delta.is_one()):
        return FittingResult(d, delta, mu, comb(Q.n_rows, r) * comb(Q.n_cols, r))
    dets = (
        _minor(Q, rs, cs)
        for rs in combinations(range(Q.n_rows), r)
        for cs in combinations(range(Q.n_cols), r)
    )
    scan = _fold_minors(d, p, integral, dets)
    if (scan.delta, scan.mu_content) != (delta, mu):
        raise InternalInconsistency(
            f"minor scan and elimination disagree for d={d}: "
            f"scan gives ({scan.delta}, {scan.mu_content}), "
            f"elimination gives ({delta}, {mu})"
        )
    return scan


def _fold_minors(d: int, p: int, integral: bool, dets) -> FittingResult:
    """Fold minors in the order given into (gcd, content minimum, count),
    stopping once both outputs are forced: gcd 1, content minimum 0, and
    every entry p-integral so no later minor can push the content below 0."""
    g = LaurentPoly.zero()
    mu: int | None = None
    count = 0
    for det in dets:
        count += 1
        if det.is_zero():
            continue
        g = gcd_many([g, det])
        v = content_valuation(det, p)
        mu = v if mu is None else min(mu, v)
        if integral and mu == 0 and g.is_one():
            break
    return FittingResult(d, g, mu, count)


def _span(f: LaurentPoly) -> int:
    return f.max_exp() - f.min_exp()


def _pivot_to(M: list[list[LaurentPoly]], k: int, key) -> bool:
    """Swap a nonzero entry of least key in the block from (k, k) on into
    position (k, k). False when that block is zero."""
    found = min(
        (
            (key(M[i][j]), i, j)
            for i in range(k, len(M))
            for j in range(k, len(M[0]))
            if not M[i][j].is_zero()
        ),
        default=None,
    )
    if found is None:
        return False
    _, i, j = found
    M[k], M[i] = M[i], M[k]
    for row in M:
        row[k], row[j] = row[j], row[k]
    return True


def _smith_divisor(entries, r: int) -> LaurentPoly:
    """Product of the first r Smith invariant factors, normalized; 0 when
    the rank is below r."""
    M = [list(row) for row in entries]
    product = LaurentPoly.one()
    for k in range(r - 1):
        pivot = _smith_step(M, k)
        if pivot is None:
            return LaurentPoly.zero()
        product = product * pivot
    rest = gcd_many(f for row in M[r - 1 :] for f in row[r - 1 :])
    return normalize_associate(product * rest)


def _smith_step(M: list[list[LaurentPoly]], k: int) -> LaurentPoly | None:
    """Bring M to diag(..., s, M') at position (k, k) by Euclidean row and
    column operations, with s dividing every entry of M'. Returns s, or None
    when the block from (k, k) on is zero."""
    n_rows, n_cols = len(M), len(M[0])
    while _pivot_to(M, k, _span):
        # Scale the pivot row by a unit so that the pivot is monic with
        # constant term: the quotients below then keep small coefficients.
        piv = M[k][k]
        unit = LaurentPoly.monomial(-piv.min_exp(), 1 / piv.coeff(piv.max_exp()))
        M[k] = [unit * f for f in M[k]]
        piv = M[k][k]
        reduced = True
        for i in range(k + 1, n_rows):
            if M[i][k].is_zero():
                continue
            q, rem = laurent_divmod(M[i][k], piv)
            M[i] = M[i][:k] + [a - q * b for a, b in zip(M[i][k:], M[k][k:])]
            reduced = reduced and rem.is_zero()
        if not reduced:
            continue
        # Column k is clear below the pivot, so a column operation changes
        # only row k.
        for j in range(k + 1, n_cols):
            if not M[k][j].is_zero():
                M[k][j] = laurent_divmod(M[k][j], piv)[1]
                reduced = reduced and M[k][j].is_zero()
        if not reduced:
            continue
        if piv.is_one():
            return piv
        bad = next(
            (
                i
                for i in range(k + 1, n_rows)
                for j in range(k + 1, n_cols)
                if not laurent_divmod(M[i][j], piv)[1].is_zero()
            ),
            None,
        )
        if bad is None:
            return piv
        # Adding the row puts an entry that the pivot does not divide into
        # row k; the next pass reduces it to a pivot of smaller span.
        M[k] = [a + b for a, b in zip(M[k], M[bad])]
    return None


def _least_content(entries, r: int, p: int) -> int | None:
    """Least content valuation over the nonzero r-minors; None when the
    rank is below r. After step k of the elimination, entry (i, j) of the
    block is the minor on the k + 1 pivot rows and columns with row i and
    column j added (Sylvester's identity), so the block left after r - 1
    steps holds r-minors."""
    M = [list(row) for row in entries]
    n_rows, n_cols = len(M), len(M[0])

    def valuation(f):
        return content_valuation(f, p)

    prev = LaurentPoly.one()
    for k in range(r - 1):
        if not _pivot_to(M, k, valuation):
            return None
        piv = M[k][k]
        for i in range(k + 1, n_rows):
            for j in range(k + 1, n_cols):
                M[i][j] = div_exact(piv * M[i][j] - M[i][k] * M[k][j], prev)
        prev = piv
    return min(
        (valuation(f) for row in M[r - 1 :] for f in row[r - 1 :] if not f.is_zero()),
        default=None,
    )


def rank_at(Q: AlexanderMatrix, a: Rational) -> int:
    rank, _ = frac_rank_nullspace(Q.specialize(a))
    return rank


def zero_by_both_routes(delta_value: Fraction, nullity: int, d: int, a: Fraction) -> bool:
    """Whether the d-th divisor vanishes at a, by two independent routes
    that must agree: its value at a, and the nullity of the relation matrix
    specialized at a, whose rank n_cols - nullity falls below n_cols - d
    exactly when nullity > d. Disagreement would mean a computation bug."""
    by_eval = delta_value == 0
    by_rank = nullity > d
    if by_eval != by_rank:
        raise InternalInconsistency(
            f"divisor evaluation and rank drop disagree at a={a} for d={d}: "
            f"eval says {by_eval}, rank says {by_rank}"
        )
    return by_eval


def is_zero_of_delta(Q: AlexanderMatrix, d: int, a: Rational) -> bool:
    """Whether a kills the d-th divisor, checked by evaluating the gcd and by
    the rank of the specialized matrix (see zero_by_both_routes)."""
    a = Fraction(a)
    if a == 0:
        raise DivisionByZero("the divisor zeros live in the nonzero rationals")
    value = fitting_delta(Q, d).delta.eval_at(a)
    return zero_by_both_routes(value, Q.n_cols - rank_at(Q, a), d, a)


def iwasawa_delta(pres: Presentation, d: int) -> LaurentPoly:
    """The d-th divisor in the classical indexing for the rank-one quotient
    module: drop one column's worth of rank before taking minors."""
    Q = alexander_matrix(pres, None)
    return fitting_delta(Q, d + 1).delta
