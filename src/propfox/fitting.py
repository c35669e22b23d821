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
r - 1 steps of fraction-free (Bareiss, Math. Comp. 22, 1968) elimination
that always pivot on an entry of least valuation leave a block of r-minors
whose least valuation is the least over all r-minors.

No step of either elimination depends on r: each one picks its pivot from
the whole block that is left. So the state after k steps is the same for
every r > k, and one elimination per matrix serves every d. Its states are
kept as immutable snapshots keyed by (matrix, steps done): step k runs on a
fresh copy of the snapshot after k - 1 steps and is stored only once it
returns, so an exception inside a step leaves nothing half built. The
snapshot after 0 steps is the matrix itself, so 1-minors cost no step.
Snapshots, like fitting_delta's results, are kept for the life of the
process.

minor_count keeps the meaning it had when the divisor was computed by
enumeration: the number of minors the lexicographic (row set, column set)
scan expands before its early exit. That exit can fire only when the
divisor is 1, the content minimum is 0 and every entry is p-integral;
otherwise the count is the number of all r-minors. When it can fire, the
count comes from row sets. Over the column sets of one row set, the gcd and
the least content of the minors are the Smith divisor and the Bareiss
least content of the r x n_cols submatrix on those rows, by the theorems
above applied to the submatrix. Folding the row sets in order therefore
gives the scan's state after each row set's last minor. Both outputs only
move one way, so the scan exits inside the first row set at which the fold
reaches divisor 1 and content 0. Only that row set's column sets are
expanded, starting from the state folded so far, and the count is the
minors of the row sets before it plus the position inside it. The fold is
checked against the whole-matrix eliminations.
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

_ZERO = LaurentPoly.zero()
_ONE = LaurentPoly.one()


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
    docstring). Results, like the elimination snapshots they are read off,
    are kept for the life of the process."""
    r = Q.n_cols - d
    if r <= 0:
        return FittingResult(d, LaurentPoly.one(), 0, 0)
    if r > Q.n_rows:
        return FittingResult(d, LaurentPoly.zero(), None, 0)
    p = Q.prime
    delta = _divisor(Q.entries, r, _SMITH_SNAPSHOTS)
    mu = _content_minimum(Q.entries, r, p, _BAREISS_SNAPSHOTS)
    exit_can_fire = (
        mu == 0
        and delta.is_one()
        and all(
            (v := content_valuation(f, p)) is None or v >= 0 for row in Q.entries for f in row
        )
    )
    if not exit_can_fire:
        return FittingResult(d, delta, mu, comb(Q.n_rows, r) * comb(Q.n_cols, r))
    fold = _scan_by_row_sets(Q, d, r)
    if (fold.delta, fold.mu_content) != (delta, mu):
        raise InternalInconsistency(
            f"row-set fold and elimination disagree for d={d}: "
            f"the fold gives ({fold.delta}, {fold.mu_content}), "
            f"elimination gives ({delta}, {mu})"
        )
    return fold


def _scan_by_row_sets(Q: AlexanderMatrix, d: int, r: int) -> FittingResult:
    """What the early-exit scan of every r-minor of p-integral entries
    returns, with whole row sets folded in by elimination up to the one in
    which the scan exits; only that row set's minors are expanded. When the
    exit never fires, the fold's divisor and content with the count of all
    r-minors."""
    p = Q.prime
    per_row_set = comb(Q.n_cols, r)
    g, mu = _ZERO, None
    for i, rs in enumerate(combinations(range(Q.n_rows), r)):
        rows = tuple(Q.entries[k] for k in rs)
        g_next = g if g.is_one() else gcd_many([g, _divisor(rows, r, {})])
        v = None if mu == 0 else _content_minimum(rows, r, p, {})
        mu_next = mu if v is None else v if mu is None else min(mu, v)
        if g_next.is_one() and mu_next == 0:
            dets = (_minor(Q, rs, cs) for cs in combinations(range(Q.n_cols), r))
            scan = _fold_minors(d, p, True, dets, g, mu)
            return FittingResult(
                d, scan.delta, scan.mu_content, i * per_row_set + scan.minor_count
            )
        g, mu = g_next, mu_next
    return FittingResult(d, g, mu, comb(Q.n_rows, r) * per_row_set)


def _fold_minors(
    d: int, p: int, integral: bool, dets, g: LaurentPoly = _ZERO, mu: int | None = None
) -> FittingResult:
    """Fold minors in the order given into (gcd, content minimum, count),
    starting from (g, mu), and stop once both outputs are forced: gcd 1,
    content minimum 0, and every entry p-integral so no later minor can push
    the content below 0."""
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


# Snapshots of the whole-matrix eliminations, keyed by (entries, steps done)
# and, for Bareiss, the prime. Like fitting_delta's cache they are kept for
# the life of the process.
_SMITH_SNAPSHOTS: dict = {}
_BAREISS_SNAPSHOTS: dict = {}


def _snapshot(advance, memo: dict, entries, steps: int, *args):
    """The state after `steps` steps of `advance` from (entries, 1), or None
    once a step finds its block zero. Each step's result is stored in memo
    when the step returns, and read back from it on later calls."""
    state = (entries, _ONE)
    for k in range(steps):
        key = (entries, k + 1, *args)
        if key not in memo:
            memo[key] = advance(state, k, *args)
        state = memo[key]
        if state is None:
            break
    return state


def _times(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """a * b, without the multiplication when a factor is one."""
    return b if a.is_one() else a if b.is_one() else a * b


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


def _divisor(entries, r: int, memo: dict) -> LaurentPoly:
    """Product of the first r Smith invariant factors, normalized; 0 when
    the rank is below r."""
    state = _snapshot(_smith_advance, memo, entries, r - 1)
    if state is None:
        return LaurentPoly.zero()
    M, product = state
    rest = gcd_many(f for row in M[r - 1 :] for f in row[r - 1 :])
    return normalize_associate(_times(product, rest))


def _smith_advance(state, k: int):
    """Smith step k on a fresh copy of the state's matrix: the new matrix
    and the product of the pivots so far, or None when the block from
    (k, k) on is zero."""
    entries, product = state
    M = [list(row) for row in entries]
    pivot = _smith_step(M, k)
    if pivot is None:
        return None
    return tuple(map(tuple, M)), _times(product, pivot)


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


def _content_minimum(entries, r: int, p: int, memo: dict) -> int | None:
    """Least content valuation over the nonzero r-minors; None when the
    rank is below r. The block left after r - 1 Bareiss steps holds
    r-minors."""
    state = _snapshot(_bareiss_advance, memo, entries, r - 1, p)
    if state is None:
        return None
    M = state[0]
    return min(
        (
            content_valuation(f, p)
            for row in M[r - 1 :]
            for f in row[r - 1 :]
            if not f.is_zero()
        ),
        default=None,
    )


def _bareiss_advance(state, k: int, p: int):
    """Fraction-free step k on a fresh copy of the state's matrix, pivoting
    on an entry of least content valuation: the new matrix and its pivot, or
    None when the block from (k, k) on is zero. After step k, entry (i, j) of
    the block is the minor on the k + 1 pivot rows and columns with row i
    and column j added (Sylvester's identity)."""
    entries, prev = state
    M = [list(row) for row in entries]
    if not _pivot_to(M, k, lambda f: content_valuation(f, p)):
        return None
    piv = M[k][k]
    for i in range(k + 1, len(M)):
        for j in range(k + 1, len(M[0])):
            f = piv * M[i][j] - M[i][k] * M[k][j]
            M[i][j] = f if prev.is_one() else div_exact(f, prev)
    return tuple(map(tuple, M)), piv


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
