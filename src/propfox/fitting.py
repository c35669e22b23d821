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
left. The content minimum is settled by the first of three routes that
applies:
- the divisor is 0: the rank is below r, so there is no nonzero r-minor
  and the minimum is None;
- r >= 2 and the matrix, evaluated at one of the first _POINTS points t of
  F_p^* and reduced mod p, has rank at least r: an r-minor's value at t is
  then nonzero mod p, so its content is prime to p and the minimum is 0
  (g -> t is a ring map from Z[g^(+-1)] to F_p, so the minor's value is
  the value of its reduction);
- otherwise the content valuation of the Gauss lemma, a discrete
  valuation, answers: r - 1 steps of fraction-free (Bareiss, Math. Comp.
  22, 1968) elimination that always pivot on an entry of least valuation
  leave a block of r-minors whose least valuation is the least over all
  r-minors. At r = 1 that block is the matrix, and no step runs.

Both eliminations, and every minor and gcd below, run on integer forms
(zpoly): the relation matrix holds L times its entries, L the least common
denominator of all its coefficients (AlexanderMatrix.scale and .rows), and
fitting_delta reads that form as it is, in Z[g^(+-1)]. One L for the whole
matrix multiplies every r-minor by L^r. Nonzero rationals are units, so
delta is unchanged, and the least content shifts by exactly r * v_p(L),
which is subtracted at the end; a scale per row would shift each minor by
an amount that depends on its row set. Smith divides by pseudo-division,
c * f = q * s + r with c a power of the leading coefficient of s, and keeps
each row primitive. Every row it builds is then a rational multiple of the
row that the same operation gives over the rationals, so spans, zero tests
and pivot choices match that elimination up to its first row addition. That
adds whichever rational multiple of a row the integer matrix holds, a step
just as valid that the two routes may continue from differently; the
normalized divisor, an invariant of the matrix, is the same. Bareiss
divides exactly in Z[g^(+-1)]; its pivots compare contents that all carry
the same power of L, so it picks the same pivots as over the rationals.
The divisor is returned as a LaurentPoly that holds its normal zpoly value
over the leading coefficient, with no Fraction built per coefficient.

No step of either elimination depends on r: each one picks its pivot from
the whole block that is left. So the state after k steps is the same for
every r > k, and one elimination per matrix serves every d. Each matrix
keeps one list of immutable states per elimination, entry k the state after
k steps: step k runs on a copy of entry k - 1 and is appended only once it
returns, so an exception inside a step leaves nothing half built. Entry 0
is the integer form of the matrix itself, so 1-minors cost no step, and the
states hold integer forms only. Beside them each matrix keeps the rank mod
p of its integer form at every point tried so far, so each point is
evaluated once per matrix, and only until one reaches the r asked for. Like fitting_delta's results,
the lists sit in a memo of fox.MEMO_SIZE entries that drops the least
recently used.
At a point a, rank_at and extensions.cocycle_space read one elimination of
the specialized matrix per (matrix, point), _nullspace_at, kept in a memo
of the same size; its rank and nullspace basis are immutable tuples.

minor_count keeps the meaning it had when the divisor was computed by
enumeration: the number of minors the lexicographic (row set, column set)
scan expands before its early exit. That exit can fire only when the
divisor is 1, the content minimum is 0 and every entry is p-integral;
otherwise the count is the number of all r-minors. When it can fire, the
count comes from row sets, found with no elimination per row set. The row
sets in lexicographic order are the leaves, in depth-first order, of the
tree of their prefixes; the subtree of a prefix that ends at row x and
needs s more rows holds C(n_rows - 1 - x, s) row sets. Both outputs only
move one way, so a search that folds each earlier sibling's subtree whole
and descends into the first subtree at which the fold reaches divisor 1
and content 0 ends at the row set in which the scan exits. Column
operations change neither side of one row set: the gcd and the least
content of its r-minors over all column sets (Cauchy-Binet). So one
elimination on the rows below a node folds a whole subtree:
- gcd side: column Euclid (Kannan and Bachem, SIAM J. Comput. 8, 1979)
  brings the prefix to [H | 0] with H lower triangular, and the subtree's
  gcd is det H * h * delta of the rows below, h the last row's entry
  (_gcd_subtree);
- content side: before the exit only whether the content minimum is 0
  decides anything. One fraction-free column step pivots on the row's
  entry of least valuation, and Sylvester's identity leaves the question
  to the minors of the rows below (_content_subtree).
A zero row passes its subtree with no work, a side that has reached 1 or 0
is not computed again, and the last sibling, whose subtree is one row set,
is entered without a fold. So the search runs at most n_rows * r
eliminations, not C(n_rows, r), and a matrix of exactly r rows runs none.
Only the exit row set's column sets are expanded, starting from the state
folded so far, and the count is the minors of the row sets before it plus
the position inside it. The fold is checked against the divisor and the
content minimum settled above; its content side stays on Bareiss, so a
minimum of 0 that a point settled is checked by an independent route
whenever the fold runs. Since L is the least common denominator, every entry is
p-integral exactly when p does not divide L; a larger multiple of it could
carry a factor p that no denominator has.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb, gcd as igcd

from . import modp
from .errors import DivisionByZero, InternalInconsistency
from .fox import MEMO_SIZE, AlexanderMatrix, alexander_matrix
from .laurent import LaurentPoly, normalize_associate
from .matrices import rank_nullspace
from .presentation import Presentation
from .scalars import Rational, valuation
from .zpoly import (
    ONE,
    ZERO,
    add,
    content_valuation,
    divexact,
    gcd_all,
    mul,
    neg,
    normal,
    pseudo_divmod,
    scale,
    sub,
)


def _det(M) -> tuple:
    """Determinant of a square matrix of zpoly values: after k - 1
    fraction-free steps the last entry is the determinant of the matrix
    with the pivots' rows and columns moved into place."""
    M = [list(row) for row in M]
    sign, prev = 1, ONE
    for k in range(len(M) - 1):
        step_sign = _bareiss_step(M, k, prev, _span)
        if not step_sign:
            return ZERO
        sign, prev = sign * step_sign, M[k][k]
    last = M[-1][-1]
    return last if sign > 0 else neg(last)


@dataclass(frozen=True)
class FittingResult:
    d: int
    delta: LaurentPoly
    mu_content: int | None
    minor_count: int


@lru_cache(maxsize=MEMO_SIZE)
def fitting_delta(Q: AlexanderMatrix, d: int) -> FittingResult:
    """Normalized gcd of the (n_cols - d)-minors of Q, the minimum content
    valuation over the nonzero ones, and how many minors the lexicographic
    enumeration would expand before its early exit (see the module
    docstring). The MEMO_SIZE results used last are kept, and every d of one
    matrix reads the same elimination states (_eliminations)."""
    r = Q.n_cols - d
    if r <= 0:
        return FittingResult(d, LaurentPoly.one(), 0, 0)
    if r > Q.n_rows:
        return FittingResult(d, LaurentPoly.zero(), None, 0)
    p, L = Q.prime, Q.scale
    smith, bareiss, ranks = _eliminations(Q)
    delta = normalize_associate(LaurentPoly.from_form(_divisor(smith, r)))
    if delta.is_zero():
        mu = None
    elif r > 1 and _rank_at_points(ranks, Q.rows, r, p) >= r:
        mu = -r * valuation(L, p)
    else:
        mu = _content_minimum(bareiss, r, p) - r * valuation(L, p)
    # Every entry is p-integral exactly when p does not divide L.
    if not (mu == 0 and delta.is_one() and L % p):
        return FittingResult(d, delta, mu, comb(Q.n_rows, r) * comb(Q.n_cols, r))
    fold = _scan_by_row_sets(Q.rows, d, r, p)
    if (fold.delta, fold.mu_content) != (delta, mu):
        raise InternalInconsistency(
            f"row-set fold and elimination disagree for d={d}: "
            f"the fold gives ({fold.delta}, {fold.mu_content}), "
            f"elimination gives ({delta}, {mu})"
        )
    return fold


def _scan_by_row_sets(M, d: int, r: int, p: int) -> FittingResult:
    """What the early-exit scan of every r-minor of the p-integral matrix M
    returns, for an M whose r-minors have divisor 1 and content minimum 0,
    so that the scan exits. A depth-first search over the lexicographic
    prefixes of the row sets folds each earlier sibling's subtree whole
    (_gcd_subtree, _content_subtree) and descends into the first one at
    which the fold reaches divisor 1 and content 0. Only the row set it
    ends at has its minors expanded. A side that is already forced is
    neither folded nor carried down."""
    n, n_cols = len(M), len(M[0])
    # unit: a minor of content 0 has been folded.
    g, unit, before = ZERO, False, 0
    smith = bareiss = M
    prefix, lo, s = [], 0, r
    # A node's prefix takes s more rows from rows lo, ..., n - 1. The last
    # child's subtree is one row set, the exit's when no earlier sibling's
    # subtree holds it.
    while 0 < s < n - lo:
        for x in range(lo, n - s):
            # Every minor of the subtree is zero when row x is.
            if any(f[1] for f in (smith if g != ONE else bareiss)[x - lo]):
                g_next, smith_next = g, None
                if g != ONE:
                    g_sub, smith_next = _gcd_subtree(smith, x - lo, s)
                    g_next = gcd_all([g, g_sub])
                unit_next, bareiss_next = unit, None
                if not unit:
                    unit_next, bareiss_next = _content_subtree(bareiss, x - lo, s, p)
                if g_next == ONE and unit_next:
                    smith, bareiss = smith_next, bareiss_next
                    break
                g, unit = g_next, unit_next
            before += comb(n - 1 - x, s - 1)
        else:
            x = n - s
        prefix.append(x)
        lo, s = x + 1, s - 1
    rows = [M[i] for i in prefix + list(range(n - s, n))]
    dets = (_det([[row[c] for c in cs] for row in rows]) for cs in combinations(range(n_cols), r))
    g, mu, count = _fold_minors(p, dets, g, 0 if unit else None)
    count += before * comb(n_cols, r)
    return FittingResult(d, normalize_associate(LaurentPoly.from_form(g)), mu, count)


def _gcd_subtree(A, i: int, s: int) -> tuple[tuple, tuple | None]:
    """The gcd of the r-minors of the subtree under row i of a node that
    takes s more rows, up to a factor prime to the gcd folded before the
    node, and the node below row i. A node is A, the rows after the prefix
    P without P's pivot columns, once column operations invertible over the
    rational Laurent ring have brought P to [H | 0], H lower triangular.
    Column Euclid by pseudo-division brings row i to one entry h. A minor
    on P, row i and later rows is then zero unless it holds the pivot
    columns, and otherwise det H * h times a minor of Y, the later rows
    without h's column: the subtree's gcd is det H * h * delta_(s-1)(Y).
    The search descends only into a subtree whose gcd folds the gcd so far,
    g, to 1, so below it g is prime to det H, or is 0 with det H a unit,
    and gcd(g, det H * x) = gcd(g, x). The node therefore keeps no det H,
    and h * delta_(s-1)(Y) is returned."""
    a = list(A[i])
    if s == 1:
        return gcd_all(a), None
    below = [list(row) for row in A[i + 1 :]]
    live = [j for j, f in enumerate(a) if f[1]]
    while len(live) > 1:
        k = min(live, key=lambda j: _span(a[j]))
        for j in live:
            if j != k:
                c, q, a[j] = pseudo_divmod(a[j], a[k])
                for row in below:
                    row[j] = sub(scale(row[j], c), mul(q, row[k]))
        live = [j for j in live if a[j][1]]
    k = live[0]
    Y = tuple(tuple(_primitive_row(row[:k] + row[k + 1 :])) for row in below)
    return mul(a[k], _divisor([(Y, ONE)], s - 1)), Y


def _content_subtree(A, i: int, s: int, p: int) -> tuple[bool, tuple | None]:
    """Whether an r-minor of the subtree under row i of a node that takes s
    more rows has content 0, and the node below row i. A node is A, the rows
    after the prefix: an r-minor on the prefix and a set T of s of its rows
    has content 0 exactly when an s-minor of A on T has. An s-minor that
    takes row i has at least the least valuation of row i's entries, so
    there is none unless that entry, piv = a_k, has valuation 0. One
    fraction-free column step, col_j <- piv * col_j - a_j * col_k, then
    multiplies each s-minor that holds column k by piv^(s - 1) and makes it
    piv times an (s - 1)-minor of Y, the later rows without column k.
    Expanding a minor with row i repeated gives piv * m_C = sum +-a_j *
    m_(C - j + k), so a minor without column k has content 0 only if one
    with it has. So the subtree has a minor of content 0 exactly when Y has
    an (s - 1)-minor of content 0, and Y is the node below."""
    a = A[i]
    k = min(
        (j for j, f in enumerate(a) if f[1]),
        key=lambda j: (content_valuation(a[j], p), _span(a[j])),
    )
    if content_valuation(a[k], p):
        return False, None
    if s == 1:
        return True, None
    piv = a[k]
    Y = tuple(
        tuple(sub(mul(piv, y[j]), mul(a[j], y[k])) for j in range(len(a)) if j != k)
        for y in A[i + 1 :]
    )
    return _content_minimum([(Y, ONE)], s - 1, p) == 0, Y


def _fold_minors(p: int, dets, g: tuple, mu: int | None):
    """Fold minors of a p-integral matrix in the order given into (gcd,
    content minimum, count), starting from (g, mu), and stop once both
    outputs are forced: gcd 1 and content minimum 0, which no later minor
    can push below 0."""
    count = 0
    for det in dets:
        count += 1
        if not det[1]:
            continue
        g = gcd_all([g, det])
        v = content_valuation(det, p)
        mu = v if mu is None else min(mu, v)
        if mu == 0 and g == ONE:
            break
    return g, mu, count


@lru_cache(maxsize=MEMO_SIZE)
def _eliminations(Q: AlexanderMatrix) -> tuple[list, list, list]:
    """The Smith and the Bareiss states of Q's integer form that every d
    shares, entry k of each list the state after k steps (see _state), and
    the ranks mod p of that form at the points tried so far
    (_rank_at_points)."""
    return [(Q.rows, ONE)], [(Q.rows, ONE)], []


# The most points t = 1, 2, ... of F_p^* at which a matrix is evaluated to
# settle a content minimum of 0. On the benchmark's synthetic matrices
# (seeds 11-14) every minimum that a point settles is settled by t <= 3.
_POINTS = 8


def _rank_at_points(ranks: list, M, r: int, p: int) -> int:
    """The largest rank mod p of the integer-form matrix M evaluated at the
    points t = 1, 2, ... of F_p^*. ranks holds the rank at each point tried
    so far; points are tried, and their ranks appended, until one reaches
    r or min(_POINTS, p - 1) have been tried."""
    while max(ranks, default=0) < r and len(ranks) < min(_POINTS, p - 1):
        t = len(ranks) + 1
        values = [[pow(t, f[0], p) * modp.poly_mod(f[1], t, p) % p for f in row] for row in M]
        ranks.append(modp.rank(values, p))
    return max(ranks, default=0)


def _state(states: list, advance, steps: int, *args):
    """The state after `steps` steps of `advance`, or None once a step
    finds its block zero. states[k] is the (matrix, extra) state after k
    steps; each missing step runs advance(M, k, extra, *args) in place on a
    copy of the last kept matrix, and its state is appended only once the
    step returns."""
    while len(states) <= steps:
        if states[-1] is None:
            return None
        entries, extra = states[-1]
        M = [list(row) for row in entries]
        extra = advance(M, len(states) - 1, extra, *args)
        states.append(None if extra is None else (tuple(map(tuple, M)), extra))
    return states[steps]


def _span(f: tuple) -> int:
    return len(f[1]) - 1


def _pivot_to(M: list[list[tuple]], k: int, key) -> int:
    """Swap a nonzero entry of least key in the block from (k, k) on into
    position (k, k), the first in row-major order among equals. Returns the
    sign of the row and column swaps, or 0 when that block is zero."""
    found = min(
        (
            (key(M[i][j]), i, j)
            for i in range(k, len(M))
            for j in range(k, len(M[0]))
            if M[i][j][1]
        ),
        default=None,
    )
    if found is None:
        return 0
    _, i, j = found
    M[k], M[i] = M[i], M[k]
    for row in M:
        row[k], row[j] = row[j], row[k]
    return -1 if (i == k) != (j == k) else 1


def _primitive_row(row: list[tuple]) -> list[tuple]:
    """The row divided by the gcd of all its coefficients, a rational unit."""
    c = igcd(*(x for f in row for x in f[1]))
    return row if c <= 1 else [(s, tuple(x // c for x in a)) for s, a in row]


def _divisor(states: list, r: int) -> tuple:
    """Product of the first r Smith invariant factors of the matrix of the
    Smith states, as a normal zpoly value; ZERO when the rank is below r."""
    state = _state(states, _smith_advance, r - 1)
    if state is None:
        return ZERO
    M, product = state
    rest = gcd_all(f for row in M[r - 1 :] for f in row[r - 1 :])
    return rest if product == ONE or not rest[1] else mul(product, rest)


def _smith_advance(M: list[list[tuple]], k: int, product: tuple) -> tuple | None:
    """Smith step k in place: the product of the normal pivots so far, or
    None when the block from (k, k) on is zero."""
    pivot = _smith_step(M, k)
    if pivot is None:
        return None
    return mul(product, normal(pivot)) if _span(pivot) else product


def _smith_step(M: list[list[tuple]], k: int) -> tuple | None:
    """Bring M to diag(..., s, M') at position (k, k) by row and column
    operations that are invertible over the rational Laurent ring, with s
    dividing every entry of M'. Returns s, or None when the block from
    (k, k) on is zero. Each division is a pseudo-division: c * f = q * s + r
    with c a power of the leading coefficient of s, so a reduced row is c
    times the row that Euclidean division over the rationals gives, and is
    then divided by its integer content."""
    n_rows, n_cols = len(M), len(M[0])
    while _pivot_to(M, k, _span):
        piv = M[k][k]
        reduced = True
        for i in range(k + 1, n_rows):
            if not M[i][k][1]:
                continue
            c, q, rem = pseudo_divmod(M[i][k], piv)
            M[i][k:] = _primitive_row(
                [sub(scale(a, c), mul(q, b)) for a, b in zip(M[i][k:], M[k][k:])]
            )
            reduced = reduced and not rem[1]
        if not reduced:
            continue
        # Column k is clear below the pivot, so a column operation changes
        # only row k. Row k is scaled by the largest power c of the pivot's
        # leading coefficient that a remainder needed, so that every
        # remainder r / c_j of the rational division becomes integral.
        divisions = [pseudo_divmod(f, piv) for f in M[k][k + 1 :]]
        if any(rem[1] for _, _, rem in divisions):
            c = max((c_j for c_j, _, _ in divisions), key=abs)
            M[k][k:] = _primitive_row(
                [scale(piv, c)] + [scale(rem, c // c_j) for c_j, _, rem in divisions]
            )
            continue
        M[k][k + 1 :] = [ZERO] * (n_cols - k - 1)
        if not _span(piv):
            return piv
        bad = next(
            (
                i
                for i in range(k + 1, n_rows)
                for j in range(k + 1, n_cols)
                if pseudo_divmod(M[i][j], piv)[2][1]
            ),
            None,
        )
        if bad is None:
            return piv
        # Adding the row puts an entry that the pivot does not divide into
        # row k; the next pass reduces it to a pivot of smaller span.
        M[k] = [add(a, b) for a, b in zip(M[k], M[bad])]
    return None


def _content_minimum(states: list, r: int, p: int) -> int | None:
    """Least content valuation over the nonzero r-minors of the matrix of
    the Bareiss states; None when the rank is below r. The block left after
    r - 1 Bareiss steps holds r-minors."""
    state = _state(states, _bareiss_advance, r - 1, p)
    if state is None:
        return None
    M = state[0]
    return min(
        (content_valuation(f, p) for row in M[r - 1 :] for f in row[r - 1 :] if f[1]),
        default=None,
    )


def _bareiss_advance(M: list[list[tuple]], k: int, prev: tuple, p: int) -> tuple | None:
    """Fraction-free step k in place after the pivot prev, pivoting on an
    entry of least content valuation: its pivot, or None when the block
    from (k, k) on is zero."""
    if not _bareiss_step(M, k, prev, lambda f: content_valuation(f, p)):
        return None
    return M[k][k]


def _bareiss_step(M: list[list[tuple]], k: int, prev: tuple, key) -> int:
    """Fraction-free step k in place, pivoting on an entry of least key
    after the previous step's pivot prev: the sign of the pivot's swaps, or
    0 when the block from (k, k) on is zero. After step k, entry (i, j) of
    the block is the minor on the k + 1 pivot rows and columns with row i
    and column j added (Sylvester's identity), so the division by prev is
    exact in Z[g^(+-1)]."""
    sign = _pivot_to(M, k, key)
    if sign:
        piv = M[k][k]
        for i in range(k + 1, len(M)):
            for j in range(k + 1, len(M[0])):
                f = sub(mul(piv, M[i][j]), mul(M[i][k], M[k][j]))
                M[i][j] = f if prev == ONE else divexact(f, prev)
    return sign


@lru_cache(maxsize=MEMO_SIZE)
def _nullspace_at(Q: AlexanderMatrix, a: Fraction) -> tuple[int, tuple]:
    """Rank and nullspace basis of Q specialized at a, from one elimination
    of Q.rows_at(a) per (matrix, point) that rank_at and cocycle_space
    share; the MEMO_SIZE points used last are kept."""
    return rank_nullspace(Q.rows_at(a), Q.n_cols)


def rank_at(Q: AlexanderMatrix, a: Rational) -> int:
    rank, _ = _nullspace_at(Q, Fraction(a))
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
