"""The reference routes that fitting_delta and the integer divisor layer
are checked against, all on the dict-of-Fraction ring of laurent_oracle,
with its gcd by Euclid's algorithm over the rationals, the gcd route the
integer heuristic gcd replaced. _smith_step, _pivot_to and
fraction_det_laurent are the rational Smith step, its pivot choice and the
fraction-free determinant that propfox.fitting ran before it moved to
integer forms. The routes that take a relation matrix read its entries
through laurent_oracle.oracle and return their divisors as LaurentPoly
values.

_smith_divisor and _least_content are the one-shot eliminations: each call
starts again from the original entries and runs exactly r - 1 steps, with no
snapshot kept between calls. _fitting_by_enumeration checks everything,
minor_count included, by folding every minor in lexicographic (row set,
column set) order. _scan_by_row_sets is the row-set fold that
propfox.fitting ran before its search over row-set prefixes: one Smith and
one Bareiss elimination of every row set before the one the scan exits in.

det_laurent and div_exact work on LaurentPoly values, for the tests that
take a determinant or divide one divisor by another: det_laurent is
propfox.fitting._det, the fraction-free elimination of the divisor layer,
on the integer forms, and div_exact is exact division in the Laurent ring
by propfox.zpoly.pseudo_divmod.
"""

from itertools import combinations
from math import comb, lcm, prod

from propfox import FittingResult, LaurentPoly
from propfox.fitting import _content_minimum, _det, _divisor, _fold_minors
from propfox.laurent import normalize_associate
from propfox.zpoly import ONE, ZERO, gcd_all, pseudo_divmod, scale
from laurent_oracle import (
    FractionLaurent,
    content_valuation,
    div_exact as fraction_div_exact,
    gcd_many,
    laurent_divmod,
    normalize_associate as fraction_normalize_associate,
    oracle,
    to_laurent,
)


def div_exact(f: LaurentPoly, d: LaurentPoly) -> LaurentPoly:
    """f / d when d divides f in the Laurent ring; raises ValueError if not.
    The LaurentPoly counterpart of laurent_oracle.div_exact: with f = F / a
    and d = D / b, the pseudo-division c*F = Q*D + R gives f / d = Q*b / (c*a)
    when R = 0."""
    c, q, r = pseudo_divmod(f.form, d.form)
    if r[1]:
        raise ValueError("does not divide exactly")
    return LaurentPoly.from_form(scale(q, d.den), c * f.den)


def det_laurent(rows) -> LaurentPoly:
    """Exact determinant of a square Laurent matrix, by fraction-free
    elimination on the integer forms with each row brought to the common
    denominator of its entries, divided by their product at the end."""
    if not rows:
        return LaurentPoly.one()
    dens = [lcm(*(f.den for f in row)) for row in rows]
    M = [[scale(f.form, L // f.den) for f in row] for row, L in zip(rows, dens)]
    return LaurentPoly.from_form(_det(M), prod(dens))


def fraction_det_laurent(rows) -> FractionLaurent:
    """Exact determinant of a square Laurent matrix. Pulls the lowest
    variable power out of each row first, then runs fraction-free
    elimination, so intermediate entries never leave the polynomial ring."""
    k = len(rows)
    if k == 0:
        return FractionLaurent.one()
    shift = 0
    M: list[list[FractionLaurent]] = []
    for row in rows:
        nonzero = [f for f in row if not f.is_zero()]
        if not nonzero:
            return FractionLaurent.zero()
        low = min(f.min_exp() for f in nonzero)
        shift += low
        M.append([f.shift(-low) for f in row])
    sign = 1
    prev = FractionLaurent.one()
    for c in range(k - 1):
        piv = next((i for i in range(c, k) if not M[i][c].is_zero()), None)
        if piv is None:
            return FractionLaurent.zero()
        if piv != c:
            M[c], M[piv] = M[piv], M[c]
            sign = -sign
        for i in range(c + 1, k):
            for j in range(c + 1, k):
                M[i][j] = fraction_div_exact(M[c][c] * M[i][j] - M[i][c] * M[c][j], prev)
            M[i][c] = FractionLaurent.zero()
        prev = M[c][c]
    det = M[k - 1][k - 1]
    return det.shift(shift) if sign > 0 else (-det).shift(shift)


def _span(f: FractionLaurent) -> int:
    return f.max_exp() - f.min_exp()


def _pivot_to(M: list[list[FractionLaurent]], k: int, key) -> bool:
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


def _smith_step(M: list[list[FractionLaurent]], k: int) -> FractionLaurent | None:
    """Bring M to diag(..., s, M') at position (k, k) by Euclidean row and
    column operations, with s dividing every entry of M'. Returns s, or None
    when the block from (k, k) on is zero."""
    n_rows, n_cols = len(M), len(M[0])
    while _pivot_to(M, k, _span):
        # Scale the pivot row by a unit so that the pivot is monic with
        # constant term: the quotients below then keep small coefficients.
        piv = M[k][k]
        unit = FractionLaurent.monomial(-piv.min_exp(), 1 / piv.coeff(piv.max_exp()))
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


def _smith_divisor(entries, r: int) -> FractionLaurent:
    """Product of the first r Smith invariant factors, normalized; 0 when
    the rank is below r."""
    M = [list(row) for row in entries]
    product = FractionLaurent.one()
    for k in range(r - 1):
        pivot = _smith_step(M, k)
        if pivot is None:
            return FractionLaurent.zero()
        product = product * pivot
    rest = gcd_many(f for row in M[r - 1 :] for f in row[r - 1 :])
    return fraction_normalize_associate(product * rest)


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

    prev = FractionLaurent.one()
    for k in range(r - 1):
        if not _pivot_to(M, k, valuation):
            return None
        piv = M[k][k]
        for i in range(k + 1, n_rows):
            for j in range(k + 1, n_cols):
                M[i][j] = fraction_div_exact(piv * M[i][j] - M[i][k] * M[k][j], prev)
        prev = piv
    return min(
        (valuation(f) for row in M[r - 1 :] for f in row[r - 1 :] if not f.is_zero()),
        default=None,
    )


def oneshot_divisor_and_content(Q, d):
    """(delta_d, content minimum) by the one-shot eliminations."""
    r = Q.n_cols - d
    if r <= 0:
        return LaurentPoly.one(), 0
    if r > Q.n_rows:
        return LaurentPoly.zero(), None
    entries = _entries(Q)
    return to_laurent(_smith_divisor(entries, r)), _least_content(entries, r, Q.prime)


def _entries(Q):
    return tuple(tuple(oracle(f) for f in row) for row in Q.entries)


def _fitting_by_enumeration(Q, d):
    """The reference route: fold every (n_cols - d)-minor in lexicographic
    (row set, column set) order into (gcd, content minimum, count), and stop
    once both outputs are forced: gcd 1, content minimum 0, and every entry
    p-integral so no later minor can push the content below 0."""
    r = Q.n_cols - d
    if r <= 0:
        return FittingResult(d, LaurentPoly.one(), 0, 0)
    if r > Q.n_rows:
        return FittingResult(d, LaurentPoly.zero(), None, 0)
    p = Q.prime
    entries = _entries(Q)
    integral = all(
        f.is_zero() or content_valuation(f, p) >= 0 for row in entries for f in row
    )
    g, mu, count = FractionLaurent.zero(), None, 0
    for rs in combinations(range(Q.n_rows), r):
        for cs in combinations(range(Q.n_cols), r):
            count += 1
            det = fraction_det_laurent(tuple(tuple(entries[i][j] for j in cs) for i in rs))
            if det.is_zero():
                continue
            g = gcd_many([g, det])
            v = content_valuation(det, p)
            mu = v if mu is None else min(mu, v)
            if integral and mu == 0 and g.is_one():
                return FittingResult(d, to_laurent(g), mu, count)
    return FittingResult(d, to_laurent(g), mu, count)


def _scan_by_row_sets(M, d: int, r: int, p: int) -> FittingResult:
    """What the early-exit scan of every r-minor of the p-integral matrix M
    returns, with whole row sets folded in by elimination up to the one in
    which the scan exits; only that row set's minors are expanded. When the
    exit never fires, the fold's divisor and content with the count of all
    r-minors."""
    n_cols = len(M[0])
    per_row_set = comb(n_cols, r)
    g, mu, count = ZERO, None, comb(len(M), r) * per_row_set
    for i, rs in enumerate(combinations(range(len(M)), r)):
        rows = tuple(M[k] for k in rs)
        g_next = g if g == ONE else gcd_all([g, _divisor([(rows, ONE)], r)])
        v = None if mu == 0 else _content_minimum([(rows, ONE)], r, p)
        mu_next = mu if v is None else v if mu is None else min(mu, v)
        if g_next == ONE and mu_next == 0:
            dets = (
                _det([[row[c] for c in cs] for row in rows])
                for cs in combinations(range(n_cols), r)
            )
            g, mu, count = _fold_minors(p, dets, g, mu)
            count += i * per_row_set
            break
        g, mu = g_next, mu_next
    return FittingResult(d, normalize_associate(LaurentPoly.from_form(g)), mu, count)
