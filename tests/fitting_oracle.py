"""The reference routes that fitting_delta is checked against.

_smith_divisor and _least_content are the one-shot eliminations: each call
starts again from the original entries and runs exactly r - 1 steps, with no
snapshot kept between calls. They share the single Smith step and the pivot
choice with propfox.fitting, so they check the sharing of states across
minor sizes and ask orders, not the step itself; _fitting_by_enumeration
checks everything, minor_count included, by folding every minor in
lexicographic (row set, column set) order.
"""

from itertools import combinations

from propfox import FittingResult, LaurentPoly, content_valuation, gcd_many, normalize_associate
from propfox.fitting import _fold_minors, _minor, _pivot_to, _smith_step
from propfox.laurent import div_exact


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


def oneshot_divisor_and_content(Q, d):
    """(delta_d, content minimum) by the one-shot eliminations."""
    r = Q.n_cols - d
    if r <= 0:
        return LaurentPoly.one(), 0
    if r > Q.n_rows:
        return LaurentPoly.zero(), None
    return _smith_divisor(Q.entries, r), _least_content(Q.entries, r, Q.prime)


def _fitting_by_enumeration(Q, d):
    """The reference route: fold every (n_cols - d)-minor in lexicographic
    (row set, column set) order, with the early exit of the scan."""
    r = Q.n_cols - d
    if r <= 0:
        return FittingResult(d, LaurentPoly.one(), 0, 0)
    if r > Q.n_rows:
        return FittingResult(d, LaurentPoly.zero(), None, 0)
    integral = all(
        f.is_zero() or content_valuation(f, Q.prime) >= 0
        for row in Q.entries
        for f in row
    )
    dets = (
        _minor(Q, rs, cs)
        for rs in combinations(range(Q.n_rows), r)
        for cs in combinations(range(Q.n_cols), r)
    )
    return _fold_minors(d, Q.prime, integral, dets)
