"""Small dense-matrix helpers over exact scalars.

Matrices are tuples of tuples (immutable, hashable when the scalars are).
The field routines (RREF, inverse, rank, nullspace, solve) work over
Fraction, and the inverse is the right half of the RREF of [A | I].
Products of many rational matrices run in scaled form, integer rows over
one common denominator, with one gcd per product in place of one per scalar
operation.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .errors import NotInvertible

Matrix = tuple  # tuple of row tuples


def freeze(rows) -> Matrix:
    return tuple(tuple(r) for r in rows)


def mat_mul(A: Matrix, B: Matrix) -> Matrix:
    n = len(B)
    Bt = tuple(zip(*B))
    out = []
    for ra in A:
        if len(ra) != n:
            raise ValueError("inner dimensions disagree")
        row = []
        for cb in Bt:
            acc = ra[0] * cb[0]
            for a, b in zip(ra[1:], cb[1:]):
                acc = acc + a * b
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def frac_identity(n: int) -> Matrix:
    return tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))


def to_scaled(A: Matrix) -> tuple[tuple[tuple[int, ...], ...], int]:
    """A rational matrix as (integer rows, one positive denominator): the
    least common denominator of the entries, so the entries and the
    denominator share no factor."""
    den = lcm(*(x.denominator for row in A for x in row))
    return tuple(tuple(x.numerator * (den // x.denominator) for x in row) for row in A), den


def scaled_mul(A, B):
    """Product of two scaled matrices, with the gcd of the entries and the
    denominator divided out, which keeps the integers from growing past the
    size of the exact value."""
    rows_a, den_a = A
    rows_b, den_b = B
    cols = tuple(zip(*rows_b))
    rows = [[sum(map(mul, ra, cb)) for cb in cols] for ra in rows_a]
    den = den_a * den_b
    g = gcd(den, *(x for row in rows for x in row))
    if g > 1:
        rows = [[x // g for x in row] for row in rows]
        den //= g
    return rows, den


def scaled_pow(A, n: int):
    """A^n for n >= 1 by repeated squaring, never multiplying by the
    identity."""
    if n < 1:
        raise ValueError(f"scaled matrix power needs n >= 1, got {n}")
    result = None
    while True:
        if n & 1:
            result = A if result is None else scaled_mul(result, A)
        n >>= 1
        if not n:
            return result
        A = scaled_mul(A, A)


def from_scaled(A) -> Matrix:
    """The Fraction matrix of a scaled matrix."""
    rows, den = A
    return tuple(tuple(Fraction(x, den) for x in row) for row in rows)


def frac_rref(A) -> tuple[tuple[tuple[Fraction, ...], ...], tuple[int, ...]]:
    """Reduced row echelon form and pivot column indices."""
    rows = [list(map(Fraction, r)) for r in A]
    if not rows:
        return (), ()
    ncols = len(rows[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = Fraction(1) / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return freeze(rows), tuple(pivots)


def frac_inverse(A: Matrix) -> Matrix:
    """The right half of the RREF of [A | I]; NotInvertible unless the
    first n pivots are the columns of A."""
    n = len(A)
    rref, pivots = frac_rref(tuple(row) + e for row, e in zip(A, frac_identity(n)))
    if pivots[:n] != tuple(range(n)):
        raise NotInvertible("matrix is singular")
    return freeze(row[n:] for row in rref)


def frac_rank_nullspace(A, ncols: int | None = None) -> tuple[int, tuple[tuple[Fraction, ...], ...]]:
    """Rank and a nullspace basis (free variable set to 1, others 0, pivot
    entries solved; the conventional RREF parametrization). A matrix with no
    rows does not show its column count, so pass ncols for one."""
    rows = [list(r) for r in A]
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    rref, pivots = frac_rref(rows)
    rank = len(pivots)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -rref[r][fc]
        basis.append(tuple(v))
    return rank, tuple(basis)


def frac_solve(A, b) -> tuple[Fraction, ...] | None:
    """One particular solution of A x = b (free variables set to 0), or None
    when the system is inconsistent."""
    rows = [list(map(Fraction, r)) + [Fraction(v)] for r, v in zip(A, b)]
    ncols = len(A[0])
    rref, pivots = frac_rref(rows)
    for row in rref:
        if all(x == 0 for x in row[:ncols]) and row[ncols] != 0:
            return None
    x = [Fraction(0)] * ncols
    for r, pc in enumerate(pivots):
        if pc < ncols:
            x[pc] = rref[r][ncols]
    return tuple(x)
