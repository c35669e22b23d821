"""Small dense-matrix helpers over exact scalars.

Matrices are tuples of tuples (immutable, hashable when the scalars are).
Products of many rational matrices run in scaled form, integer rows over
one common denominator, with one gcd per product in place of one per scalar
operation.

Rank, nullspace, solve and inverse run on integer rows, by one
fraction-free Gauss-Jordan elimination (Bareiss, Math. Comp. 22 (1968);
Nakos, Turner and Williams, SIGSAM Bull. 31 (1997)). Scaling a row changes
neither the rank, nor the nullspace, nor the reduced row echelon form, so
the point layer hands over its rows with their denominators cleared, one
lcm per row, and never builds a Fraction matrix to eliminate. That
elimination is the only one here: scaled_inverse inverts a scaled matrix
through it, and Fraction matrices are built only as views of results
(from_scaled).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import mul

from .errors import NotInvertible

Matrix = tuple  # tuple of row tuples

_ZERO = Fraction(0)
_ONE = Fraction(1)


def freeze(rows) -> Matrix:
    return tuple(tuple(r) for r in rows)


def to_scaled(A: Matrix) -> tuple[tuple[tuple[int, ...], ...], int]:
    """A rational matrix as (integer rows, one positive denominator): the
    least common denominator of the entries, so the entries and the
    denominator share no factor."""
    den = lcm(*(x.denominator for row in A for x in row))
    return tuple(tuple(x.numerator * (den // x.denominator) for x in row) for row in A), den


def lowest_terms(rows, den: int):
    """The scaled matrix rows / den, for den > 0, with the gcd of the
    entries and the denominator divided out."""
    g = gcd(den, *(x for row in rows for x in row))
    if g > 1:
        rows = [[x // g for x in row] for row in rows]
        den //= g
    return rows, den


def scaled_mul(A, B):
    """Product of two scaled matrices, in lowest terms (as lowest_terms, in
    line: this is the inner loop of every word product), which keeps the
    integers from growing past the size of the exact value. A product of
    two integer matrices is in lowest terms already."""
    rows_a, den_a = A
    rows_b, den_b = B
    cols = tuple(zip(*rows_b))
    rows = [[sum(map(mul, ra, cb)) for cb in cols] for ra in rows_a]
    den = den_a * den_b
    if den == 1:
        return rows, 1
    g = gcd(den, *chain.from_iterable(rows))
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


def scaled_identity(n: int):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n)), 1


def is_scaled_identity(A) -> bool:
    """Whether a scaled matrix in lowest terms is the identity: its
    denominator is 1 and its rows are those of I."""
    rows, den = A
    return den == 1 and all(x == (i == j) for i, row in enumerate(rows) for j, x in enumerate(row))


def from_scaled(A) -> Matrix:
    """The Fraction matrix of a scaled matrix."""
    rows, den = A
    return tuple(tuple(Fraction(x, den) for x in row) for row in rows)


def integral_row(row) -> list[int]:
    """A row of ints and Fractions times the lcm of their denominators."""
    den = lcm(*(x.denominator for x in row))
    return [x.numerator * (den // x.denominator) for x in row]


def rref(rows, ncols: int) -> tuple[tuple[int, ...], list[list[int]], int]:
    """(pivots, R, D) for integer rows of length ncols: the pivot columns of
    the reduced row echelon form, its nonzero rows times D, and D (1 when
    there is no pivot).

    Fraction-free Gauss-Jordan elimination: step k takes the first row at or
    below k with a nonzero entry p in the next column, and replaces every
    other row by (p * row - row[c] * pivot row) / prev, prev the previous
    pivot. The division is exact (each entry is a minor of the input), and
    after the step every earlier pivot entry is p as well, so at the end the
    pivot rows are D, the last pivot, times the reduced form."""
    M = [list(r) for r in rows]
    pivots: list[int] = []
    prev = 1
    for c in range(ncols):
        k = len(pivots)
        if k == len(M):
            break
        piv = next((i for i in range(k, len(M)) if M[i][c]), None)
        if piv is None:
            continue
        M[k], M[piv] = M[piv], M[k]
        top = M[k]
        p = top[c]
        for i, row in enumerate(M):
            f = row[c]
            if i == k:
                continue
            if f:
                M[i] = [(p * x - f * y) // prev for x, y in zip(row, top)]
            elif p != prev:
                M[i] = [p * x // prev for x in row]
        pivots.append(c)
        prev = p
    return tuple(pivots), M[: len(pivots)], prev


def scaled_inverse(S):
    """The inverse of a scaled square matrix (rows, den), in lowest terms
    with a positive denominator, or NotInvertible when it is singular.

    rref of [rows | I] gives D [I | rows^-1] when the first n pivots are
    the columns of rows, so (rows / den)^-1 = den R[:, n:] / D. D, the
    last pivot, may be negative, and the signs are turned so that the
    denominator is positive."""
    rows, den = S
    n = len(rows)
    pivots, R, D = rref([[*row, *(int(i == j) for j in range(n))] for i, row in enumerate(rows)], 2 * n)
    if pivots[:n] != tuple(range(n)):
        raise NotInvertible("matrix is singular")
    if D < 0:
        den = -den
        D = -D
    inv, inv_den = lowest_terms([[den * x for x in row[n:]] for row in R], D)
    return freeze(inv), inv_den


def rank_nullspace(rows, ncols: int) -> tuple[int, tuple[tuple[Fraction, ...], ...]]:
    """Rank and a nullspace basis of integer rows of length ncols: for each
    free column, the vector with 1 there, 0 at the other free columns, and
    the pivot entries solved, -R[i][free] / D at pivot column i (see rref)."""
    pivots, R, D = rref(rows, ncols)
    taken = set(pivots)
    basis = []
    for fc in range(ncols):
        if fc in taken:
            continue
        v = [_ZERO] * ncols
        v[fc] = _ONE
        for row, pc in zip(R, pivots):
            if row[fc]:
                v[pc] = Fraction(-row[fc], D)
        basis.append(tuple(v))
    return len(pivots), tuple(basis)


def solve(rows, ncols: int) -> tuple[Fraction, ...] | None:
    """One particular solution of A x = b (free variables set to 0) from the
    integer rows of [A | b], A with ncols columns, or None when the system
    is inconsistent: when the last column holds a pivot."""
    pivots, R, D = rref(rows, ncols + 1)
    if pivots and pivots[-1] == ncols:
        return None
    x = [_ZERO] * ncols
    for row, pc in zip(R, pivots):
        if row[ncols]:
            x[pc] = Fraction(row[ncols], D)
    return tuple(x)
