"""Small dense-matrix helpers over exact scalars.

Matrices are tuples of tuples (immutable, hashable when the scalars are).
Nothing here knows about Laurent polynomials specifically; the generic
routines only use +, -, *. The field-specific routines (inverse, RREF,
rank, nullspace) work over Fraction. Products of many rational matrices run
in scaled form, integer rows over one common denominator, with one gcd per
product in place of one per scalar operation.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .errors import NotInvertible

Matrix = tuple  # tuple of row tuples


def freeze(rows) -> Matrix:
    return tuple(tuple(r) for r in rows)


def mat_add(A: Matrix, B: Matrix) -> Matrix:
    return tuple(tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(A, B))


def mat_neg(A: Matrix) -> Matrix:
    return tuple(tuple(-a for a in r) for r in A)


def mat_scale(c, A: Matrix) -> Matrix:
    return tuple(tuple(c * a for a in r) for r in A)


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


def identity(n: int, one, zero) -> Matrix:
    return tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))


def frac_identity(n: int) -> Matrix:
    return identity(n, Fraction(1), Fraction(0))


def mat_pow(A: Matrix, n: int, ident: Matrix) -> Matrix:
    """A^n for n >= 0 by repeated squaring."""
    if n < 0:
        raise ValueError(f"matrix power needs n >= 0, got {n}")
    result = ident
    base = A
    while n:
        if n & 1:
            result = mat_mul(result, base)
        base = mat_mul(base, base) if n > 1 else base
        n >>= 1
    return result


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


def frac_inverse(A: Matrix) -> Matrix:
    """Gauss-Jordan inverse over Fraction; NotInvertible on rank defect."""
    n = len(A)
    aug = [list(map(Fraction, row)) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(A)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            raise NotInvertible("matrix is singular")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = Fraction(1) / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return freeze(row[n:] for row in aug)


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
