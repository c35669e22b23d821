"""The Fraction elimination: the reference route that the fraction-free
integer elimination of propfox.matrices is checked against.

Plain Gauss-Jordan over Fraction: each pivot row is divided by its pivot
and the pivot column cleared from every other row, with one Fraction per
scalar operation. It shares no code with propfox.matrices. The plain
matrix product and identity the other oracles need live here too, so no
oracle takes a product or an inverse from the library.
"""

from fractions import Fraction

from propfox.errors import NotInvertible


def mat_mul(A, B):
    """The product of two matrices over any ring."""
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


def oracle_identity(n: int):
    """The n x n identity over Fraction."""
    return tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))


def oracle_rref(A):
    """Reduced row echelon form (every row, zero rows last) and pivot
    column indices."""
    rows = [list(map(Fraction, r)) for r in A]
    if not rows:
        return (), ()
    ncols = len(rows[0])
    pivots = []
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
    return tuple(tuple(row) for row in rows), tuple(pivots)


def oracle_inverse(A):
    """The right half of the RREF of [A | I]."""
    n = len(A)
    rref, pivots = oracle_rref(
        tuple(row) + tuple(Fraction(int(i == j)) for j in range(n)) for i, row in enumerate(A)
    )
    if pivots[:n] != tuple(range(n)):
        raise NotInvertible("matrix is singular")
    return tuple(tuple(row[n:]) for row in rref)


def oracle_rank_nullspace(A, ncols):
    """Rank and the RREF nullspace basis: free variable 1, other free
    variables 0, pivot entries solved."""
    rref, pivots = oracle_rref(A)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -rref[r][fc]
        basis.append(tuple(v))
    return len(pivots), tuple(basis)


def oracle_solve(A, b, ncols):
    """One particular solution of A x = b with the free variables 0, or
    None when a row reduces to 0 = nonzero."""
    rref, pivots = oracle_rref([list(r) + [v] for r, v in zip(A, b)])
    for row in rref:
        if all(x == 0 for x in row[:ncols]) and row[ncols] != 0:
            return None
    x = [Fraction(0)] * ncols
    for r, pc in enumerate(pivots):
        if pc < ncols:
            x[pc] = rref[r][ncols]
    return tuple(x)
