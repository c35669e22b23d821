"""The fraction-free integer elimination of propfox.matrices against the
Fraction elimination of matrices_oracle: rank, pivots, the reduced form,
nullspace, solve and inverse, each suite on 500 derandomized examples.
The matrices have zero rows and columns, deficient rank, wide and tall
shapes, and entries of up to 30 digits over small and 31-digit
denominators."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from propfox import NotInvertible
from propfox.matrices import integral_row, rank_nullspace, rref, scaled_inverse, solve, to_scaled

from matrices_oracle import oracle_inverse, oracle_rank_nullspace, oracle_rref, oracle_solve

SUITE = settings(max_examples=500, derandomize=True, deadline=None)

entries = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
    st.builds(
        Fraction,
        st.integers(min_value=-(10**30), max_value=10**30),
        st.sampled_from([1, 7, 10**30 + 1]),
    ),
)


@st.composite
def matrices(draw, n_rows=None, n_cols=None):
    """(A, ncols): an n_rows x ncols rational matrix, random or a product
    B C through an inner dimension below both sides (so of deficient rank),
    with some rows and columns then set to zero."""
    m = draw(st.integers(min_value=0, max_value=6)) if n_rows is None else n_rows
    n = draw(st.integers(min_value=0, max_value=6)) if n_cols is None else n_cols
    if draw(st.booleans()):
        A = [[draw(entries) for _ in range(n)] for _ in range(m)]
    else:
        k = draw(st.integers(min_value=0, max_value=max(0, min(m, n) - 1)))
        B = [[draw(entries) for _ in range(k)] for _ in range(m)]
        C = [[draw(entries) for _ in range(n)] for _ in range(k)]
        A = [[sum((B[i][t] * C[t][j] for t in range(k)), Fraction(0)) for j in range(n)] for i in range(m)]
    for i in draw(st.sets(st.integers(min_value=0, max_value=max(0, m - 1)), max_size=2)) if m else ():
        A[i] = [0] * n
    for j in draw(st.sets(st.integers(min_value=0, max_value=max(0, n - 1)), max_size=2)) if n else ():
        for row in A:
            row[j] = 0
    return tuple(tuple(Fraction(x) for x in row) for row in A), n


@SUITE
@given(matrices(), st.lists(st.integers(min_value=-(10**6), max_value=10**6).filter(bool), min_size=6, max_size=6))
@example(((), 3), [1] * 6)
@example(((), 0), [1] * 6)
@example((((Fraction(0), Fraction(0)),), 2), [1] * 6)
@example((((Fraction(2), Fraction(4)), (Fraction(3), Fraction(6))), 2), [1] * 6)
def test_elimination_matches_the_fraction_oracle(case, scales):
    """Pivots, D times the reduced rows, the rank and the nullspace basis,
    also with every row scaled by a nonzero integer."""
    A, ncols = case
    rows = [integral_row(row) for row in A]
    pivots, R, D = rref(rows, ncols)
    expected, expected_pivots = oracle_rref(A)
    assert pivots == expected_pivots
    assert D != 0 and len(R) == len(pivots)
    assert [[Fraction(x, D) for x in row] for row in R] == [list(row) for row in expected[: len(pivots)]]
    assert all(x == 0 for row in expected[len(pivots) :] for x in row)
    nullspace = oracle_rank_nullspace(A, ncols)
    assert rank_nullspace(rows, ncols) == nullspace
    scaled = [[s * x for x in row] for s, row in zip(scales, rows)]
    assert rank_nullspace(scaled, ncols) == nullspace


@st.composite
def systems(draw):
    """(A, b, ncols): b is A x for a random x in some draws, so the system
    is consistent, and arbitrary in others."""
    A, n = draw(matrices())
    if draw(st.booleans()):
        x = [draw(entries) for _ in range(n)]
        b = [sum((a * y for a, y in zip(row, x)), Fraction(0)) for row in A]
    else:
        b = [draw(entries) for _ in A]
    return A, tuple(Fraction(v) for v in b), n


@SUITE
@given(systems())
@example(((), (), 0))
@example(((), (), 2))
@example((((Fraction(1), Fraction(1)), (Fraction(1), Fraction(1))), (Fraction(0), Fraction(1)), 2))
def test_solve_matches_the_fraction_oracle(case):
    A, b, ncols = case
    expected = oracle_solve(A, b, ncols)
    rows = [integral_row([*row, v]) for row, v in zip(A, b)]
    assert solve(rows, ncols) == expected
    if expected is not None:
        for row, v in zip(A, b):
            assert sum(a * y for a, y in zip(row, expected)) == v


@SUITE
@given(st.integers(min_value=0, max_value=5).flatmap(lambda n: matrices(n, n)))
@example(((), 0))
@example((((Fraction(1), Fraction(2)), (Fraction(2), Fraction(4))), 2))
def test_inverse_matches_the_fraction_oracle(case):
    """scaled_inverse in lowest terms, with a positive denominator, is the
    scaled form of the Fraction inverse."""
    A, _ = case
    try:
        expected = oracle_inverse(A)
    except NotInvertible:
        with pytest.raises(NotInvertible):
            scaled_inverse(to_scaled(A))
    else:
        assert scaled_inverse(to_scaled(A)) == to_scaled(expected)
