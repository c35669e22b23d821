"""Exact linear algebra over the rationals: the integer elimination, read
back as Fractions."""

from fractions import Fraction

import pytest

from propfox import NotInvertible
from propfox.matrices import (
    freeze,
    from_scaled,
    integral_row,
    rank_nullspace,
    rref,
    scaled_inverse,
    scaled_mul,
    scaled_pow,
    solve,
    to_scaled,
)

from laurent_fox import mat_pow
from matrices_oracle import mat_mul, oracle_identity


def F(rows):
    return freeze([[Fraction(x) for x in row] for row in rows])


def integer_rows(A):
    return [integral_row(row) for row in A]


def solve_system(A, b, ncols):
    return solve([integral_row([*row, v]) for row, v in zip(A, b)], ncols)


def test_inverse_round_trip():
    A = F([[4, 1], [0, 1]])
    Ainv = from_scaled(scaled_inverse(to_scaled(A)))
    assert mat_mul(A, Ainv) == oracle_identity(2)
    assert mat_mul(Ainv, A) == oracle_identity(2)
    assert Ainv == F([[Fraction(1, 4), Fraction(-1, 4)], [0, 1]])


def test_inverse_rejects_singular():
    with pytest.raises(NotInvertible):
        scaled_inverse(to_scaled(F([[1, 2], [2, 4]])))


def test_mat_pow():
    A = F([[4, 1], [0, 1]])
    assert mat_pow(A, 0, oracle_identity(2)) == oracle_identity(2)
    assert mat_pow(A, 3, oracle_identity(2)) == mat_mul(A, mat_mul(A, A))


def test_scaled_form():
    A = F([[Fraction(1, 2), Fraction(-2, 3)], [3, Fraction(5, 6)]])
    S = to_scaled(A)
    assert S == (((3, -4), (18, 5)), 6)
    assert from_scaled(S) == A
    for n in (1, 2, 5, 8):
        assert from_scaled(scaled_pow(S, n)) == mat_pow(A, n, oracle_identity(2))
    half = to_scaled(F([[Fraction(1, 2), Fraction(1, 2)], [Fraction(1, 2), Fraction(1, 2)]]))
    assert scaled_mul(half, half) == ([[1, 1], [1, 1]], 2)
    with pytest.raises(ValueError, match="n >= 1"):
        scaled_pow(S, 0)


def test_rref_and_pivots():
    pivots, R, D = rref(integer_rows(F([[0, 2, 4], [1, 1, 1]])), 3)
    assert pivots == (0, 1)
    assert F([[Fraction(x, D) for x in row] for row in R]) == F([[1, 0, -1], [0, 1, 2]])


def test_rank_nullspace_conventions():
    rank, basis = rank_nullspace(integer_rows(F([[1, 1, 0]])), 3)
    assert rank == 1
    assert basis == (
        (Fraction(-1), Fraction(1), Fraction(0)),
        (Fraction(0), Fraction(0), Fraction(1)),
    )
    rank, basis = rank_nullspace(integer_rows(F([[1, 0], [0, 1]])), 2)
    assert rank == 2
    assert basis == ()


def test_nullspace_vectors_annihilate():
    A = F([[2, -1, 3], [4, -2, 6]])
    rank, basis = rank_nullspace(integer_rows(A), 3)
    assert rank == 1
    assert len(basis) == 2
    for v in basis:
        for row in A:
            assert sum(r * x for r, x in zip(row, v)) == 0


def test_solve():
    A = F([[1, 1], [0, 1]])
    x = solve_system(A, (Fraction(3), Fraction(1)), 2)
    assert x == (Fraction(2), Fraction(1))
    assert solve_system(F([[1, 1], [1, 1]]), (Fraction(0), Fraction(1)), 2) is None
    underdetermined = solve_system(F([[1, 1]]), (Fraction(5),), 2)
    assert underdetermined == (Fraction(5), Fraction(0))


def test_solve_without_rows_is_the_zero_solution():
    assert solve_system((), (), 0) == ()
    assert solve_system((), (), 3) == (Fraction(0),) * 3
    assert solve_system(F([[0, 0]]), (Fraction(0),), 2) == (Fraction(0), Fraction(0))
    assert solve_system(F([[0, 0]]), (Fraction(1),), 2) is None


def test_mat_mul_rejects_mismatched_inner_dimensions():
    with pytest.raises(ValueError, match="inner dimensions"):
        mat_mul(F([[1, 2]]), F([[1, 2]]))


def test_mat_pow_rejects_negative_exponent():
    with pytest.raises(ValueError, match="n >= 0"):
        mat_pow(F([[2]]), -1, oracle_identity(1))
