"""Determinant divisors of the relation matrix and ranks at points."""

import time
from fractions import Fraction
from math import comb, prod
from pathlib import Path

import pytest

from propfox import (
    DivisionByZero,
    Representation,
    alexander_matrix,
    fitting_delta,
    is_zero_of_delta,
    iwasawa_delta,
    parse_laurent,
    parse_presentation,
    parse_representation,
    rank_at,
    specialize,
)
from propfox import extensions, fitting, fox
from propfox.fox import AlexanderMatrix
from propfox.laurent import LaurentPoly
from propfox.zpoly import ONE

from fitting_oracle import (
    _fitting_by_enumeration,
    det_laurent,
    div_exact,
    oneshot_divisor_and_content,
)


def L(text):
    return parse_laurent(text)


def test_det_laurent_small():
    rows = ((L("g"), L("1")), (L("1"), L("g^-1")))
    assert det_laurent(rows).is_zero()
    rows = ((L("g - 1"), L("2")), (L("0"), L("g + 1")))
    assert det_laurent(rows) == L("g^2 - 1")
    rows = ((L("0"), L("1")), (L("1"), L("0")))
    assert det_laurent(rows) == L("-1")
    assert det_laurent(((L("0"), L("0")), (L("1"), L("g")))).is_zero()
    assert det_laurent(()) == L("1")


def test_det_laurent_negative_exponents():
    rows = ((L("g^-2"), L("0")), (L("5"), L("g^-3")))
    assert det_laurent(rows) == L("g^-5")


def test_fitting_bounds(eg41, eg43):
    Q41 = alexander_matrix(eg41)
    assert fitting_delta(Q41, 3).delta == LaurentPoly.one()
    assert fitting_delta(Q41, 5).delta == LaurentPoly.one()
    Q43 = alexander_matrix(eg43)
    res = fitting_delta(Q43, 0)
    assert res.delta.is_zero()
    assert res.mu_content is None
    assert res.minor_count == 0


def test_fitting_eg41_values(eg41):
    Q = alexander_matrix(eg41)
    d1 = fitting_delta(Q, 1)
    assert d1.delta == L("g - 4")
    assert d1.mu_content == 0
    assert d1.minor_count == 18
    assert fitting_delta(Q, 0).delta.is_zero()
    assert fitting_delta(Q, 2).delta == LaurentPoly.one()


def test_rank_at(eg41):
    Q = alexander_matrix(eg41)
    assert rank_at(Q, Fraction(4)) == 1
    assert rank_at(Q, Fraction(2)) == 2
    assert rank_at(Q, Fraction(7)) == 2


def test_is_zero_of_delta(eg41):
    Q = alexander_matrix(eg41)
    assert is_zero_of_delta(Q, 1, Fraction(4)) is True
    assert is_zero_of_delta(Q, 1, Fraction(2)) is False
    assert is_zero_of_delta(Q, 0, Fraction(2)) is True
    with pytest.raises(DivisionByZero):
        is_zero_of_delta(Q, 1, Fraction(0))


def test_iwasawa_indexing(eg41):
    assert iwasawa_delta(eg41, 0) == L("g - 4")
    assert iwasawa_delta(eg41, 1) == LaurentPoly.one()


def test_fitting_on_hand_built_matrix():
    # 2x3 with an obvious gcd in the 2-minors
    rows = (
        (L("g - 1"), L("0"), L("g - 1")),
        (L("0"), L("g - 4"), L("g - 4")),
    )
    Q = AlexanderMatrix.from_entries(entries=rows, n_relators=2, n_generators=3, block_dim=1, prime=3)
    res = fitting_delta(Q, 1)
    assert res.delta == L("g^2 - 5*g + 4")
    assert res.minor_count == 3
    res0 = fitting_delta(Q, 2)
    assert res0.delta == LaurentPoly.one()


# Roots of the planted triangular relators: 2 and 3 three times each, -2
# twice, 4, 5 and -3 once; six distinct values among eleven.
PLANTED_ROOTS = (2, 3, 2, -2, 4, 3, 2, 5, -2, 3, -3)


def _planted_presentation():
    """12 generators; with y_i = x_i*x0^-1, relator i reads
    x0*y_i*x0^-1 = y_i^(r_i) times later y_j, so the relation matrix is
    triangular with diagonal g - r_i. A root planted more than once is
    coupled to nothing, which keeps each of its copies a separate summand.
    Four conjugate products of the base relators make the matrix 15 x 12."""

    def y(i):
        return f"(x{i}*x0^-1)"

    repeated = {i for i, r in enumerate(PLANTED_ROOTS, 1) if PLANTED_ROOTS.count(r) > 1}
    base = []
    for i, r in enumerate(PLANTED_ROOTS, 1):
        rhs = [f"{y(i)}^{r}"]
        if i not in repeated:
            rhs += [y(j) for j in range(i + 1, 12) if j not in repeated]
        base.append(f"(x0*{y(i)}*x0^-1)*({'*'.join(rhs)})^-1")
    redundant = [
        f"({w})*{base[a]}*({w})^-1*({base[b]})^{e}"
        for a, b, w, e in (
            (0, 4, "x1*x2^-1", 1),
            (5, 7, "x3^-1*x0", -1),
            (10, 2, "x0*x5", 1),
            (8, 9, "x11^-1*x4^-1", -1),
        )
    ]
    gens = " ".join(f"x{i}" for i in range(12))
    return parse_presentation(
        f"prime 7\ngenerators {gens}\n"
        + "".join(f"relator {r}\n" for r in base + redundant)
    )


def test_fitting_planted_beyond_enumeration():
    Q = alexander_matrix(_planted_presentation())
    assert (Q.n_rows, Q.n_cols) == (15, 12)
    start = time.perf_counter()
    d1 = fitting_delta(Q, 1)
    d2 = fitting_delta(Q, 2)
    elapsed = time.perf_counter() - start
    factors = [L("g") - LaurentPoly({0: r}) for r in PLANTED_ROOTS]
    distinct = [L("g") - LaurentPoly({0: r}) for r in set(PLANTED_ROOTS)]
    assert d1.delta == prod(factors, start=LaurentPoly.one())
    assert d2.delta == div_exact(d1.delta, prod(distinct, start=LaurentPoly.one()))
    assert d2.delta == L("g^5 - 8*g^4 + 17*g^3 + 14*g^2 - 84*g + 72")
    assert d1.minor_count == comb(15, 11) * comb(12, 11) == 16380
    assert d2.minor_count == comb(15, 10) * comb(12, 10) == 198198
    assert is_zero_of_delta(Q, 2, Fraction(2))
    assert not is_zero_of_delta(Q, 2, Fraction(4))
    assert elapsed < 10.0


@pytest.mark.parametrize("name, shift", [("pseudo_divmod", 0), ("divexact", 1)])
def test_interrupted_elimination_leaves_the_snapshots_sound(monkeypatch, name, shift):
    # A 5x4 matrix of rank 3 that no other test builds, so its snapshots
    # start cold; shift keeps the two cases' matrices apart. Every entry is
    # a multiple of g^2 - 1, which vanishes at both points of F_3^*, so no
    # point settles a content minimum and the Bareiss states are built. The
    # third call of the patched integer helper raises partway through a
    # Smith step (pseudo_divmod) or the second Bareiss step (divexact); every
    # d asked afterwards must still get the one-shot eliminations' answers.
    rows = tuple(
        tuple(
            LaurentPoly({2: 1, 1: -(i + 2 * j + shift), 0: i * j * (i + j) - 3}) * L("g^2 - 1")
            for j in range(4)
        )
        for i in range(5)
    )
    Q = AlexanderMatrix.from_entries(entries=rows, n_relators=5, n_generators=4, block_dim=1, prime=3)
    real = getattr(fitting, name)
    calls = []

    def third_call_raises(*args):
        calls.append(args)
        if len(calls) == 3:
            raise RuntimeError("interrupted")
        return real(*args)

    monkeypatch.setattr(fitting, name, third_call_raises)
    with pytest.raises(RuntimeError, match="interrupted"):
        for d in range(Q.n_cols + 1):
            fitting_delta(Q, d)
    monkeypatch.setattr(fitting, name, real)
    for d in range(-1, Q.n_cols + 2):
        fit = fitting_delta(Q, d)
        assert (fit.delta, fit.mu_content) == oneshot_divisor_and_content(Q, d), d
        assert fit == _fitting_by_enumeration(Q, d), d


def test_every_memo_keeps_at_most_memo_size_entries():
    for k in range(1, fox.MEMO_SIZE + 11):
        pres = parse_presentation(f"prime 3\ngenerators a b\nrelator a^{k}*b^-{k}\n")
        fitting_delta(alexander_matrix(pres), 1)
    Q, trivial = alexander_matrix(pres), Representation.trivial(2)
    for a in range(1, fox.MEMO_SIZE + 11):
        rank_at(Q, a)
        specialize(pres, trivial, a)
    memos = (
        fitting_delta,
        fitting._eliminations,
        fox._relation_matrix,
        fitting._nullspace_at,
        extensions.specialize,
    )
    for memo in memos:
        assert memo.cache_info().currsize <= fox.MEMO_SIZE, memo


# A matrix of the 7 x 6 divisor-chain class: five relators
# x0*y_i*x0^-1 = y_i^(r_i) (times later y_j), y_i = x_i*x0^-1, and two
# conjugate products of them.
SEVEN_BY_SIX = """prime 7
generators x0 x1 x2 x3 x4 x5
relator x0*(x1*x0^-1)*x0^-1 = (x1*x0^-1)^3
relator x0*(x2*x0^-1)*x0^-1 = (x2*x0^-1)^-2*(x5*x0^-1)^-1
relator x0*(x3*x0^-1)*x0^-1 = (x3*x0^-1)^3
relator x0*(x4*x0^-1)*x0^-1 = (x4*x0^-1)^5*(x5*x0^-1)^2
relator x0*(x5*x0^-1)*x0^-1 = (x5*x0^-1)^-3
relator (x1*x2^-1)*(x0*(x2*x0^-1)*x0^-1)*((x2*x0^-1)^-2*(x5*x0^-1)^-1)^-1*(x1*x2^-1)^-1*((x0*(x3*x0^-1)*x0^-1)*((x3*x0^-1)^3)^-1)^-1
relator (x1^-1*x4^-1)*(x0*(x2*x0^-1)*x0^-1)*((x2*x0^-1)^-2*(x5*x0^-1)^-1)^-1*(x1^-1*x4^-1)^-1*((x0*(x3*x0^-1)*x0^-1)*((x3*x0^-1)^3)^-1)
"""


def test_every_d_of_one_matrix_shares_its_elimination_states():
    Q = alexander_matrix(parse_presentation(SEVEN_BY_SIX))
    assert (Q.n_rows, Q.n_cols) == (7, 6)
    # d = 0 takes the most Smith steps and finds the divisor 0 (rank 5 <
    # 6); d = 1 asks for the most rank mod 7, which t = 1 gives. Every later
    # d reads what they left, and a point settles every content minimum, so
    # the Bareiss states stay at the matrix itself.
    fitting_delta.__wrapped__(Q, 0)
    fitting_delta.__wrapped__(Q, 1)
    smith, bareiss, ranks = fitting._eliminations(Q)
    assert len(smith) == Q.n_cols
    assert bareiss == [(Q.rows, ONE)]
    assert ranks == [5]
    kept = [list(smith), list(bareiss), list(ranks)]
    for d in range(2, Q.n_cols + 1):
        fitting_delta.__wrapped__(Q, d)
        states = fitting._eliminations(Q)
        assert all(now is was for now, was in zip(states, (smith, bareiss, ranks))), d
        for now, before in zip(states, kept):
            assert len(now) == len(before), d
            assert all(a is b for a, b in zip(now, before)), d


@pytest.mark.parametrize(
    "text, ds, steps",
    [
        (SEVEN_BY_SIX, range(-1, 8), 0),
        # rows 3 * (1, -1, 0) and 3 * (0, 1, -1): every 2-minor vanishes mod
        # 3, so no point settles r = 2 and one Bareiss step finds mu = 2.
        ((Path(__file__).parent / "data" / "pcontent.pres").read_text(), [1], 1),
    ],
    ids=["seven-by-six", "pcontent"],
)
def test_whole_matrix_bareiss_runs_only_where_no_point_settles(monkeypatch, text, ds, steps):
    # Count the steps on a matrix of Q's own shape, the whole-matrix
    # content elimination's. The row-set fold stays on Bareiss, but its
    # r x r determinants have fewer rows than Q here, and its subtree steps
    # drop rows.
    Q = alexander_matrix(parse_presentation(text))
    shapes = []
    real = fitting._bareiss_step
    monkeypatch.setattr(
        fitting, "_bareiss_step", lambda M, *args: shapes.append((len(M), len(M[0]))) or real(M, *args)
    )
    fits = [fitting_delta.__wrapped__(Q, d) for d in ds]
    assert shapes.count((Q.n_rows, Q.n_cols)) == steps
    assert fits == [_fitting_by_enumeration(Q, d) for d in ds]


def test_a_single_row_set_runs_no_elimination(monkeypatch):
    # a^N*b^-N under phi(a) = [[2, 1], [1, 1]], phi(b) = I: a 2x4 relation
    # matrix whose one row set of 2 rows is the matrix, with delta_2 = 1.
    # Once its whole-matrix eliminations are kept, the fold only expands
    # that row set's six 2-minors and runs no Smith step of its own.
    pres = parse_presentation("prime 3\ngenerators a b\nrelator a^20*b^-20\n")
    phi = parse_representation("dim 2\nmatrix a\n2 1\n1 1\nmatrix b\n1 0\n0 1\n", pres)
    Q = alexander_matrix(pres, phi)
    assert (Q.n_rows, Q.n_cols) == (2, 4)
    warm = fitting_delta.__wrapped__(Q, 2)
    steps = []
    real = fitting._smith_step
    monkeypatch.setattr(fitting, "_smith_step", lambda *args: steps.append(args) or real(*args))
    fit = fitting_delta.__wrapped__(Q, 2)
    assert steps == []
    assert fit == warm
    assert (fit.delta, fit.mu_content, fit.minor_count) == (LaurentPoly.one(), 0, 2)
