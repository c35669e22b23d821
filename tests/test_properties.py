"""Property-based invariants of the whole computational stack.

Every suite runs at least 500 derandomized examples. The strategies bias
toward short words and small numbers so each example stays exact and fast.
"""

import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from propfox import (
    CrossedHom,
    DivisionByZero,
    HypothesisViolated,
    LaurentPoly,
    Presentation,
    Relator,
    Representation,
    Word,
    alexander_matrix,
    build_extension,
    coboundary_matrix,
    cocycle_space,
    evaluate_cocycle,
    evaluate_word,
    extension_count_criterion,
    fitting_delta,
    format_laurent,
    format_presentation,
    format_rational,
    format_word,
    fox_derivative_matrix,
    gcd_many,
    h1_report,
    hensel_roots,
    is_zero_of_delta,
    laurent_divides,
    normalize_associate,
    parse_laurent,
    parse_presentation,
    parse_rational,
    parse_word,
    rank_at,
    rational_roots,
    specialize,
    theorem_audit,
    valuation,
    verify_factors,
)
from propfox import cohomology, corpus, extensions, fitting, modp
from propfox.extensions import mat_vec
from propfox.fox import AlexanderMatrix, _degree_range, _relation_matrix, scaled_image
from propfox.matrices import freeze, rank_nullspace, scaled_mul, to_scaled
from propfox.presentation import _RUN_BLOCK, _WordParser, _is_prime, reduce_syllables
from propfox.zeros import _squarefree, _taylor_shift, _zp_roots
from propfox.zpoly import ONE

import fitting_oracle
import laurent_oracle
import parser_oracle
from fitting_oracle import _fitting_by_enumeration, det_laurent, oneshot_divisor_and_content
from laurent_fox import (
    LaurentTensorRep,
    fraction_fox_pass,
    geometric_sum,
    laurent_alexander_matrix,
    laurent_evaluate_word,
    mat_pow,
)
from laurent_oracle import integer_matrix, oracle
from matrices_oracle import mat_mul, oracle_identity, oracle_inverse, oracle_rank_nullspace
from words_oracle import syllable_scaled_image
from zeros_scan import (
    _compose_affine,
    _deflate,
    _divide_linear,
    _horner,
    _mult_mod_p,
    scan_hensel_roots,
    scan_rational_roots,
)

SUITE = settings(max_examples=500, derandomize=True, deadline=None)

EG41 = corpus.load_presentation("eg41.pres")
TRIVIAL3 = Representation.trivial(3)
EG44 = corpus.load_representation("eg44.rep", EG41)
REP41 = LaurentTensorRep(EG41, TRIVIAL3)
Q41 = alexander_matrix(EG41)

# -- strategies -------------------------------------------------------------

small_fractions = st.fractions(min_value=-6, max_value=6, max_denominator=6)
nonzero_fractions = small_fractions.filter(lambda q: q != 0)

syllables = st.tuples(
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=-3, max_value=3).filter(lambda e: e != 0),
)
words = st.lists(syllables, max_size=6).map(Word.of)

laurent_polys = st.dictionaries(
    st.integers(min_value=-4, max_value=4),
    small_fractions,
    max_size=5,
).map(LaurentPoly)

nonzero_laurent = laurent_polys.filter(lambda f: not f.is_zero())


def _mat_add(A, B):
    return tuple(tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(A, B))


# -- word algebra -----------------------------------------------------------


@SUITE
@given(words, words, words)
def test_word_associativity(u, v, w):
    assert (u * v) * w == u * (v * w)


@st.composite
def junction_pairs(draw):
    """Reduced words (u, v) that meet at a busy junction: v opens with the
    inverse of the last k syllables of u (all of them is w * w^-1), often
    followed by a syllable on the generator that exposes, which merges or
    cancels in part, and then by a random tail."""
    s = draw(words).syllables
    k = draw(st.integers(min_value=0, max_value=len(s)))
    head = [(g, -e) for g, e in reversed(s[len(s) - k:])]
    if k < len(s) and draw(st.booleans()):
        head.append((s[len(s) - k - 1][0], draw(st.integers(min_value=-3, max_value=3).filter(bool))))
    return Word(s), Word.of(head + draw(st.lists(syllables, max_size=6)))


@SUITE
@given(junction_pairs())
@example((Word.of([(0, 2), (1, -1)]), Word.of([(1, 1), (0, -2)])))
@example((Word.of([(0, 2), (1, -1)]), Word.of([(1, 1), (0, -1), (2, 1)])))
def test_word_product_reduces_at_the_junction(pair):
    u, v = pair
    assert u * v == Word(reduce_syllables(u.syllables + v.syllables))
    assert u * u.inverse() == Word() == u.inverse() * u


@SUITE
@given(words)
def test_word_inverse_cancels(w):
    assert w * w.inverse() == Word.of([])
    assert w.inverse().inverse() == w


@SUITE
@given(words, st.integers(min_value=-4, max_value=4))
def test_word_power_consistency(w, n):
    direct = Word.of([])
    for _ in range(abs(n)):
        direct = direct * (w if n >= 0 else w.inverse())
    assert w**n == direct


def junction_examples(test):
    """(u, c, n) with n = 1, -1 and 1000 for a word u * c * u^-1 on each
    branch of the junction rule: a*b (no junction), c*a^2 * b^3 * a^-2*c^-1
    (a one-syllable core, merged) and a^2*b*a^3 (a core whose ends merge)."""
    for u, c in (
        (Word(), Word.of([(0, 1), (1, 1)])),
        (Word.of([(2, 1), (0, 2)]), Word.of([(1, 3)])),
        (Word(), Word.of([(0, 2), (1, 1), (0, 3)])),
    ):
        for n in (1, -1, 1000):
            test = example(u, c, n)(test)
    return test


@SUITE
@given(words, words, st.integers(min_value=-6, max_value=6))
@junction_examples
def test_power_of_conjugate_matches_iterated_product(u, c, n):
    w = u * c * u.inverse()
    direct = Word.of([])
    for _ in range(abs(n)):
        direct = direct * (w if n >= 0 else w.inverse())
    assert w**n == direct


@SUITE
@given(words, words, st.integers(min_value=-6, max_value=6))
@junction_examples
def test_power_length_is_the_length_of_the_power(u, c, n):
    """The parser bounds a power by _power_length before building it."""
    for w in (c, u * c * u.inverse()):
        assert w._power_length(n) == len((w**n).syllables)


# -- parse/print round trips -------------------------------------------------


@SUITE
@given(words)
def test_word_round_trip(w):
    gens = EG41.generators
    assert parse_word(format_word(w, gens), gens) == w


@SUITE
@given(st.randoms(use_true_random=False))
def test_one_pass_parser_matches_the_token_list_parser(rng):
    """Valid and corrupted word texts (parser_oracle.random_case) read
    alike by the one-pass parser and the token-list parser kept in
    tests/parser_oracle.py: the same syllables, or the same error class,
    message, line and column, with 0 or nearly MAX_WORD_SYLLABLES
    syllables used by earlier words."""
    case = parser_oracle.random_case(rng)
    assert parser_oracle.outcome(_WordParser, *case) == parser_oracle.outcome(parser_oracle._WordParser, *case)


@SUITE
@given(laurent_polys)
def test_laurent_round_trip(f):
    assert parse_laurent(format_laurent(f)) == f


@SUITE
@given(small_fractions)
def test_rational_round_trip(q):
    assert parse_rational(format_rational(q)) == q


@SUITE
@given(st.lists(words, min_size=1, max_size=3))
def test_presentation_round_trip(relator_words):
    pres = Presentation(
        prime=3,
        generators=EG41.generators,
        relators=tuple(Relator(w) for w in relator_words),
        alpha=(1, 1, 1),
    )
    assert parse_presentation(format_presentation(pres)) == pres


# -- Laurent ring invariants --------------------------------------------------


@SUITE
@given(nonzero_laurent, nonzero_fractions, st.integers(min_value=-3, max_value=3))
def test_normalize_associate_invariance(f, c, k):
    assert normalize_associate(f.scale(c).shift(k)) == normalize_associate(f)
    assert normalize_associate(normalize_associate(f)) == normalize_associate(f)


@SUITE
@given(st.lists(laurent_polys, min_size=1, max_size=4), st.randoms(use_true_random=False))
def test_gcd_permutation_invariance_and_divides(fs, rng):
    g = gcd_many(fs)
    shuffled = list(fs)
    rng.shuffle(shuffled)
    assert gcd_many(shuffled) == g
    for f in fs:
        assert laurent_divides(g, f)


@SUITE
@given(laurent_polys, laurent_polys, st.sampled_from(
    [Fraction(1), Fraction(-1), Fraction(2), Fraction(-2), Fraction(4), Fraction(1, 4)]
))
def test_eval_at_is_ring_map(f, h, a):
    assert (f + h).eval_at(a) == f.eval_at(a) + h.eval_at(a)
    assert (f * h).eval_at(a) == f.eval_at(a) * h.eval_at(a)


@SUITE
@given(
    st.dictionaries(
        st.integers(min_value=-60, max_value=60),
        st.fractions(min_value=-50, max_value=50, max_denominator=30),
        max_size=6,
    ).map(LaurentPoly),
    st.integers(min_value=-12, max_value=12).filter(lambda n: n != 0),
    st.integers(min_value=1, max_value=12),
)
def test_eval_at_matches_term_by_term(f, n, d):
    a = Fraction(n, d)
    assert f.eval_at(a) == sum((c * a ** k for k, c in f.terms.items()), Fraction(0))


# -- free derivative identities ------------------------------------------------


@SUITE
@given(words, words)
def test_fox_product_rule(u, v):
    ru = laurent_evaluate_word(REP41, u)
    for i in range(3):
        lhs = fox_derivative_matrix(EG41, TRIVIAL3, u * v, i)
        rhs = _mat_add(
            fox_derivative_matrix(EG41, TRIVIAL3, u, i),
            mat_mul(ru, fox_derivative_matrix(EG41, TRIVIAL3, v, i)),
        )
        assert lhs == rhs


@SUITE
@given(words)
def test_fox_inverse_rule(w):
    rw_inv = laurent_evaluate_word(REP41, w.inverse())
    for i in range(3):
        lhs = fox_derivative_matrix(EG41, TRIVIAL3, w.inverse(), i)
        neg = tuple(tuple(-x for x in row) for row in fox_derivative_matrix(EG41, TRIVIAL3, w, i))
        assert lhs == mat_mul(rw_inv, neg)


@SUITE
@given(words)
def test_fundamental_identity(w):
    ell = REP41.dim
    ident = REP41.identity()
    total = None
    for i in range(3):
        D = fox_derivative_matrix(EG41, TRIVIAL3, w, i)
        gi_minus_one = _mat_add(
            REP41.image(i), tuple(tuple(-x for x in row) for row in ident)
        )
        term = mat_mul(D, gi_minus_one)
        total = term if total is None else _mat_add(total, term)
    rw_minus_one = _mat_add(
        laurent_evaluate_word(REP41, w), tuple(tuple(-x for x in row) for row in ident)
    )
    assert total == rw_minus_one


long_syllables = st.tuples(
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=-6, max_value=6).filter(lambda e: e != 0),
)
long_words = st.lists(long_syllables, max_size=6).map(Word.of)


def naive_valuation(q, p):
    """v_p by dividing out one factor of p at a time: the oracle for
    scalars.valuation."""
    if q == 0:
        return None
    v = 0
    n = abs(q.numerator)
    while n % p == 0:
        n //= p
        v += 1
    d = q.denominator
    while d % p == 0:
        d //= p
        v -= 1
    return v


@st.composite
def valued_rationals(draw):
    """(q, p, v_p(q)): a unit times p^v, or zero with v None. |v| goes up
    to 3000 for small p and to 300 for large p, which keeps the oracle's
    one-factor-at-a-time division fast."""
    p = draw(st.sampled_from([2, 3, 7, 10007, 2 ** 61 - 1]))
    if draw(st.integers(min_value=0, max_value=19)) == 0:
        return Fraction(0), p, None
    bound = 3000 if p < 100 else 300
    v = draw(st.integers(min_value=-bound, max_value=bound))
    num = draw(st.integers(min_value=-(10 ** 30), max_value=10 ** 30).filter(lambda n: n % p))
    den = draw(st.integers(min_value=1, max_value=10 ** 30).filter(lambda n: n % p))
    return Fraction(num, den) * Fraction(p) ** v, p, v


@SUITE
@given(valued_rationals())
@example((Fraction(0), 3, None))
@example((Fraction(-1, 3 ** 2000), 3, -2000))
@example((Fraction(2 ** 1023), 2, 1023))
def test_valuation_matches_naive_division(case):
    q, p, v = case
    assert valuation(q, p) == naive_valuation(q, p) == v


@st.composite
def weighted_presentations(draw):
    """Three generators with weights 1 or any in -2..2, one to three relators
    of any degree, and invertible rational images of size one or two."""
    ell = draw(st.sampled_from([1, 2]))
    entries = st.lists(small_fractions, min_size=ell * ell, max_size=ell * ell)
    images = []
    for _ in range(3):
        M = draw(
            entries.map(lambda xs: freeze([xs[r * ell:(r + 1) * ell] for r in range(ell)]))
            .filter(lambda M: (M[0][0] if ell == 1 else M[0][0] * M[1][1] - M[0][1] * M[1][0]) != 0)
        )
        images.append(M)
    weights = st.lists(st.integers(min_value=-2, max_value=2), min_size=3, max_size=3)
    alpha = tuple(draw(st.one_of(st.just([1, 1, 1]), weights)))
    n_relators = draw(st.integers(min_value=1, max_value=3))
    relators = tuple(Relator(draw(long_words), draw(long_words)) for _ in range(n_relators))
    return Presentation(3, ("a", "b", "c"), relators, alpha), Representation(ell, tuple(images))


@SUITE
@given(weighted_presentations(), nonzero_fractions)
def test_one_pass_matrix_matches_laurent_route(case, a):
    pres, rep = case
    Q = _relation_matrix(pres, rep)
    assert Q.entries == laurent_alexander_matrix(pres, rep).entries
    assert (Q.n_rows, Q.n_cols) == (len(pres.relators) * rep.dim, 3 * rep.dim)
    rho = specialize(pres, rep, a)
    # Fox's fundamental formula, beta(w) = sum_i (dw/dg_i)(a) beta(g_i), from
    # the specialized Laurent matrix on one side and the extension's corner
    # on the other
    flat = tuple(Fraction(k + 1, 3 - k % 2) for k in range(Q.n_cols))
    beta = CrossedHom.from_flat(flat, rep.dim)
    corners = tuple(x for rel in pres.relators for x in evaluate_cocycle(beta, rho, rel.flatten()))
    assert mat_vec(Q.specialize(a), flat) == corners
    assert rho.factors_through() == verify_factors(rho, pres).ok


@SUITE
@given(weighted_presentations(), small_fractions)
def test_integer_relation_matrix_matches_the_fraction_pass(case, a):
    pres, rep = case
    Q = _relation_matrix.__wrapped__(pres, rep)
    assert Q.entries == tuple(
        tuple(LaurentPoly(cell) for cell in row)
        for rel in pres.relators
        for row in fraction_fox_pass(pres.alpha, rep.images, tuple(map(oracle_inverse, rep.images)), rel.flatten())
    )
    # The scale is the least common denominator, the one integer_matrix
    # reads off the entries, so the integer form is unique: the matrix built
    # again, or from its entries, compares and hashes equal.
    assert (Q.scale, Q.rows) == integer_matrix(Q.entries)
    dims = (Q.n_relators, Q.n_generators, Q.block_dim, Q.prime)
    for again in (_relation_matrix.__wrapped__(pres, rep), AlexanderMatrix.from_entries(Q.entries, *dims)):
        assert again == Q and hash(again) == hash(Q)
    # Horner on the integer form against each entry's eval_at, a = 0 included
    try:
        values = tuple(tuple(f.eval_at(a) for f in row) for row in Q.entries)
    except DivisionByZero:
        with pytest.raises(DivisionByZero):
            Q.specialize(a)
        with pytest.raises(DivisionByZero):
            Q.rows_at(a)
    else:
        assert Q.specialize(a) == values
        # the integer rows are positive multiples of the rows of Q(a), with
        # its rank and nullspace
        rows = Q.rows_at(a)
        for row, vals in zip(rows, values):
            c = next((Fraction(x) / v for x, v in zip(row, vals) if v), Fraction(1))
            assert c > 0 and list(row) == [c * v for v in vals]
        assert rank_nullspace(rows, Q.n_cols) == oracle_rank_nullspace(values, Q.n_cols)


@SUITE
@given(st.integers(min_value=-12, max_value=12))
def test_geometric_sum_matches_direct(n):
    M = freeze([[Fraction(4), Fraction(1)], [Fraction(0), Fraction(1)]])
    ident = oracle_identity(2)
    Minv = oracle_inverse(M)
    total = tuple(tuple(Fraction(0) for _ in row) for row in ident)
    if n >= 0:
        for t in range(n):
            total = _mat_add(total, mat_pow(M, t, ident))
    else:
        for t in range(-n):
            total = _mat_add(total, mat_pow(Minv, t + 1, ident))
        total = tuple(tuple(-x for x in row) for row in total)
    assert geometric_sum(M, n, ident, Minv) == total


# -- divisor chain and rank duality ---------------------------------------------


@SUITE
@given(
    st.lists(
        st.lists(laurent_polys, min_size=3, max_size=3), min_size=2, max_size=2
    )
)
def test_delta_chain_divides(rows):
    from propfox.fox import AlexanderMatrix, _degree_range, _relation_matrix, scaled_image

    Q = AlexanderMatrix.from_entries(
        entries=tuple(tuple(r) for r in rows),
        n_relators=2,
        n_generators=3,
        block_dim=1,
        prime=3,
    )
    deltas = [fitting_delta(Q, d).delta for d in range(0, 4)]
    for smaller, larger in zip(deltas[1:], deltas):
        assert laurent_divides(smaller, larger)


@SUITE
@given(st.sampled_from([Fraction(1), Fraction(2), Fraction(4), Fraction(7), Fraction(1, 4), Fraction(-1)]))
def test_zero_detection_routes_agree(a):
    assert is_zero_of_delta(Q41, 1, a) == (a == Fraction(4))
    assert is_zero_of_delta(Q41, 0, a) is True
    assert is_zero_of_delta(Q41, 2, a) is False


@SUITE
@given(words, st.integers(min_value=0, max_value=3))
def test_fitting_invariant_under_relator_conjugation(w, which):
    relator = EG41.relators[which]
    conjugated = Relator(w * relator.flatten() * w.inverse())
    relators = list(EG41.relators)
    relators[which] = conjugated
    pres = Presentation(
        prime=3, generators=EG41.generators, relators=tuple(relators), alpha=(1, 1, 1)
    )
    Q = alexander_matrix(pres)
    assert fitting_delta(Q, 1).delta == fitting_delta(Q41, 1).delta
    assert fitting_delta(Q, 2).delta == fitting_delta(Q41, 2).delta


@st.composite
def small_laurent_matrices(draw):
    """Up to 4x4, with zero entries, negative exponents, some matrices with
    coefficients whose denominators the prime divides, and some with the
    last row a Laurent combination of earlier rows (rank deficient)."""
    prime = draw(st.sampled_from([2, 3, 5]))
    coeffs = st.fractions(
        min_value=-4, max_value=4, max_denominator=draw(st.sampled_from([1, 10]))
    )
    entry = st.one_of(
        st.just(LaurentPoly.zero()),
        st.dictionaries(st.integers(min_value=-2, max_value=2), coeffs, max_size=3).map(
            LaurentPoly
        ),
    )
    n_rows = draw(st.integers(min_value=1, max_value=4))
    n_cols = draw(st.integers(min_value=1, max_value=4))
    rows = [[draw(entry) for _ in range(n_cols)] for _ in range(n_rows)]
    if n_rows >= 2 and draw(st.booleans()):
        f, h = draw(entry), draw(entry)
        rows[-1] = [f * a + h * b for a, b in zip(rows[0], rows[n_rows - 2])]
    return AlexanderMatrix.from_entries(
        entries=tuple(tuple(row) for row in rows),
        n_relators=n_rows,
        n_generators=n_cols,
        block_dim=1,
        prime=prime,
    )


@SUITE
@given(small_laurent_matrices())
def test_fitting_matches_minor_enumeration(Q):
    for d in range(-1, Q.n_cols + 2):
        assert fitting_delta(Q, d) == _fitting_by_enumeration(Q, d), d


@SUITE
@given(small_laurent_matrices(), st.data())
def test_fitting_in_any_ask_order_matches_the_oracles(Q, data):
    # Rows scaled by drawn powers of p, negative ones included, make the
    # least content differ between minor sizes, so a snapshot that a later
    # step overwrote gives a wrong content minimum.
    scales = data.draw(st.lists(st.integers(-2, 2), min_size=Q.n_rows, max_size=Q.n_rows))
    rows = tuple(
        tuple(f.scale(Fraction(Q.prime) ** e) for f in row) for row, e in zip(Q.entries, scales)
    )
    Q = AlexanderMatrix.from_entries(rows, Q.n_relators, Q.n_generators, Q.block_dim, Q.prime)
    # Every d once, in a drawn order, with some asked again. The call goes
    # past fitting_delta's result cache, so each answer, repeats included, is
    # read off the elimination snapshots left by the calls before it.
    ds = range(-1, Q.n_cols + 2)
    repeats = data.draw(st.lists(st.sampled_from(ds), max_size=4))
    for d in data.draw(st.permutations([*ds, *repeats])):
        fit = fitting_delta.__wrapped__(Q, d)
        assert (fit.delta, fit.mu_content) == oneshot_divisor_and_content(Q, d), d
        assert fit == _fitting_by_enumeration(Q, d), d


@st.composite
def late_exit_matrices(draw):
    """4 to 7 rows and 2 to 4 columns of integral entries. The first rows
    are multiples of one linear factor g - c, times p in some draws, so the
    minors of every row set that meets them share a factor, and the early
    exit of the lexicographic scan can fire only after several row sets."""
    prime = draw(st.sampled_from([2, 3, 5]))
    n_rows = draw(st.integers(min_value=4, max_value=7))
    n_cols = draw(st.integers(min_value=2, max_value=4))
    entry = st.sampled_from(
        [parse_laurent(t) for t in ("0", "0", "1", "-1", "2", "g", "g - 1", "g + 2", "2*g - 1")]
    )
    factor = LaurentPoly({1: 1, 0: -draw(st.integers(min_value=-3, max_value=3))})
    if draw(st.booleans()):
        factor = factor * prime
    shared = draw(st.integers(min_value=1, max_value=n_rows - 1))
    rows = [[draw(entry) for _ in range(n_cols)] for _ in range(n_rows)]
    rows[:shared] = [[factor * f for f in row] for row in rows[:shared]]
    return AlexanderMatrix.from_entries(
        entries=tuple(tuple(row) for row in rows),
        n_relators=n_rows,
        n_generators=n_cols,
        block_dim=1,
        prime=prime,
    )


@SUITE
@given(late_exit_matrices())
def test_fitting_late_exits_match_minor_enumeration(Q):
    for d in range(-1, Q.n_cols + 2):
        assert fitting_delta(Q, d) == _fitting_by_enumeration(Q, d), d


@st.composite
def row_set_fold_matrices(draw):
    """4 to 9 rows and 2 to 4 columns of integral entries, drawn row by row:
    a fresh row, a zero row, a copy of an earlier row, p times one, or a
    Laurent combination of two earlier ones. In some draws a run of first
    rows shares one linear factor, times p in some of those, so that the
    scan exits late or not at all."""
    prime = draw(st.sampled_from([2, 3, 5]))
    n_rows = draw(st.integers(min_value=4, max_value=9))
    n_cols = draw(st.integers(min_value=2, max_value=4))
    entry = st.sampled_from(
        [parse_laurent(t) for t in ("0", "0", "1", "-1", "2", "g", "g^-1", "g - 1", "g + 2", "2*g - 1")]
    )
    multiplier = st.sampled_from([parse_laurent(t) for t in ("1", "-2", "g", "g^-1 - 1", "g + 2")])
    kinds = st.sampled_from(["fresh", "fresh", "zero", "copy", "p", "combination"])
    rows = []
    for _ in range(n_rows):
        kind = draw(kinds) if rows else "fresh"
        if kind == "fresh":
            row = [draw(entry) for _ in range(n_cols)]
        elif kind == "zero":
            row = [LaurentPoly.zero()] * n_cols
        elif kind == "combination":
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            f, h = draw(multiplier), draw(multiplier)
            row = [f * x + h * y for x, y in zip(a, b)]
        else:
            row = [f * (prime if kind == "p" else 1) for f in draw(st.sampled_from(rows))]
        rows.append(row)
    shared = draw(st.integers(min_value=0, max_value=n_rows - 1))
    factor = LaurentPoly({1: 1, 0: -draw(st.integers(min_value=-3, max_value=3))})
    if draw(st.booleans()):
        factor = factor * prime
    rows[:shared] = [[factor * f for f in row] for row in rows[:shared]]
    return AlexanderMatrix.from_entries(
        entries=tuple(tuple(row) for row in rows),
        n_relators=n_rows,
        n_generators=n_cols,
        block_dim=1,
        prime=prime,
    )


@SUITE
@given(row_set_fold_matrices())
def test_row_set_fold_matches_the_scan_oracle(Q):
    # fitting_delta once with the subtree fold and once with the scan that
    # eliminates every row set before the exit; whole results must agree.
    for d in range(Q.n_cols + 1):
        fit = fitting_delta.__wrapped__(Q, d)
        with mock.patch.object(fitting, "_scan_by_row_sets", fitting_oracle._scan_by_row_sets):
            assert fit == fitting_delta.__wrapped__(Q, d), d


@st.composite
def point_shortcut_matrices(draw):
    """2 to 5 rows and 2 to 4 columns at p in {2, 3, 5, 7}, drawn row by
    row: a fresh row, a Laurent combination of earlier rows (rank
    deficient), or a fresh row times p or times g^(p - 1) - 1, which
    vanishes at every point of F_p^*. In some draws every row is then
    multiplied by g^(p - 1) - 1, so that no point settles a minimum of 0
    and the Bareiss route has to answer, and in some one row is divided by
    p, which shifts the minimum by -r * v_p(L)."""
    prime = draw(st.sampled_from([2, 3, 5, 7]))
    n_rows = draw(st.integers(min_value=2, max_value=5))
    n_cols = draw(st.integers(min_value=2, max_value=4))
    entry = st.sampled_from(
        [parse_laurent(t) for t in ("0", "0", "1", "-1", "2", "g", "g^-1", "g - 1", "g + 2", "2*g - 1", "g^2 - 3")]
    )
    vanishing = LaurentPoly({prime - 1: 1, 0: -1})
    factors = {"p": LaurentPoly({0: prime}), "vanishing": vanishing}
    kinds = st.sampled_from(["fresh", "fresh", "combination", "p", "vanishing"])
    rows = []
    for _ in range(n_rows):
        kind = draw(kinds) if rows else "fresh"
        if kind == "combination":
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            f, h = draw(entry), draw(entry)
            rows.append([f * x + h * y for x, y in zip(a, b)])
            continue
        row = [draw(entry) for _ in range(n_cols)]
        rows.append([factors[kind] * f for f in row] if kind in factors else row)
    if draw(st.booleans()):
        rows = [[vanishing * f for f in row] for row in rows]
    if draw(st.booleans()):
        i = draw(st.integers(min_value=0, max_value=n_rows - 1))
        rows[i] = [f.scale(Fraction(1, prime)) for f in rows[i]]
    return AlexanderMatrix.from_entries(
        entries=tuple(tuple(row) for row in rows),
        n_relators=n_rows,
        n_generators=n_cols,
        block_dim=1,
        prime=prime,
    )


@SUITE
@given(point_shortcut_matrices())
def test_point_shortcut_matches_bareiss_and_the_content_oracle(Q):
    # fitting_delta once as it runs and once with no point ever settling
    # (the rank at the points patched to 0), so that Bareiss answers every
    # content minimum; both must agree, and with the one-shot rational
    # Bareiss elimination.
    fraction_rows = tuple(tuple(oracle(f) for f in row) for row in Q.entries)
    for d in range(Q.n_cols + 1):
        fit = fitting_delta.__wrapped__(Q, d)
        with mock.patch.object(fitting, "_rank_at_points", lambda *args: 0):
            assert fit == fitting_delta.__wrapped__(Q, d), d
        if d < Q.n_cols:
            r = Q.n_cols - d
            assert fit.mu_content == fitting_oracle._least_content(fraction_rows, r, Q.prime), d


def _wide_rationals(p: int):
    """Coefficients for the integer divisor layer: small and 40-digit
    numerators, over denominators with and without powers of p."""
    numerators = st.one_of(
        st.integers(min_value=-5, max_value=5),
        st.integers(min_value=-(10**40), max_value=10**40),
    )
    denominators = st.builds(
        lambda k, m: p**k * m, st.integers(min_value=0, max_value=2), st.sampled_from([1, 1, 7, 10])
    )
    return st.builds(Fraction, numerators, denominators)


@st.composite
def gcd_cases(draw):
    """One to four Laurent polynomials with negative exponents and wide
    rational coefficients, all multiples of one drawn factor."""
    poly = st.dictionaries(
        st.integers(min_value=-3, max_value=3),
        _wide_rationals(draw(st.sampled_from([2, 3, 5]))),
        max_size=4,
    ).map(LaurentPoly)
    common = draw(poly)
    return [draw(poly) * common for _ in range(draw(st.integers(min_value=1, max_value=4)))]


@SUITE
@given(gcd_cases())
def test_gcd_matches_the_rational_euclid_oracle(fs):
    assert oracle(gcd_many(fs)) == laurent_oracle.gcd_many(map(oracle, fs))


@st.composite
def wide_entry_matrices(draw):
    """Up to 4x3, entries with negative exponents and wide rational
    coefficients, p in some denominators; in some draws the last row is a
    Laurent multiple of the first (rank deficient), in others every entry
    shares a factor."""
    p = draw(st.sampled_from([2, 3, 5]))
    entry = st.one_of(
        st.just(LaurentPoly.zero()),
        st.dictionaries(st.integers(min_value=-2, max_value=2), _wide_rationals(p), max_size=3).map(
            LaurentPoly
        ),
    )
    n_rows = draw(st.integers(min_value=1, max_value=4))
    n_cols = draw(st.integers(min_value=1, max_value=3))
    rows = [[draw(entry) for _ in range(n_cols)] for _ in range(n_rows)]
    shape = draw(st.sampled_from(["free", "dependent", "shared"]))
    if shape == "dependent" and n_rows >= 2:
        f = draw(entry)
        rows[-1] = [f * a for a in rows[0]]
    elif shape == "shared":
        f = draw(entry)
        rows = [[f * a for a in row] for row in rows]
    return p, tuple(tuple(row) for row in rows)


@SUITE
@given(wide_entry_matrices())
def test_integer_smith_and_bareiss_match_the_rational_oracles(case):
    # The integer eliminations run on L times the matrix, L the common
    # denominator; the divisor must be the rational Smith route's and the
    # content minimum the rational Bareiss route's less r * v_p(L).
    p, rows = case
    L, M = integer_matrix(rows)
    fraction_rows = tuple(tuple(oracle(f) for f in row) for row in rows)
    for r in range(1, min(len(rows), len(rows[0])) + 1):
        delta = normalize_associate(LaurentPoly.from_form(fitting._divisor([(M, ONE)], r)))
        assert oracle(delta) == fitting_oracle._smith_divisor(fraction_rows, r), r
        mu = fitting._content_minimum([(M, ONE)], r, p)
        mu = None if mu is None else mu - r * valuation(L, p)
        assert mu == fitting_oracle._least_content(fraction_rows, r, p), r
    if len(rows) == len(rows[0]):
        assert oracle(det_laurent(rows)) == fitting_oracle.fraction_det_laurent(fraction_rows)


# -- minors commute with evaluation ----------------------------------------------


def _frac_det(rows):
    rows = [list(r) for r in rows]
    n = len(rows)
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if rows[r][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            det = -det
        det *= rows[c][c]
        inv = 1 / rows[c][c]
        for r in range(c + 1, n):
            factor = rows[r][c] * inv
            if factor:
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[c])]
    return det


@SUITE
@given(
    st.lists(st.lists(laurent_polys, min_size=3, max_size=3), min_size=3, max_size=3),
    st.sampled_from([Fraction(1), Fraction(-1), Fraction(2), Fraction(4), Fraction(1, 4)]),
)
def test_det_commutes_with_evaluation(rows, a):
    M = tuple(tuple(r) for r in rows)
    symbolic = det_laurent(M).eval_at(a)
    numeric = _frac_det([[f.eval_at(a) for f in row] for row in M])
    assert symbolic == numeric


# -- zeros ------------------------------------------------------------------------


# Root values are kept within one period of 9 so that distinct roots are
# never congruent at the working precision and no descent bottoms out.
root_values = st.integers(min_value=-3, max_value=4).filter(lambda r: r != 0)


@SUITE
@given(st.lists(root_values, min_size=1, max_size=3), st.integers(min_value=2, max_value=5))
def test_integer_roots_reappear_padically(roots, budget):
    f = LaurentPoly.one()
    for r in roots:
        f = f * (LaurentPoly.gamma() - LaurentPoly({0: r}))
    found_rational = rational_roots(f)
    assert sorted({Fraction(r) for r in roots}) == [a for a, _ in found_rational]
    residues, obstructions = hensel_roots(f, 3, budget)
    assert obstructions == []
    for r in set(roots):
        assert r % 3**budget in residues


@SUITE
@given(st.lists(root_values, min_size=1, max_size=3), st.integers(min_value=3, max_value=6))
def test_padic_roots_relift_consistently(roots, budget):
    f = LaurentPoly.one()
    for r in roots:
        f = f * (LaurentPoly.gamma() - LaurentPoly({0: r}))
    high, _ = hensel_roots(f, 3, budget)
    low, _ = hensel_roots(f, 3, budget - 1)
    assert {r % 3 ** (budget - 1) for r in high} <= set(low)


@st.composite
def zp_root_problems(draw):
    """(f, p, budget): an integer polynomial at a small prime, the product of
    planted roots (simple unless two happen to meet mod p), a pair of roots
    congruent mod p (a multiple residue that lifts), (x - r)^2 - p*c (a
    multiple residue, obstructed when p*c is not a square in Z_p), a
    repeated rational factor, a factor p*x - s (leading coefficient divisible
    by p) and a random cofactor; each part but the last is optional."""
    p = draw(st.sampled_from([2, 3, 5, 7, 101]))

    def lin(a, b):
        return LaurentPoly({1: a, 0: -b})

    small = st.integers(min_value=-12, max_value=12)
    f = LaurentPoly.one()
    for r in draw(st.lists(small, max_size=3)):
        f = f * lin(1, r)
    for r, k in draw(st.lists(st.tuples(small, st.integers(-2, 2)), max_size=1)):
        f = f * lin(1, r) * lin(1, r + p * k)
    for r, c in draw(st.lists(st.tuples(small, st.integers(-4, 4)), max_size=1)):
        f = f * (lin(1, r) * lin(1, r) - LaurentPoly({0: p * c}))
    for r in draw(st.lists(small, max_size=1)):
        f = f * lin(1, r) * lin(1, r)
    for s in draw(st.lists(small, max_size=1)):
        f = f * lin(p, s)
    cofactor = draw(st.lists(st.integers(-5, 5), min_size=1, max_size=4).filter(lambda cs: cs[-1] != 0))
    f = f * LaurentPoly(dict(enumerate(cofactor)))
    return f, p, draw(st.integers(min_value=1, max_value=5))


@SUITE
@given(zp_root_problems())
@example((parse_laurent("g^2 + 3*g + 1"), 5, 8))
@example((parse_laurent("g^2 - 7"), 3, 3))
@example((parse_laurent("2*g^3 - g^2 - 18*g + 9"), 2, 4))
def test_hensel_roots_match_the_residue_scan(case):
    f, p, budget = case
    assert hensel_roots(f, p, budget) == scan_hensel_roots(f, p, budget)


@SUITE
@given(zp_root_problems())
def test_squarefree_certificate_matches_the_gcd_route(case):
    f, p, budget = case
    coeffs, sqf = _squarefree(f)
    if len(coeffs) == 1:
        return
    fbar = [c % p for c in coeffs]
    dbar = modp._trim([i * c % p for i, c in enumerate(fbar)][1:])
    if coeffs[-1] % p and len(modp.gcd(fbar, dbar, p)) == 1:
        assert sqf == coeffs
    expected = _zp_roots(sqf, p, budget)
    assert hensel_roots(f, p, budget) == expected


def _int_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


@st.composite
def shift_problems(draw):
    """(coeffs, p, r, a): ascending integer coefficients, not all divisible
    by p, of a random cofactor (degree 0 to 3) times optional parts: a root
    of multiplicity 2 or 3 mod p (its copies congruent mod p, not always
    equal), a rational root s/q and a factor p*x + c (leading coefficient
    divisible by p); a residue r in range(p), often the multiple one; and a
    rational point a, often the planted root."""
    p = draw(st.sampled_from([2, 3, 5, 7, 101]))
    small = st.integers(min_value=-12, max_value=12)
    coeffs = draw(st.lists(st.integers(-5, 5), min_size=1, max_size=4).filter(lambda cs: cs[-1] != 0))
    residues = list(range(p))
    for r0, m in draw(st.lists(st.tuples(small, st.integers(2, 3)), max_size=1)):
        for k in draw(st.lists(st.integers(-1, 1), min_size=m, max_size=m)):
            coeffs = _int_mul(coeffs, [-(r0 + p * k), 1])
        residues = [r0 % p]
    points = [Fraction(draw(small), draw(st.integers(1, 4)))]
    for s, q in draw(st.lists(st.tuples(small, st.integers(1, 4)), max_size=1)):
        coeffs = _int_mul(coeffs, [-s, q])
        points = [Fraction(s, q)]
    for c in draw(st.lists(small, max_size=1)):
        coeffs = _int_mul(coeffs, [c, p])
    while all(c % p == 0 for c in coeffs):
        coeffs = [c // p for c in coeffs]
    return coeffs, p, draw(st.sampled_from(residues)), draw(st.sampled_from(points))


@SUITE
@given(shift_problems())
@example(([4], 3, 1, Fraction(2)))
@example(([3, 7], 7, 0, Fraction(-3, 7)))
@example(([1, -2, 1], 2, 1, Fraction(1)))
@example(([-7, 0, 1], 2, 1, Fraction(7)))
def test_taylor_shift_and_linear_division_match_the_descending_helpers(case):
    """F(r + x) = sum c_i x^i scaled by p^i is the oracle's F(r + p*y), the
    least i with p not dividing c_i is its multiplicity of r mod p, and one
    synthetic division gives _horner's value and _deflate's quotient."""
    coeffs, p, r, a = case
    desc = coeffs[::-1]
    shifted = _taylor_shift(coeffs, r)
    assert [c * p**i for i, c in enumerate(shifted)] == _compose_affine(desc, r, p)[::-1]
    assert next(i for i, c in enumerate(shifted) if c % p) == _mult_mod_p(desc, r, p)
    quot, rem = _divide_linear(coeffs, a)
    assert rem == _horner(desc, a)
    assert quot[::-1] == (_deflate(desc, a) if len(coeffs) > 1 else [])


@st.composite
def planted_products(draw):
    """(f, planted): the product of planted linear factors q*x - s, each to
    a power 1 to 3, with a cofactor g of degree 0 to 3 (which may have
    rational zeros of its own), times a content, a unit g^k and a rational
    scalar; planted maps each s / q to the power it was planted with."""
    planted = {}
    coeffs = draw(st.lists(st.integers(-6, 6), min_size=1, max_size=4).filter(lambda cs: cs[0] and cs[-1]))
    for s, q, m in draw(
        st.lists(
            st.tuples(st.integers(-12, 12).filter(bool), st.integers(1, 6), st.integers(1, 3)),
            max_size=3,
        )
    ):
        for _ in range(m):
            coeffs = _int_mul(coeffs, [-s, q])
        root = Fraction(s, q)
        planted[root] = planted.get(root, 0) + m
    content = draw(st.sampled_from([1, -1, 2, 6]))
    form = (draw(st.integers(-3, 3)), tuple(content * c for c in coeffs))
    return LaurentPoly.from_form(form, draw(st.sampled_from([1, 1, 5, 12]))), planted


@SUITE
@given(planted_products())
@example((LaurentPoly.from_form((0, (-6, 1, 1))), {Fraction(2): 1, Fraction(-3): 1}))
@example((LaurentPoly.from_form((2, (4, -12, 9)), 7), {Fraction(2, 3): 2}))
@example((LaurentPoly.from_form((0, (5,))), {}))
@example((LaurentPoly.from_form((0, (30031, -30032, 1))), {Fraction(1): 1, Fraction(30031): 1}))
@example((LaurentPoly.from_form((0, (-7, 23, 30))), {Fraction(7, 30): 1, Fraction(-1): 1}))
@example((LaurentPoly.from_form((0, (-7, 15, -9, 1))), {Fraction(1): 2, Fraction(7): 1}))
def test_rational_roots_match_the_fraction_route(case):
    """The l-adic lift finds the roots and multiplicities that synthetic
    division over Fraction finds, every planted root among them with at
    least its planted multiplicity. The last three examples need a larger
    l: 30031 = 1 + 2*3*5*7*11*13 is congruent to 1 modulo every prime up to
    13, so l = 17; the leading coefficient 30 rules out 2, 3 and 5; and the
    double root 1 meets 7 modulo 2 and 3."""
    f, planted = case
    roots = rational_roots(f)
    assert roots == scan_rational_roots(f)
    found = dict(roots)
    for root, m in planted.items():
        assert found.get(root, 0) >= m


# -- crossed homomorphisms and extensions ------------------------------------------


@SUITE
@given(small_fractions, small_fractions, words)
def test_cocycle_evaluation_is_linear(c1, c2, w):
    rho = specialize(EG41, TRIVIAL3, Fraction(4))
    b1 = CrossedHom.from_flat((Fraction(1), Fraction(1), Fraction(0)), 1)
    b2 = CrossedHom.from_flat((Fraction(0), Fraction(0), Fraction(1)), 1)
    combo = b1.scale(c1) + b2.scale(c2)
    lhs = evaluate_cocycle(combo, rho, w)
    v1 = evaluate_cocycle(b1, rho, w)
    v2 = evaluate_cocycle(b2, rho, w)
    rhs = tuple(c1 * x + c2 * y for x, y in zip(v1, v2))
    assert lhs == rhs


@SUITE
@given(small_fractions, small_fractions, st.booleans(), st.integers(min_value=0, max_value=2))
def test_verification_iff_nullspace_membership(c1, c2, poison, which):
    flat = [
        c1 * x + c2 * y
        for x, y in zip((Fraction(1), Fraction(1), Fraction(0)), (Fraction(0), Fraction(0), Fraction(1)))
    ]
    if poison:
        flat[which] += 1
    beta = CrossedHom.from_flat(tuple(flat), 1)
    Qa = Q41.specialize(Fraction(4))
    in_null = all(sum(r * x for r, x in zip(row, flat)) == 0 for row in Qa)
    cand = build_extension(EG41, TRIVIAL3, Fraction(4), beta)
    assert verify_factors(cand, EG41).ok == in_null


@SUITE
@given(
    st.sampled_from([Fraction(1), Fraction(2), Fraction(4), Fraction(7), Fraction(1, 4)]),
    st.integers(min_value=1, max_value=3),
)
def test_extension_count_biconditional(a, k):
    result = extension_count_criterion(EG41, TRIVIAL3, a, k=k)
    assert result.meets_k == is_zero_of_delta(Q41, k - 1, a)
    assert result.meets_k == (result.dim >= k)


@SUITE
@given(small_fractions, small_fractions, words)
def test_principal_cocycles_evaluate_as_differences(c1, c2, w):
    rho = specialize(EG41, TRIVIAL3, Fraction(4))
    v = (c1 + c2,)
    beta_values = [
        tuple(x - y for x, y in zip(mat_vec(M, v), v)) for M in rho.mats
    ]
    beta = CrossedHom.from_flat(tuple(x for vec in beta_values for x in vec), 1)
    value = evaluate_cocycle(beta, rho, w)
    rw = evaluate_word(rho, w)
    expected = tuple(x - y for x, y in zip(mat_vec(rw, v), v))
    assert value == expected


@st.composite
def point_reps(draw):
    """specialize or build_extension images of EG41, under the trivial
    representation or eg44, at a nonzero rational point of either sign."""
    phi = draw(st.sampled_from([TRIVIAL3, EG44]))
    a = draw(st.fractions(min_value=-9, max_value=9, max_denominator=9).filter(lambda q: q != 0))
    if draw(st.booleans()):
        return specialize(EG41, phi, a)
    flat = draw(st.lists(small_fractions, min_size=3 * phi.dim, max_size=3 * phi.dim))
    return build_extension(EG41, phi, a, CrossedHom.from_flat(flat, phi.dim))


@st.composite
def words_with_repeats(draw):
    """Words of one to ten syllables drawn from a pool of two to four, with
    exponents up to 40, so one syllable often recurs."""
    pool = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=2),
                st.integers(min_value=-40, max_value=40).filter(lambda e: e != 0),
            ),
            min_size=2,
            max_size=4,
        )
    )
    return Word.of(draw(st.lists(st.sampled_from(pool), min_size=1, max_size=10)))


@SUITE
@given(point_reps(), words_with_repeats())
@example(specialize(EG41, EG44, Fraction(-3, 2)), Word())
@example(build_extension(EG41, TRIVIAL3, Fraction(1, 4), CrossedHom.from_flat((1, 2, 3), 1)), Word())
def test_evaluate_word_matches_fraction_syllable_product(rho, w):
    ident = oracle_identity(rho.dim)
    expected = ident
    for g, e in w.syllables:
        expected = mat_mul(expected, mat_pow(rho.mats[g] if e > 0 else rho.invs[g], abs(e), ident))
    assert evaluate_word(rho, w) == expected


def _point_candidate(pres, phi, a, flat):
    """(pres, rho, images, inverses): specialize(pres, phi, a), or its
    extension by flat when flat is not None, with the images and inverses
    built over Fraction: a^alpha_i phi(g_i) and the corner
    [[a^alpha_i phi(g_i), b_i], [0, 1]] with inverse [[M^-1, -M^-1 b_i], [0, 1]]."""
    images = [tuple(tuple(a**e * x for x in row) for row in M) for e, M in zip(pres.alpha, phi.images)]
    inverses = [oracle_inverse(M) for M in images]
    if flat is None:
        return pres, specialize(pres, phi, a), images, inverses
    beta = CrossedHom.from_flat(flat, phi.dim)
    last = (Fraction(0),) * phi.dim + (Fraction(1),)
    images = [tuple((*row, y) for row, y in zip(M, b)) + (last,) for M, b in zip(images, beta.vectors)]
    inverses = [
        tuple((*row, -sum(x * y for x, y in zip(row, b))) for row in M) + (last,)
        for M, b in zip(inverses, beta.vectors)
    ]
    return pres, build_extension(pres, phi, a, beta), images, inverses


two_generator_words = st.lists(
    st.tuples(st.integers(min_value=0, max_value=1), st.integers(min_value=-3, max_value=3).filter(bool)),
    max_size=4,
).map(Word.of)


@st.composite
def point_candidates(draw):
    """A presentation on two generators with weights 1, -1 or 2 and one to
    three relators, and a one- or two-dimensional upper triangular
    representation specialized at a point, or extended there by a random
    assignment (see _point_candidate). A relator is a random word, a
    commutator, which every scalar image kills, or one generator power,
    whose scalar image at a = 1/2 can be I/2^k: the identity's rows over a
    denominator."""
    ell = draw(st.integers(min_value=1, max_value=2))
    diagonal = st.sampled_from([Fraction(1), Fraction(2), Fraction(-1), Fraction(1, 3), Fraction(3, 2)])
    images = []
    for _ in range(2):
        if ell == 1:
            images.append(((draw(diagonal),),))
        else:
            images.append(((draw(diagonal), draw(small_fractions)), (Fraction(0), draw(diagonal))))
    relators = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        kind = draw(st.sampled_from(["word", "commutator", "power"]))
        if kind == "word":
            w = draw(two_generator_words)
        elif kind == "commutator":
            u, v = draw(two_generator_words), draw(two_generator_words)
            w = u.inverse() * v.inverse() * u * v
        else:
            w = Word.of([(draw(st.integers(min_value=0, max_value=1)), draw(st.sampled_from([1, -1, 2])))])
        relators.append(Relator(w))
    alpha = tuple(draw(st.sampled_from([1, -1, 2])) for _ in range(2))
    pres = Presentation(3, ("a", "b"), tuple(relators), alpha)
    a = draw(st.sampled_from([Fraction(1, 2), Fraction(2), Fraction(-1, 3), Fraction(1), Fraction(3, 4)]))
    flat = None
    if draw(st.booleans()):
        flat = tuple(draw(st.lists(small_fractions, min_size=2 * ell, max_size=2 * ell)))
    return _point_candidate(pres, Representation(ell, tuple(images)), a, flat)


@SUITE
@given(point_candidates())
@example(
    _point_candidate(
        Presentation(3, ("a", "b"), (Relator(Word.of([(0, 1)])),), (1, 1)),
        Representation(1, (((Fraction(1),),), ((Fraction(1),),))),
        Fraction(1, 2),
        None,
    )
)
def test_relator_checks_match_fraction_products(case):
    """The scaled images are the Fraction images, the coboundary view is
    their blocks minus I, and each relator check reports the Fraction
    product of its syllables, ok exactly when that product is the
    identity."""
    pres, rho, images, inverses = case
    assert rho.mats == tuple(images) and rho.invs == tuple(inverses)
    ident = oracle_identity(rho.dim)
    assert coboundary_matrix(rho) == tuple(
        tuple(x - y for x, y in zip(row, unit)) for M in images for row, unit in zip(M, ident)
    )
    report = verify_factors(rho, pres)
    expected_ok = []
    for rel, check in zip(pres.relators, report.relators, strict=True):
        expected = ident
        for g, e in rel.flatten().syllables:
            expected = mat_mul(expected, mat_pow(images[g] if e > 0 else inverses[g], abs(e), ident))
        assert check.image == expected
        assert check.ok == (expected == ident)
        expected_ok.append(check.ok)
    assert report.ok == all(expected_ok)


@st.composite
def matrix_pairs(draw):
    """Fraction matrices A (n x m) and B (m x k), 1 <= n, m, k <= 3, each
    with integer entries (denominator 1) or small fractions."""
    n, m, k = (draw(st.integers(min_value=1, max_value=3)) for _ in range(3))

    def matrix(rows, cols):
        entries = small_fractions if draw(st.booleans()) else st.integers(-9, 9).map(Fraction)
        row = st.lists(entries, min_size=cols, max_size=cols)
        return freeze(draw(st.lists(row, min_size=rows, max_size=rows)))

    return matrix(n, m), matrix(m, k)


@SUITE
@given(matrix_pairs())
@example((((Fraction(2), Fraction(-1)),), ((Fraction(1),), (Fraction(4),))))
@example((((Fraction(1, 2), Fraction(1)),), ((Fraction(2),), (Fraction(2, 3),))))
def test_scaled_product_matches_the_fraction_product(pair):
    """scaled_mul of the scaled factors is the scaled Fraction product, in
    lowest terms, over denominator 1 and over larger ones."""
    A, B = pair
    rows, den = scaled_mul(to_scaled(A), to_scaled(B))
    assert (freeze(rows), den) == to_scaled(mat_mul(A, B))


# -- per-point memos -------------------------------------------------------------

NON_FACTORING = Representation(1, (((Fraction(2),),), ((Fraction(1),),), ((Fraction(1),),)))
POINT_PAIRS = [
    (EG41, TRIVIAL3),
    (EG41, EG44),
    (EG41, corpus.load_representation("eg45.rep", EG41)),
    (EG41, corpus.load_representation("eg55.rep", EG41)),
    (EG41, NON_FACTORING),
] + [
    (pres, Representation.trivial(pres.n_generators))
    for pres in map(corpus.load_presentation, ("eg42.pres", "eg43.pres", "eg43split.pres"))
]
# zeros of the pairs' divisors (1, 4, -3, 3, 6, 11, 1/4), points off them,
# and 0; integral points come in both spellings, 4 and Fraction(4)
MEMO_POINTS = (0, 1, 4, -2, -3, 3, 6, 11, Fraction(1, 4), Fraction(-1, 2))
memo_points = st.tuples(st.sampled_from(MEMO_POINTS), st.booleans()).map(
    lambda t: Fraction(t[0]) if t[1] else t[0]
)


def _extension_verified(pres, phi, a):
    space = cocycle_space(pres, phi, a)
    beta = space.basis[0] if space.basis else CrossedHom(
        space.ell, ((Fraction(0),) * space.ell,) * pres.n_generators
    )
    cand = build_extension(pres, phi, a, beta)
    return cand.scaled, cand.scaled_invs, verify_factors(cand, pres)


def _specialized(pres, phi, a):
    rho = specialize(pres, phi, a)
    return rho.a, rho.dim, rho.scaled, rho.scaled_invs, rho.factors_through()


POINT_CALLS = {
    "is_zero_of_delta": lambda pres, phi, a, d: is_zero_of_delta(alexander_matrix(pres, phi), d, a),
    "rank_at": lambda pres, phi, a, d: rank_at(alexander_matrix(pres, phi), a),
    "cocycle_space": lambda pres, phi, a, d: cocycle_space(pres, phi, a),
    "specialize": lambda pres, phi, a, d: _specialized(pres, phi, a),
    "extension": lambda pres, phi, a, d: _extension_verified(pres, phi, a),
    "h1_report": lambda pres, phi, a, d: h1_report(pres, phi, a),
    "theorem_audit": lambda pres, phi, a, d: theorem_audit(pres, phi, a),
    "extension_count_criterion": lambda pres, phi, a, d: extension_count_criterion(
        pres, phi, a, d + 1
    ),
}
point_steps = st.tuples(
    st.sampled_from(sorted(POINT_CALLS)),
    st.sampled_from(range(len(POINT_PAIRS))),
    memo_points,
    st.integers(min_value=0, max_value=3),
)


def _empty_point_memos():
    fitting._nullspace_at.cache_clear()
    extensions.specialize.cache_clear()
    extensions.cocycle_space.cache_clear()
    cohomology.h1_report.cache_clear()


def _outcome(name, pair, a, d):
    pres, phi = POINT_PAIRS[pair]
    try:
        return "value", POINT_CALLS[name](pres, phi, a, d)
    except (DivisionByZero, HypothesisViolated) as exc:
        return type(exc), str(exc)


@SUITE
@given(st.lists(point_steps, min_size=1, max_size=8))
@example([("rank_at", 0, 4, 1), ("rank_at", 0, Fraction(-2), 1)])
@example([("specialize", 0, 4, 0), ("h1_report", 4, Fraction(4), 0)])
def test_point_memos_answer_as_an_empty_memo_does(steps):
    """Every call in a sequence that reuses points gives what the same call
    gives with every per-point memo emptied before it, errors included."""
    _empty_point_memos()
    warm = [_outcome(*step) for step in steps]
    for step, seen in zip(steps, warm):
        name, pair, a, d = step
        if a == 0 and name not in ("rank_at", "theorem_audit"):
            assert seen[0] is DivisionByZero, step
        elif POINT_PAIRS[pair][1] is NON_FACTORING and name == "h1_report":
            assert seen[0] is HypothesisViolated, step
        _empty_point_memos()
        assert _outcome(*step) == seen, step


# -- words by runs of a repeated block ---------------------------------------


@st.composite
def powered_words(draw):
    """u * w^n * v with short u and v, a core w of two to four syllables,
    often conjugated (x * c * x^-1, whose power is x * c^n * x^-1), and
    0 < |n| <= 60."""
    core = draw(st.lists(syllables, min_size=2, max_size=4).map(Word.of))
    if draw(st.booleans()):
        x = draw(words)
        core = x * core * x.inverse()
    n = draw(st.integers(min_value=-60, max_value=60).filter(bool))
    return draw(words) * core**n * draw(words)


@SUITE
@given(
    st.one_of(words, powered_words(), st.tuples(powered_words(), powered_words())),
    st.tuples(*[st.integers(min_value=-3, max_value=3)] * 3),
)
@example(parse_word("[x0^2,(x1*x0^-1)^9]", ("x0", "x1", "x2")), (1, 1, 1))
def test_runs_expand_to_the_syllables(w, alpha):
    """Expanding the runs gives back the syllables, in blocks of at most
    _RUN_BLOCK syllables, and the degree range read off the runs is that
    of the syllable-by-syllable prefix walk."""
    if isinstance(w, tuple):
        w = w[0] * w[1]
    expanded = tuple(syll for block, count in w.runs for _ in range(count) for syll in block)
    assert expanded == w.syllables
    for block, count in w.runs:
        assert 1 <= len(block) <= _RUN_BLOCK and count >= 1
        # a block that does not repeat is a single syllable
        assert count > 1 or len(block) == 1
    degrees = [0]
    for g, e in w.syllables:
        degrees.append(degrees[-1] + alpha[g] * e)
    assert _degree_range(alpha, w) == (min(degrees), max(degrees))


@SUITE
@given(point_reps(), powered_words())
def test_scaled_image_matches_the_syllable_product(rho, w):
    assert scaled_image(rho, w) == syllable_scaled_image(rho, w)


@st.composite
def powered_block_presentations(draw):
    """Three generators a, b, c and one or two relators u * w^n * v with
    0 < |n| <= 12. phi(b) is phi(a)^-1, phi(a) or a random image, and
    phi(c) is I or a random image; a block a^e b^e, a^e b^-e, a^e c^f b^e
    or a random one of two to four syllables then often has the identity
    image, with an identity syllable inside when phi(c) = I. The weights
    give blocks of zero and of nonzero degree."""
    ell = draw(st.sampled_from([1, 2]))
    entries = st.lists(small_fractions, min_size=ell * ell, max_size=ell * ell)
    invertible = entries.map(lambda xs: freeze([xs[r * ell:(r + 1) * ell] for r in range(ell)])).filter(
        lambda M: (M[0][0] if ell == 1 else M[0][0] * M[1][1] - M[0][1] * M[1][0]) != 0
    )
    A = draw(invertible)
    B = draw(st.sampled_from([oracle_inverse(A), A, draw(invertible)]))
    C = draw(st.sampled_from([oracle_identity(ell), draw(invertible)]))
    alpha_a = draw(st.sampled_from([1, -1, 2]))
    alpha = (alpha_a, draw(st.sampled_from([alpha_a, -alpha_a, 1])), draw(st.sampled_from([1, 0, -2])))
    relators = []
    for _ in range(draw(st.integers(min_value=1, max_value=2))):
        e = draw(st.sampled_from([1, -1, 2]))
        f = draw(st.sampled_from([1, -2]))
        block = draw(
            st.sampled_from(
                [
                    Word(((0, e), (1, e))),
                    Word(((0, e), (1, -e))),
                    Word(((0, e), (2, f), (1, e))),
                    draw(st.lists(syllables, min_size=2, max_size=4).map(Word.of)),
                ]
            )
        )
        n = draw(st.integers(min_value=-12, max_value=12).filter(bool))
        relators.append(Relator(draw(words) * block**n * draw(words), draw(words)))
    return Presentation(3, ("a", "b", "c"), tuple(relators), alpha), Representation(ell, (A, B, C))


def _powered_block_case(B, alpha, n):
    """The relator (a*c^2*b^-1)^n * a^-1 under a = [[2, 1], [0, 1]], b = B
    and c = I: the identity syllable c^2 sits inside a block whose image
    is the identity when B is a's image, and not otherwise."""
    A, B = (freeze([[Fraction(x) for x in row] for row in M]) for M in ([[2, 1], [0, 1]], B))
    word = Word(((0, 1), (2, 2), (1, -1))) ** n * Word(((0, -1),))
    rep = Representation(2, (A, B, oracle_identity(2)))
    return Presentation(3, ("a", "b", "c"), (Relator(word),), alpha), rep


def _inverse_pair_case(alpha, text):
    """The relator text under a = [[2, 1], [0, 1]], b = a^-1 and c = I, so
    that the blocks a*b, a^-1*b^-1 and a*c^2*b have the identity image."""
    A = freeze([[Fraction(2), Fraction(1)], [Fraction(0), Fraction(1)]])
    rep = Representation(2, (A, oracle_inverse(A), oracle_identity(2)))
    word = parse_word(text, ("a", "b", "c"))
    return Presentation(3, ("a", "b", "c"), (Relator(word),), alpha), rep


@SUITE
@given(powered_block_presentations())
@example(_powered_block_case([[2, 1], [0, 1]], (1, 1, 1), 5))
@example(_powered_block_case([[2, 1], [0, 1]], (1, 2, -1), -4))
@example(_powered_block_case([[1, 1], [1, 2]], (1, 1, 1), 5))
# the least prefix degree is -3, and c is absent from the relator
@example(_inverse_pair_case((1, 1, 1), "b^-3*(a*b)^3"))
# a block of degree -2 whose lowest copy lands at index 0
@example(_inverse_pair_case((1, 1, 1), "(a^-1*b^-1)^4"))
# block degrees 1 and -1, the second with its lowest copy at index 0
@example(_inverse_pair_case((2, -1, 1), "(a*b)^5*c"))
@example(_inverse_pair_case((-1, 2, 1), "(a^-1*b^-1)^5"))
# weights other than 1, with the identity syllable c^2 inside the block
@example(_inverse_pair_case((3, -1, -2), "b^2*(a*c^2*b)^6*c^-1"))
def test_relation_matrix_with_powered_blocks_matches_the_fraction_pass(case):
    """The relation matrix matches the Fraction pass, and so does every
    block fox_derivative_matrix gives, the other caller of the walk."""
    pres, rep = case
    Q = _relation_matrix.__wrapped__(pres, rep)
    assert Q.entries == tuple(
        tuple(LaurentPoly(cell) for cell in row)
        for rel in pres.relators
        for row in fraction_fox_pass(pres.alpha, rep.images, tuple(map(oracle_inverse, rep.images)), rel.flatten())
    )
    for j, rel in enumerate(pres.relators):
        for i in range(pres.n_generators):
            assert fox_derivative_matrix(pres, rep, rel.flatten(), i) == Q.block(j, i)


@SUITE
@given(st.integers(min_value=-10, max_value=10**8))
@example(561)
@example(2047)
@example(3215031751)
@example((2**13 - 1) ** 2)
def test_miller_rabin_matches_trial_division(n):
    expected = n >= 2 and all(n % q for q in range(2, math.isqrt(n) + 1))
    assert _is_prime(n) == expected
