"""Free derivatives, geometric sums, and the relation matrix."""

import sys
from fractions import Fraction

import pytest

from propfox import (
    HypothesisViolated,
    NotInvertible,
    ParseError,
    Representation,
    fox_derivative_matrix,
    format_representation,
    parse_laurent,
    parse_presentation,
    parse_representation,
    parse_word,
)
from propfox import LaurentPoly, alexander_matrix, corpus, fox
from propfox.errors import InputTooLarge
from propfox.fox import _check_span, _degree_range, _relation_matrix
from propfox.matrices import freeze

from laurent_fox import (
    LaurentTensorRep,
    fraction_fox_pass,
    geometric_sum,
    laurent_alexander_matrix,
    laurent_evaluate_word,
    mat_pow,
)
from laurent_oracle import integer_matrix
from matrices_oracle import mat_mul, oracle_identity, oracle_inverse


def L(text):
    return parse_laurent(text)


def test_parse_representation(eg41, eg44rep):
    assert eg44rep.dim == 2
    expected = freeze([[Fraction(4), Fraction(1)], [Fraction(0), Fraction(1)]])
    assert eg44rep.images == (expected, expected, expected)
    again = parse_representation(format_representation(eg44rep, eg41), eg41)
    assert again == eg44rep


def test_format_representation_prints_past_the_int_to_str_limit(eg41):
    """At Python's default limit of 4,300 digits, a 5,000-digit entry and a
    5,000-digit denominator print in full."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("no int-to-str digit limit in this interpreter")
    big = 10**5000
    rep = Representation(1, (((Fraction(big),),), ((Fraction(1, big + 1),),), ((Fraction(-2, 3),),)))
    saved = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(0)
        expected = f"dim 1\nmatrix g1\n{big}\nmatrix g2\n1/{big + 1}\nmatrix g3\n-2/3\n"
        sys.set_int_max_str_digits(4300)
        assert format_representation(rep, eg41) == expected
    finally:
        sys.set_int_max_str_digits(saved)


def test_parse_representation_errors(eg41):
    with pytest.raises(ParseError):
        parse_representation("dim 2\nmatrix g1\n1 0\n", eg41)
    with pytest.raises(ParseError):
        parse_representation("dim 2\nmatrix nope\n1 0\n0 1\n", eg41)
    singular = (
        "dim 2\n"
        + "".join(f"matrix g{i}\n1 1\n1 1\n" for i in (1, 2, 3))
    )
    with pytest.raises(NotInvertible):
        parse_representation(singular, eg41)


def test_trivial_representation():
    t = Representation.trivial(3)
    assert t.dim == 1
    assert t.dim == 1 and all(M[0][0] == 1 for M in t.images)
    assert t.images == ((( Fraction(1),),),) * 3


def test_geometric_sum_positive():
    M = freeze([[Fraction(4), Fraction(1)], [Fraction(0), Fraction(1)]])
    ident = oracle_identity(2)
    for n in range(0, 9):
        direct = ident
        total = None
        for t in range(n):
            term = mat_pow(M, t, ident)
            total = term if total is None else tuple(
                tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(total, term)
            )
        if n == 0:
            expected = tuple(tuple(Fraction(0) for _ in row) for row in ident)
        else:
            expected = total
        assert geometric_sum(M, n, ident) == expected


def test_geometric_sum_negative():
    M = freeze([[Fraction(4), Fraction(1)], [Fraction(0), Fraction(1)]])
    ident = oracle_identity(2)
    Minv = oracle_inverse(M)
    for n in range(1, 6):
        # the negative branch is minus the sum of the inverse powers -n..-1
        direct = None
        for t in range(-n, 0):
            term = mat_pow(Minv, -t, ident)
            direct = term if direct is None else tuple(
                tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(direct, term)
            )
        negated = tuple(tuple(-x for x in row) for row in direct)
        assert geometric_sum(M, -n, ident, Minv) == negated
    with pytest.raises(NotInvertible):
        geometric_sum(M, -2, ident)


def test_fox_derivative_generator_rules(eg41):
    phi = Representation.trivial(3)
    gens = eg41.generators
    one = LaurentPoly.one()
    zero = LaurentPoly.zero()
    w = parse_word("g1", gens)
    assert fox_derivative_matrix(eg41, phi, w, 0) == ((one,),)
    assert fox_derivative_matrix(eg41, phi, w, 1) == ((zero,),)
    winv = parse_word("g1^-1", gens)
    assert fox_derivative_matrix(eg41, phi, winv, 0) == ((-L("g^-1"),),)


def test_fox_product_rule_spot(eg41):
    phi = Representation.trivial(3)
    rep = LaurentTensorRep(eg41, phi)
    gens = eg41.generators
    u = parse_word("g1*g2^-2", gens)
    v = parse_word("g3^2*g1", gens)
    for i in range(3):
        lhs = fox_derivative_matrix(eg41, phi, u * v, i)
        ru = laurent_evaluate_word(rep, u)
        rhs = fox_derivative_matrix(eg41, phi, u, i)
        rhs = tuple(
            tuple(a + b for a, b in zip(ra, rb))
            for ra, rb in zip(rhs, mat_mul(ru, fox_derivative_matrix(eg41, phi, v, i)))
        )
        assert lhs == rhs


def test_evaluate_word_commutator_is_identity(eg41):
    rep = LaurentTensorRep(eg41, Representation.trivial(3))
    w = parse_word("[g1,g2]", eg41.generators)
    assert laurent_evaluate_word(rep, w) == rep.identity()


def test_alexander_matrix_eg41(eg41):
    Q = alexander_matrix(eg41)
    assert (Q.n_rows, Q.n_cols, Q.block_dim) == (4, 3, 1)
    assert Q.entries[0] == (L("-9"), L("9"), L("0"))
    assert Q.entries[2] == (L("g - 1"), L("-g + 1"), L("0"))
    assert Q.entries[3] == (L("-g + 7"), L("-3"), L("g - 4"))


def test_alexander_matrix_tensor_shape(eg41, eg44rep):
    Q = alexander_matrix(eg41, eg44rep)
    assert (Q.n_rows, Q.n_cols, Q.block_dim) == (8, 6, 2)
    block = Q.block(0, 0)
    assert block == ((L("-9"), L("0")), (L("0"), L("-9")))


def test_alexander_matrix_rejects_invalid():
    bad = parse_presentation("prime 3\ngenerators a b\nrelator a^3")
    with pytest.raises(HypothesisViolated) as exc:
        alexander_matrix(bad)
    assert "relator 1 has total degree 3" in str(exc.value)
    Q = _relation_matrix(bad, Representation.trivial(2))
    assert Q.n_rows == 1


def test_alexander_matrix_raises_on_every_call(relation_memo):
    bad = parse_presentation("prime 3\ngenerators a b\nrelator a^3")
    for _ in range(2):
        with pytest.raises(HypothesisViolated):
            alexander_matrix(bad)
    assert relation_memo.cache_info().misses == 0


def test_equal_objects_built_separately_compare_and_hash_equal():
    """Presentation, Representation and AlexanderMatrix keep their hash
    after the first call; objects built apart from the same text still
    compare and hash equal, and a different one compares unequal."""
    text = "prime 3\ngenerators a b\nrelator [a^2,(b*a^-1)^5]\nrelator a^3*b^-3\n"
    rep_text = "dim 2\nmatrix a\n4 1\n0 1\nmatrix b\n4 1/2\n0 1\n"
    built = []
    for _ in range(2):
        pres = parse_presentation(text)
        rep = parse_representation(rep_text, pres)
        built.append((pres, rep, _relation_matrix.__wrapped__(pres, rep)))
    for first, second in zip(*built):
        assert first is not second
        assert first == second and hash(first) == hash(second)
        assert hash(first) == hash(first) == vars(first)["_hash"]
    other = parse_presentation(text.replace("a^3*b^-3", "a^4*b^-4"))
    assert other != built[0][0]


def test_the_span_bound_admits_a_million_and_refuses_ten_million():
    """The span is read off each relator's least and greatest prefix
    degree: a^N * b^-N spans N + 1 exponents in each of its 2 entries.
    alexander_matrix and fox_derivative_matrix both refuse N = 10^7."""
    for n, ok in ((1_000_000, True), (10_000_000, False)):
        pres = parse_presentation(f"prime 3\ngenerators a b\nrelator a^{n}*b^-{n}\n")
        word = pres.relators[0].flatten()
        assert _degree_range(pres.alpha, word) == (0, n)
        if ok:
            _check_span(pres.alpha, (word,), 2, 1)
            continue
        with pytest.raises(InputTooLarge, match="spans 20000002 coefficients: the limit is 4194304"):
            alexander_matrix(pres)
        with pytest.raises(InputTooLarge):
            fox_derivative_matrix(pres, Representation.trivial(2), word, 0)


def test_alexander_matrix_default_rep_is_the_trivial_one(eg41):
    assert alexander_matrix(eg41) is alexander_matrix(eg41, Representation.trivial(3))


def test_specialize_matrix(eg41):
    Q = alexander_matrix(eg41)
    Qa = Q.specialize(Fraction(4))
    assert Qa[3] == (Fraction(3), Fraction(-3), Fraction(0))


def test_alexander_matrix_matches_laurent_route_on_corpus():
    pairs = 0
    for name in ("eg41.pres", "eg42.pres", "eg43.pres", "eg43split.pres"):
        pres = corpus.load_presentation(name)
        reps = [Representation.trivial(pres.n_generators)]
        if pres.n_generators == 3:
            reps += [corpus.load_representation(r, pres) for r in ("eg44.rep", "eg45.rep", "eg55.rep")]
        for rep in reps:
            assert alexander_matrix(pres, rep) == laurent_alexander_matrix(pres, rep)
            pairs += 1
    assert pairs == 10


def test_fox_derivative_matrix_is_a_block_of_the_relation_matrix(eg41, eg44rep):
    Q = alexander_matrix(eg41, eg44rep)
    for j, rel in enumerate(eg41.relators):
        for i in range(eg41.n_generators):
            assert fox_derivative_matrix(eg41, eg44rep, rel.flatten(), i) == Q.block(j, i)


@pytest.mark.parametrize("gen", [3, -1, -3])
def test_fox_derivative_matrix_rejects_a_generator_out_of_range(eg41, gen):
    # eg41 has 3 generators; a negative index must not wrap around to a block
    word = eg41.relators[0].flatten()
    with pytest.raises(ValueError, match="generator"):
        fox_derivative_matrix(eg41, Representation.trivial(3), word, gen)


def test_fox_derivative_matrix_leaves_the_relation_memo_alone(relation_memo, eg41, eg44rep):
    alexander_matrix(eg41, eg44rep)
    assert relation_memo.cache_info().currsize == 1
    for i in range(eg41.n_generators):
        fox_derivative_matrix(eg41, eg44rep, eg41.relators[0].flatten(), i)
    assert relation_memo.cache_info().currsize == 1


def test_fox_derivative_matrix_checks_shape_then_generator_then_span():
    pres = parse_presentation("prime 3\ngenerators a b\nrelator a^10000000*b^-10000000\n")
    word = pres.relators[0].flatten()
    with pytest.raises(ValueError, match="does not match the generator count"):
        fox_derivative_matrix(pres, Representation.trivial(3), word, 5)
    with pytest.raises(ValueError, match="no generator 5"):
        fox_derivative_matrix(pres, Representation.trivial(2), word, 5)
    with pytest.raises(InputTooLarge):
        fox_derivative_matrix(pres, Representation.trivial(2), word, 0)


def test_relation_matrix_entries_match_the_checked_constructor():
    # The relation matrix is built by the integer Fox pass; on every corpus
    # matrix its entries must equal the checked constructor's on the sums of
    # the Fraction pass, with only nonzero Fraction coefficients, and its
    # scale must be the least common denominator of those entries.
    for entry in corpus.ENTRIES:
        pres = corpus.load_presentation(entry.presentation)
        if entry.representation is None:
            rep = Representation.trivial(pres.n_generators)
        else:
            rep = corpus.load_representation(entry.representation, pres)
        checked = [
            LaurentPoly(cell)
            for rel in pres.relators
            for row in fraction_fox_pass(pres.alpha, rep.images, tuple(map(oracle_inverse, rep.images)), rel.flatten())
            for cell in row
        ]
        Q = alexander_matrix(pres, rep)
        built = [f for row in Q.entries for f in row]
        assert built == checked, entry.entry_id
        assert all(type(c) is Fraction and c for f in built for c in f.terms.values())
        assert Q.scale == integer_matrix(Q.entries)[0], entry.entry_id


@pytest.mark.parametrize(
    ("rep_text", "calls"),
    [(None, 2), ("dim 2\nmatrix a\n2 1\n0 1\nmatrix b\n1 1\n1 2\n", 6000)],
    ids=["trivial", "dim-2"],
)
def test_a_syllable_is_walked_once_when_its_image_is_the_identity(monkeypatch, rep_text, calls):
    """a^3000 is 3000 copies of the one-letter block a: under the trivial
    representation each syllable's contributions are added in one call,
    over a range of 3000 offsets; under images other than I every letter
    is walked."""
    pres = parse_presentation("prime 3\ngenerators a b\nrelator a^3000*b^-3000\n")
    rep = Representation.trivial(2) if rep_text is None else parse_representation(rep_text, pres)
    count = 0
    add_image = fox._add_image

    def counted(*args):
        nonlocal count
        count += 1
        return add_image(*args)

    monkeypatch.setattr(fox, "_add_image", counted)
    Q = _relation_matrix.__wrapped__(pres, rep)
    assert count == calls
    assert Q.entries == tuple(
        tuple(LaurentPoly(cell) for cell in row)
        for rel in pres.relators
        for row in fraction_fox_pass(pres.alpha, rep.images, tuple(map(oracle_inverse, rep.images)), rel.flatten())
    )
