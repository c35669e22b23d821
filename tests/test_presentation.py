"""Word algebra, presentation files, and the weight/degree hypotheses."""

import time

import pytest

from propfox import (
    DuplicateGenerator,
    ParseError,
    Presentation,
    Relator,
    UnknownGenerator,
    Word,
    ZeroExponent,
    format_presentation,
    format_word,
    parse_presentation,
    parse_word,
    total_degree,
    validate_presentation,
)

from propfox.errors import InputTooLarge
from propfox.scalars import MAX_WORD_SYLLABLES

from parser_oracle import COMMITTED, oracle_presentation

GENS = ("a", "b", "c")


def W(text):
    return parse_word(text, GENS)


def test_parse_word_basics():
    assert W("a") == Word.of([(0, 1)])
    assert W("a^3") == Word.of([(0, 3)])
    assert W("a^-2*b") == Word.of([(0, -2), (1, 1)])
    assert W("(a*b)^2") == Word.of([(0, 1), (1, 1), (0, 1), (1, 1)])
    assert W("a*a") == Word.of([(0, 2)])
    assert W("a*a^-1") == Word.of([])
    assert W("()") == Word.of([])


def test_parse_word_commutator():
    assert W("[a,b]") == W("a^-1*b^-1*a*b")
    assert W("[a,b]^-1") == W("b^-1*a^-1*b*a")


def test_parse_word_errors():
    with pytest.raises(ZeroExponent):
        W("a^0")
    with pytest.raises(UnknownGenerator):
        W("z")
    with pytest.raises(ParseError):
        W("a*(b")
    with pytest.raises(ParseError):
        W("a^b")
    with pytest.raises(ParseError):
        W("")
    # only identifiers index generators, so no name can match "1" or the end
    with pytest.raises(ParseError, match="expected a generator"):
        parse_word("1", ("1",))
    with pytest.raises(ParseError, match="unexpected end of word"):
        parse_word("a*", ("a", ""))


def test_word_algebra():
    u, v = W("a*b^2"), W("b^-2*c")
    assert u * v == W("a*c")
    assert (u * v) * W("c^-1") == W("a")
    assert u * u.inverse() == Word.of([])
    assert u.inverse() == W("b^-2*a^-1")
    assert W("a*b") ** 3 == W("a*b*a*b*a*b")
    assert W("a*b") ** -1 == W("b^-1*a^-1")
    assert W("a*b") ** 0 == Word.of([])
    assert sum(abs(e) for _, e in W("a^2*b").syllables) == 3


def test_format_word_round_trip():
    for text in ["a", "a^3*b^-1", "()", "a*b*c^-4"]:
        w = W(text)
        assert parse_word(format_word(w, GENS), GENS) == w


def test_parse_presentation_full():
    text = """
# weighted presentation
prime 3
generators a b
alpha b = 2
relator a*b = b*a
relator a^3*b^-1
"""
    pres = parse_presentation(text)
    assert pres.prime == 3
    assert pres.generators == ("a", "b")
    assert pres.alpha == (1, 2)
    assert len(pres.relators) == 2
    assert pres.relators[0].flatten() == parse_word("a*b*a^-1*b^-1", ("a", "b"))
    assert total_degree(pres.relators[0].flatten(), pres) == 0
    assert total_degree(pres.relators[1].flatten(), pres) == 1


@pytest.mark.parametrize("path", COMMITTED, ids=[p.name for p in COMMITTED])
def test_committed_presentations_parse_alike_by_both_routes(path):
    """Every committed .pres reads to an equal Presentation by the one-pass
    parser and by the token-list parser kept in tests/parser_oracle.py."""
    text = path.read_text()
    assert parse_presentation(text) == oracle_presentation(text)


def test_parse_presentation_errors():
    with pytest.raises(ParseError):
        parse_presentation("generators a\nrelator a")
    with pytest.raises(DuplicateGenerator):
        parse_presentation("prime 3\ngenerators a a\nrelator a")
    with pytest.raises(ParseError):
        parse_presentation("prime 4\ngenerators a\nrelator a")
    with pytest.raises(ParseError):
        parse_presentation("prime 3\ngenerators a\nwhatever a")
    err = None
    try:
        parse_presentation("prime 3\ngenerators a\nrelator a*(a\n")
    except ParseError as exc:
        err = exc
    assert err is not None and err.line == 3


@pytest.mark.parametrize("p", [10**18 + 3, 2**61 - 1])
def test_large_prime_accepted_quickly(p):
    start = time.perf_counter()
    pres = parse_presentation(f"prime {p}\ngenerators a\n")
    assert time.perf_counter() - start < 1.0
    assert pres.prime == p


@pytest.mark.parametrize("n", [561, 2047, 3215031751, (2**31 - 1) ** 2])
def test_composite_prime_rejected(n):
    with pytest.raises(ParseError, match="not a prime"):
        parse_presentation(f"prime {n}\ngenerators a\n")


def test_prime_bound():
    with pytest.raises(ParseError, match=r"2\^64"):
        parse_presentation(f"prime {2**64}\ngenerators a\n")


def test_validate_presentation():
    pres = parse_presentation("prime 3\ngenerators a b\nrelator a*b = b*a")
    report = validate_presentation(pres)
    assert report.ok and report.alpha_all_one and report.relator_degrees == (0,)

    bad = parse_presentation("prime 3\ngenerators a b\nalpha a = 2\nrelator a^3")
    report = validate_presentation(bad)
    assert not report.ok
    assert "generator weight is not 1 for: a" in report.failures
    assert "relator 1 has total degree 6" in report.failures


def test_format_presentation_round_trip(eg41):
    again = parse_presentation(format_presentation(eg41))
    assert again == eg41


def test_relator_flatten():
    pres = parse_presentation("prime 3\ngenerators a b\nrelator a = b")
    rel = pres.relators[0]
    assert isinstance(rel, Relator)
    assert rel.flatten() == parse_word("a*b^-1", ("a", "b"))


def test_presentation_is_hashable(eg41):
    assert isinstance(eg41, Presentation)
    assert hash(eg41) == hash(eg41)


def test_long_power_parses_in_linear_time():
    start = time.perf_counter()
    w = parse_word("(a*b^-1)^20000", ("a", "b"))
    assert time.perf_counter() - start < 2.0
    assert sum(abs(e) for _, e in w.syllables) == 40000
    assert w.syllables[:3] == ((0, 1), (1, -1), (0, 1))


def test_power_of_a_conjugate_keeps_the_conjugator():
    huge = 10**15
    assert W("(a*b*c^2*a^-1)^2") == Word.of([(0, 1), (1, 1), (2, 2), (1, 1), (2, 2), (0, -1)])
    assert W(f"(a*b^3*a^-1)^{huge}") == Word.of([(0, 1), (1, 3 * huge), (0, -1)])
    assert W("(a^2*b*a^3)^-2") == Word.of([(0, -3), (1, -1), (0, -5), (1, -1), (0, -2)])


def test_the_syllable_bound_covers_all_relator_words():
    """MAX_WORD_SYLLABLES bounds the relator words of a presentation
    together, so that many lines at the bound are refused as one."""
    at_bound = "[a,b]^524288"  # 4 * 524288 = 2^21 syllables
    assert len(W(at_bound).syllables) == MAX_WORD_SYLLABLES
    pres = parse_presentation(f"prime 3\ngenerators a b c\nrelator {at_bound}\n")
    assert len(pres.relators[0].left.syllables) == MAX_WORD_SYLLABLES
    for extra in ("relator c", f"relator {at_bound}", "relator a = c"):
        with pytest.raises(InputTooLarge, match=r"line 4, col \d+: the words would hold"):
            parse_presentation(f"prime 3\ngenerators a b c\nrelator {at_bound}\n{extra}\n")
    with pytest.raises(InputTooLarge, match="2097156 syllables"):
        W("[a,b]^524289")
    with pytest.raises(InputTooLarge, match="2097153 syllables"):
        W("[a,b]^524288*c")


def test_presentation_rejects_alpha_of_wrong_length():
    with pytest.raises(ValueError, match="one weight per generator"):
        Presentation(3, ("a", "b"), (), (1,))
