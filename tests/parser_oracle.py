"""The token-list word parser: the reference route that
propfox.presentation._WordParser, which reads a word in one token pass on
syllable tuples, is checked against.

It lists every token with its position up front, steps through them with
peek and take, and builds a Word for every atom, product and power. It
takes the same arguments as the package's parser, so oracle_presentation
reads a whole presentation by this route by patching it in as
propfox.presentation._WordParser.

random_case draws the valid and corrupted word texts the property suite
compares both parsers on. Run as a script, with src on PYTHONPATH and no
pytest or hypothesis needed, it compares both routes on every committed
presentation and on 20,000 word texts from a fixed seed:

    PYTHONPATH=src python tests/parser_oracle.py
"""

import random
import re
import sys
from collections import Counter
from pathlib import Path
from unittest import mock

from propfox import presentation
from propfox.errors import InputTooLarge, ParseError, UnknownGenerator, ZeroExponent
from propfox.presentation import _EXP_LIMIT, _TOKEN_RE, Word
from propfox.scalars import MAX_WORD_SYLLABLES


class _WordParser:
    """Reads one word. Every word it builds, with the used syllables of the
    words read before it, stays within MAX_WORD_SYLLABLES: a power is
    refused by its exact length and a commutator by its length before
    reduction, both before they are built, and a product and the whole
    word once built."""

    def __init__(self, text: str, gen_index: dict[str, int], line: int, col_offset: int, used: int = 0):
        self.text = text
        self.gen_index = gen_index
        self.line = line
        self.col_offset = col_offset
        self.used = used
        self.tokens: list[tuple[str, int]] = []
        for m in _TOKEN_RE.finditer(text):
            self.tokens.append((m.group(), m.start()))
        self.pos = 0

    def _col(self, tok_pos: int) -> int:
        return self.col_offset + tok_pos + 1

    def error(self, msg: str, tok_pos: int | None = None, cls=ParseError):
        at = tok_pos if tok_pos is not None else (
            self.tokens[self.pos][1] if self.pos < len(self.tokens) else len(self.text)
        )
        raise cls(msg, self.line, self._col(at))

    def check_length(self, length: int, at: int) -> None:
        if self.used + length > MAX_WORD_SYLLABLES:
            raise InputTooLarge(
                f"line {self.line}, col {self._col(at)}: the words would hold "
                f"{self.used + length} syllables: the limit is {MAX_WORD_SYLLABLES} "
                "(scalars.MAX_WORD_SYLLABLES)"
            )

    def peek(self) -> str | None:
        return self.tokens[self.pos][0] if self.pos < len(self.tokens) else None

    def take(self) -> tuple[str, int]:
        if self.pos >= len(self.tokens):
            self.error("unexpected end of word")
        t = self.tokens[self.pos]
        self.pos += 1
        return t

    def expect(self, sym: str):
        tok, at = self.take()
        if tok != sym:
            self.error(f"expected {sym!r}, found {tok!r}", at)

    def parse(self) -> Word:
        w = self.word()
        if self.pos != len(self.tokens):
            self.error(f"trailing input {self.peek()!r}")
        self.check_length(len(w.syllables), 0)
        return w

    def word(self) -> Word:
        w = self.term()
        while self.peek() == "*":
            _, at = self.take()
            w = w * self.term()
            self.check_length(len(w.syllables), at)
        return w

    def term(self) -> Word:
        w = self.atom()
        if self.peek() == "^":
            self.take()
            tok, at = self.take()
            if not re.fullmatch(r"-?\d+", tok):
                self.error(f"expected an integer exponent, found {tok!r}", at)
            # the length test keeps int() off literals far past the range
            if len(tok) > 20 or not -_EXP_LIMIT < int(tok) < _EXP_LIMIT:
                self.error("exponent out of 64-bit range", at)
            e = int(tok)
            if e == 0:
                self.error("exponent 0 is not allowed", at, ZeroExponent)
            self.check_length(w._power_length(e), at)
            w = w ** e
        return w

    def atom(self) -> Word:
        tok, at = self.take()
        if tok == "(":
            if self.peek() == ")":
                self.take()
                return Word(())
            w = self.word()
            self.expect(")")
            return w
        if tok == "[":
            x = self.word()
            self.expect(",")
            y = self.word()
            self.expect("]")
            self.check_length(2 * (len(x.syllables) + len(y.syllables)), at)
            return x.inverse() * y.inverse() * x * y
        if re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", tok):
            idx = self.gen_index.get(tok)
            if idx is None:
                self.error(f"unknown generator {tok!r}", at, UnknownGenerator)
            return Word(((idx, 1),))
        self.error(f"expected a generator, '(' or '[', found {tok!r}", at)
        raise AssertionError("unreachable")


# -- comparing the two routes -------------------------------------------------

GENERATORS = ("a", "b", "c")
_TESTS = Path(__file__).resolve().parent
# every committed presentation: the corpus and the test data
COMMITTED = sorted((_TESTS.parent / "src" / "propfox" / "corpus_data").glob("*.pres"))
COMMITTED += sorted((_TESTS / "data").glob("*.pres"))


def oracle_presentation(text):
    """parse_presentation with every relator word read by the class above."""
    with mock.patch.object(presentation, "_WordParser", _WordParser):
        return presentation.parse_presentation(text)


def _exponent(rng):
    if rng.random() < 0.75:
        return str(rng.choice((1, -1, 2, -2, 3, 4, -4)))
    return str(rng.randint(10**18, 10**19 - 1) * rng.choice((1, -1)))


def word_tokens(rng, depth=0):
    """The tokens of a valid word on GENERATORS: products of up to three
    terms, each a generator, a parenthesized word, a commutator, a
    conjugate (u*g^e*(u)^-1) or the identity (), powered 40% of the time
    by a small or a 19-digit exponent (in 64-bit range or just past it)."""
    out = []
    for t in range(rng.randint(1, 3)):
        if t:
            out.append("*")
        kind = rng.choice(("gen", "gen", "paren", "comm", "conj", "id")) if depth < 3 else "gen"
        if kind == "gen":
            atom = [rng.choice(GENERATORS)]
        elif kind == "paren":
            atom = ["(", *word_tokens(rng, depth + 1), ")"]
        elif kind == "comm":
            atom = ["[", *word_tokens(rng, depth + 1), ",", *word_tokens(rng, depth + 1), "]"]
        elif kind == "conj":
            u = word_tokens(rng, depth + 1)
            g = rng.choice(GENERATORS)
            atom = ["(", *u, "*", g, "^", _exponent(rng), "*", "(", *u, ")", "^", "-1", ")"]
        else:
            atom = ["(", ")"]
        if rng.random() < 0.4:
            atom += ["^", _exponent(rng)]
        out += atom
    return out


def corrupt(rng, toks):
    """One or two edits: drop, duplicate or swap a token, an unknown or
    non-identifier name for a token, an exponent of 0 or of 21 digits, or
    a stray bracket or comma."""
    toks = list(toks)
    for _ in range(rng.randint(1, 2)):
        op = rng.choice(("drop", "dup", "swap", "name", "zero", "wide", "bracket"))
        exps = [i for i in range(1, len(toks)) if toks[i - 1] == "^"]
        if op in ("zero", "wide") and not exps:
            op = "bracket"
        if not toks:
            op = "bracket"
        i = rng.randrange(len(toks) + (op == "bracket"))
        if op == "drop":
            del toks[i]
        elif op == "dup":
            toks.insert(i, toks[i])
        elif op == "swap" and i + 1 < len(toks):
            toks[i], toks[i + 1] = toks[i + 1], toks[i]
        elif op == "name":
            toks[i] = rng.choice(("d", "a1", "ab", "_", "$", "é", "7"))
        elif op == "zero":
            toks[rng.choice(exps)] = rng.choice(("0", "-0", "000"))
        elif op == "wide":
            toks[rng.choice(exps)] = str(rng.randint(10**20, 10**21 - 1) * rng.choice((1, -1)))
        elif op == "bracket":
            toks.insert(i, rng.choice("()[],"))
    return toks


def random_case(rng):
    """(text, line, col_offset, used) for one parse: a valid word, or a
    corrupted one half the time, its tokens joined with or without spaces
    (so neighbours may fuse into one token), after 0 (half the time),
    MAX_WORD_SYLLABLES - 3 or MAX_WORD_SYLLABLES syllables of earlier
    words."""
    toks = word_tokens(rng)
    if rng.random() < 0.5:
        toks = corrupt(rng, toks)
    text = "".join(rng.choice(("", "", " ")) + t for t in toks) + rng.choice(("", " "))
    used = rng.choice((0, 0, MAX_WORD_SYLLABLES - 3, MAX_WORD_SYLLABLES))
    return text, rng.randint(1, 9), rng.randint(0, 30), used


def outcome(parser, text, line, col_offset, used):
    """The syllables read, or the (type, message, line, col) of the error."""
    try:
        return parser(text, dict(zip(GENERATORS, range(3))), line, col_offset, used).parse().syllables
    except (ParseError, InputTooLarge) as exc:
        return type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "col", None)


def main(cases=20000, seed=0):
    """Compare both routes on the committed presentations and on `cases`
    random word texts; print a summary and exit 1 on any difference."""
    bad = [p.name for p in COMMITTED if presentation.parse_presentation(p.read_text()) != oracle_presentation(p.read_text())]
    rng = random.Random(seed)
    kinds = Counter()
    for _ in range(cases):
        case = random_case(rng)
        got = outcome(presentation._WordParser, *case)
        if got != outcome(_WordParser, *case):
            bad.append(repr(case))
        kinds[got[0].__name__ if got and isinstance(got[0], type) else "syllables"] += 1
    print(f"python {sys.version.split()[0]}: {len(COMMITTED)} files, {cases} words {dict(kinds)}, {len(bad)} mismatches")
    for b in bad[:10]:
        print("  mismatch:", b)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
