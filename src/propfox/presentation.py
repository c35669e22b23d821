"""Group presentations with integer-exponent relator words.

A word is a reduced sequence of syllables (generator index, nonzero exponent).
Relators are stored as equations left = right; the matrix constructions
flatten them to left * right^-1 only at the point of differentiation, so the
stored form still prints back the way it was written.

The text format, one directive per line, # comments allowed:

    prime 3
    generators g1 g2 g3
    alpha g1=1 g2=1           # optional, defaults to 1
    relator (g2*g1^-1)^9
    relator g2*g1 = g1*g2

Word grammar: word := term {'*' term}; term := atom ['^' int];
atom := ident | '(' word ')' | '[' word ',' word ']', where [x, y] is the
commutator x^-1 * y^-1 * x * y and int is a nonzero 64-bit integer.
The prime must be below 2^64; it is tested by deterministic Miller-Rabin.
Integer literals have at most 4300 digits (scalars.MAX_LITERAL_DIGITS), and
the relator words of a presentation hold at most 2^21 syllables together
(scalars.MAX_WORD_SYLLABLES), so a short power such as (a*b)^1000000000000
is refused before it is built.

A word is read in one pass over its tokens on syllable tuples, through the
module functions that Word's methods wrap (_product, _inverse, _power), and
becomes one Word; token positions are found again only to report an error.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from itertools import islice

from .errors import DuplicateGenerator, InputTooLarge, ParseError, UnknownGenerator, ZeroExponent
from .scalars import MAX_WORD_SYLLABLES, parse_int

_EXP_LIMIT = 2 ** 63
# The longest block Word.runs repeats: enough for the commutators of powers
# of two-syllable words that the Iwasawa-theoretic examples are built from.
_RUN_BLOCK = 8
_PRIME_LIMIT = 2 ** 64
# The first twelve primes as Miller-Rabin bases decide primality exactly for
# every n < 3.3 * 10^24, well past _PRIME_LIMIT.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def reduce_syllables(sylls) -> tuple[tuple[int, int], ...]:
    """Merge adjacent same-generator syllables, dropping cancellations."""
    out: list[list[int]] = []
    for g, e in sylls:
        if e == 0:
            continue
        if out and out[-1][0] == g:
            out[-1][1] += e
            if out[-1][1] == 0:
                out.pop()
        else:
            out.append([g, e])
    return tuple((g, e) for g, e in out)


def _junction(a, b) -> tuple[int, int, tuple]:
    """(i, j, m) with a * b == a[:i] + m + b[j:], for reduced syllable
    tuples a and b: only the junction can merge or cancel, so walk back
    from it while the facing syllables share a generator. m is the one
    merged syllable when the walk stops on a nonzero sum, else empty."""
    i, j = len(a), 0
    while i and j < len(b) and a[i - 1][0] == b[j][0]:
        e = a[i - 1][1] + b[j][1]
        if e:
            return i - 1, j + 1, ((b[j][0], e),)
        i, j = i - 1, j + 1
    return i, j, ()


def _product(a, b) -> tuple:
    """The reduced product of reduced syllable tuples, read off the junction."""
    i, j, m = _junction(a, b)
    return a[:i] + m + b[j:]


def _inverse(s) -> tuple:
    return tuple((g, -e) for g, e in reversed(s))


def _power_layout(s, n: int) -> tuple[tuple, tuple, int, tuple]:
    """(head, body, count, tail) with s^n == head + body * count + tail,
    for a reduced syllable tuple s, from the junction (i, j, m) of s (or
    of its inverse, for n < 0) with itself. Each copy of s meets the next
    at that junction, so s^n is s[:i], then n - 1 copies of m + s[j:i],
    then s[i:]. j > i only when s = u * g^e * u^-1, whose copies merge
    into u * g^(e*n) * u^-1; j == 0 when copies meet without a merge, and
    s^n is n copies. The length is known before anything is repeated."""
    if not n or not s:
        return (), (), 0, ()
    if n < 0:
        s, n = _inverse(s), -n
    i, j, m = _junction(s, s)
    if j > i:
        return s[:i] + ((s[i][0], s[i][1] * n),) + s[j:], (), 0, ()
    if j == 0:
        return (), s, n, ()
    return s[:i], m + s[j:i], n - 1, s[i:]


def _power(s, n: int) -> tuple:
    """s^n in time linear in its length, never reducing it again."""
    head, body, count, tail = _power_layout(s, n)
    return head + body * count + tail


def _power_length(s, n: int) -> int:
    """The number of syllables of s^n, without building it."""
    head, body, count, tail = _power_layout(s, n)
    return len(head) + len(body) * count + len(tail)


@dataclass(frozen=True)
class Word:
    """A reduced word. Products, inverses and powers assume their operands
    are reduced and wrap the functions above on syllable tuples, which the
    parser calls directly; Word.of reduces any sequence of syllables.

    runs, computed once per word, compresses the syllables into repeated
    blocks of at most _RUN_BLOCK syllables; the Fox walk and every word
    image read it, so a power w^n costs them one block, not n copies."""

    syllables: tuple[tuple[int, int], ...] = ()

    @staticmethod
    def of(sylls) -> "Word":
        return Word(reduce_syllables(sylls))

    def is_identity(self) -> bool:
        return not self.syllables

    def __mul__(self, other: "Word") -> "Word":
        return Word(_product(self.syllables, other.syllables))

    def inverse(self) -> "Word":
        return Word(_inverse(self.syllables))

    def __pow__(self, n: int) -> "Word":
        return Word(_power(self.syllables, n))

    def _power_length(self, n: int) -> int:
        return _power_length(self.syllables, n)

    @cached_property
    def runs(self) -> tuple[tuple[tuple[tuple[int, int], ...], int], ...]:
        """The syllables as (block, count) pairs: each block repeated count
        times, in order, gives back the syllables. Greedy: at each position
        take the block of at most _RUN_BLOCK syllables whose consecutive
        copies cover the most syllables, the shortest on a tie. A block
        that does not repeat counts as covering one syllable, so a syllable
        with no repeat is its own run and cannot swallow the start of the
        next run.

        The period-L stretch from i is found by matching s[j] against
        s[j + L]; each scan stops within the syllables the chosen run
        covers, so the decomposition costs O(_RUN_BLOCK * syllables)
        comparisons. When L divides L' and the period-L stretch already
        holds L' syllables, the period-L' stretch ends where it does and
        covers no more, so it is not scanned again: a run of a two-syllable
        block is read once, not four times."""
        s = self.syllables
        n = len(s)
        out = []
        i = 0
        while i < n:
            best, copies = 1, 1
            stretches = []  # (L, length of the period-L stretch from i)
            for L in range(1, min(_RUN_BLOCK, (n - i) // 2) + 1):
                if s[i] != s[i + L]:
                    continue
                m = next((m for d, m in stretches if not L % d and m >= L), None)
                if m is None:
                    j = i
                    while j + L < n and s[j] == s[j + L]:
                        j += 1
                    m = j - i + L
                    stretches.append((L, m))
                if m >= 2 * L and m // L * L > best * copies:
                    best, copies = L, m // L
            out.append((s[i:i + best], copies))
            i += best * copies
        return tuple(out)


@dataclass(frozen=True)
class Relator:
    left: Word
    right: Word = Word()

    def flatten(self) -> Word:
        """The single word whose vanishing this relation asserts."""
        return self._flat

    @cached_property
    def _flat(self) -> Word:
        # Built once per relator: validation, the relation matrix, the
        # extension check and cohomology all read it.
        return self.left * self.right.inverse()


@dataclass(frozen=True)
class Presentation:
    prime: int
    generators: tuple[str, ...]
    relators: tuple[Relator, ...]
    alpha: tuple[int, ...]

    def __post_init__(self):
        if len(self.alpha) != len(self.generators):
            raise ValueError("alpha needs one weight per generator")

    @property
    def n_generators(self) -> int:
        return len(self.generators)

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        # every relation-matrix memo lookup hashes the presentation, and
        # hashing reads every syllable, so it is computed once. It reads
        # only integers: str hashes differ between processes, and a cached
        # hash travels with a pickled presentation.
        return hash((self.prime, len(self.generators), self.relators, self.alpha))

    @cached_property
    def _validation(self) -> "ValidationReport":
        return _validate(self)


def total_degree(word: Word, pres: Presentation) -> int:
    """Image of the word under the exponent weighting: sum of alpha_i * e."""
    return sum(pres.alpha[g] * e for g, e in word.syllables)


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    alpha_all_one: bool
    relator_degrees: tuple[int, ...]
    failures: tuple[str, ...]


def validate_presentation(pres: Presentation) -> ValidationReport:
    """Check the hypotheses the matrix theory needs: every generator weight
    is 1 and every relator has total degree 0. Reports, never raises; the
    report is computed once per presentation and kept on it."""
    return pres._validation


def _validate(pres: Presentation) -> ValidationReport:
    failures: list[str] = []
    alpha_ok = all(e == 1 for e in pres.alpha)
    if not alpha_ok:
        bad = [pres.generators[i] for i, e in enumerate(pres.alpha) if e != 1]
        failures.append("generator weight is not 1 for: " + " ".join(bad))
    degrees = []
    for j, rel in enumerate(pres.relators, start=1):
        d = total_degree(rel.flatten(), pres)
        degrees.append(d)
        if d != 0:
            failures.append(f"relator {j} has total degree {d}")
    return ValidationReport(
        ok=not failures,
        alpha_all_one=alpha_ok,
        relator_degrees=tuple(degrees),
        failures=tuple(failures),
    )


# -- parsing -----------------------------------------------------------------

_TOKEN_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|-?\d+|[*^()\[\],]|\S")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_INT_RE = re.compile(r"-?\d+")


class _WordParser:
    """Reads one word in one pass over its tokens and the end sentinel ""
    (no token is empty). Every word it builds, with the used syllables of
    the words read before it, stays within MAX_WORD_SYLLABLES: a power is
    refused by its exact length and a commutator by its length before
    reduction, both before they are built, and a product and the whole
    word once built."""

    def __init__(self, text: str, gen_index: dict[str, int], line: int, col_offset: int, used: int = 0):
        self.text = text
        self.gen_index = gen_index
        self.line = line
        self.col_offset = col_offset
        self.used = used
        self.toks = _TOKEN_RE.findall(text) + [""]

    def _start(self, k: int) -> int:
        """Where token k starts in the text; the sentinel, at its end."""
        m = next(islice(_TOKEN_RE.finditer(self.text), k, None), None)
        return len(self.text) if m is None else m.start()

    def _fail(self, k: int, msg: str, cls=ParseError):
        if not self.toks[k]:
            msg, cls = "unexpected end of word", ParseError
        raise cls(msg, self.line, self.col_offset + self._start(k) + 1)

    def _expect(self, k: int, sym: str) -> int:
        if self.toks[k] != sym:
            self._fail(k, f"expected {sym!r}, found {self.toks[k]!r}")
        return k + 1

    def _too_large(self, length: int, at: int):
        raise InputTooLarge(
            f"line {self.line}, col {self.col_offset + at + 1}: the words would hold "
            f"{self.used + length} syllables: the limit is {MAX_WORD_SYLLABLES} "
            "(scalars.MAX_WORD_SYLLABLES)"
        )

    def parse(self) -> Word:
        s, k = self._word(0)
        if self.toks[k]:
            self._fail(k, f"trailing input {self.toks[k]!r}")
        if self.used + len(s) > MAX_WORD_SYLLABLES:
            self._too_large(len(s), 0)
        return Word(s)

    def _word(self, k: int) -> tuple[tuple, int]:
        """The syllables of the word starting at token k, and the index of
        the token after it. word := term {'*' term}; term := atom ['^' int]."""
        toks, gen_index = self.toks, self.gen_index
        room = MAX_WORD_SYLLABLES - self.used
        acc = None
        while True:
            tok = toks[k]
            g = gen_index.get(tok)
            if g is not None:
                s = ((g, 1),)
                k += 1
            elif tok == "(":
                if toks[k + 1] == ")":
                    s, k = (), k + 2
                else:
                    s, k = self._word(k + 1)
                    k = self._expect(k, ")")
            elif tok == "[":
                x, j = self._word(k + 1)
                y, j = self._word(self._expect(j, ","))
                j = self._expect(j, "]")
                if 2 * (len(x) + len(y)) > room:
                    self._too_large(2 * (len(x) + len(y)), self._start(k))
                s, k = _product(_product(_product(_inverse(x), _inverse(y)), x), y), j
            elif _IDENT_RE.fullmatch(tok):
                self._fail(k, f"unknown generator {tok!r}", UnknownGenerator)
            else:
                self._fail(k, f"expected a generator, '(' or '[', found {tok!r}")
            if toks[k] == "^":
                k += 1
                tok = toks[k]
                if not _INT_RE.fullmatch(tok):
                    self._fail(k, f"expected an integer exponent, found {tok!r}")
                # the length test keeps int() off literals far past the range
                if len(tok) > 20 or not -_EXP_LIMIT < int(tok) < _EXP_LIMIT:
                    self._fail(k, "exponent out of 64-bit range")
                e = int(tok)
                if e == 0:
                    self._fail(k, "exponent 0 is not allowed", ZeroExponent)
                head, body, count, tail = _power_layout(s, e)
                n = len(head) + len(body) * count + len(tail)
                if n > room:
                    self._too_large(n, self._start(k))
                s = head + body * count + tail
                k += 1
            if acc is None:
                acc = s
            else:
                acc = _product(acc, s)
                if len(acc) > room:
                    self._too_large(len(acc), self._start(star))
            if toks[k] != "*":
                return acc, k
            star = k
            k += 1


def parse_word(text: str, generators, line: int = 1, col_offset: int = 0) -> Word:
    # only an identifier can be a generator token
    gen_index = {name: i for i, name in enumerate(generators) if _IDENT_RE.fullmatch(name)}
    return _WordParser(text, gen_index, line, col_offset).parse()


def parse_presentation(text: str) -> Presentation:
    prime: int | None = None
    generators: list[str] = []
    gen_index: dict[str, int] = {}
    alpha: dict[int, int] = {}
    relators: list[Relator] = []
    used = 0  # syllables of the relator words so far, for MAX_WORD_SYLLABLES

    def relator_word(text: str, lineno: int, offset: int) -> Word:
        nonlocal used
        w = _WordParser(text, gen_index, lineno, offset, used).parse()
        used += len(w.syllables)
        return w

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        stripped = line.lstrip()
        indent = len(line) - len(stripped)
        word_, _, rest = stripped.partition(" ")
        rest_offset = indent + len(word_) + 1
        if word_ == "prime":
            if prime is not None:
                raise ParseError("prime given twice", lineno, 1)
            try:
                prime = parse_int(rest.strip())
            except ValueError as exc:
                raise ParseError(f"bad prime: {exc}", lineno, rest_offset + 1)
            if prime >= _PRIME_LIMIT:
                raise ParseError("prime too large: the limit is 2^64", lineno, rest_offset + 1)
            if not _is_prime(prime):
                raise ParseError(f"not a prime: {rest.strip()!r}", lineno, rest_offset + 1)
        elif word_ == "generators":
            if generators:
                raise ParseError("generators given twice", lineno, 1)
            for name in rest.split():
                if not _IDENT_RE.fullmatch(name):
                    raise ParseError(f"bad generator name {name!r}", lineno, 1)
                if name in gen_index:
                    raise DuplicateGenerator(f"generator {name!r} declared twice", lineno, 1)
                gen_index[name] = len(generators)
                generators.append(name)
            if not generators:
                raise ParseError("generators directive lists no names", lineno, 1)
        elif word_ == "alpha":
            if not generators:
                raise ParseError("alpha before generators", lineno, 1)
            for item in re.sub(r"\s*=\s*", "=", rest).split():
                name, eq, val = item.partition("=")
                if not eq:
                    raise ParseError(f"alpha entries look like name=int, got {item!r}", lineno, 1)
                if name not in gen_index:
                    raise UnknownGenerator(f"unknown generator {name!r}", lineno, 1)
                try:
                    alpha[gen_index[name]] = parse_int(val)
                except ValueError as exc:
                    raise ParseError(f"bad weight for {name}: {exc}", lineno, 1)
        elif word_ == "relator":
            if not generators:
                raise ParseError("relator before generators", lineno, 1)
            if rest.count("=") > 1:
                raise ParseError("more than one '=' in a relator", lineno, 1)
            left_text, eq, right_text = rest.partition("=")
            left = relator_word(left_text, lineno, rest_offset)
            if eq:
                right = relator_word(right_text, lineno, rest_offset + len(left_text) + 1)
            else:
                right = Word()
            relators.append(Relator(left, right))
        else:
            raise ParseError(f"unknown directive {word_!r}", lineno, indent + 1)
    if prime is None:
        raise ParseError("missing prime directive")
    if not generators:
        raise ParseError("missing generators directive")
    alphas = tuple(alpha.get(i, 1) for i in range(len(generators)))
    return Presentation(prime, tuple(generators), tuple(relators), alphas)


def format_word(w: Word, generators) -> str:
    if w.is_identity():
        return "()"
    parts = []
    for g, e in w.syllables:
        parts.append(generators[g] if e == 1 else f"{generators[g]}^{e}")
    return "*".join(parts)


def format_presentation(pres: Presentation) -> str:
    lines = [f"prime {pres.prime}", "generators " + " ".join(pres.generators)]
    if any(e != 1 for e in pres.alpha):
        lines.append("alpha " + " ".join(f"{n}={e}" for n, e in zip(pres.generators, pres.alpha)))
    for rel in pres.relators:
        if rel.right.is_identity():
            lines.append(f"relator {format_word(rel.left, pres.generators)}")
        else:
            lines.append(
                f"relator {format_word(rel.left, pres.generators)}"
                f" = {format_word(rel.right, pres.generators)}"
            )
    return "\n".join(lines) + "\n"
