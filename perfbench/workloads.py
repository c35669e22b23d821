"""Seeded request generators for the four benchmark workloads.

Every request is a plain dict of JSON-safe values: the presentation (and
representation) as text, the parameters of the question, and what the
generator planted, so the worker can check the answer. Nothing here imports
propfox: the program only ever sees the generated text.

Request ``i`` of a run depends on the workload, the seed and ``i`` alone, and
its size class is ``CLASSES[workload][i % len(CLASSES[workload])]``, so every
prefix of a run holds the same mix of sizes whatever the seed.

Planted structure. With ``y_i = x_i * x0^-1`` (degree 0), a relator
``x0 * u * x0^-1 = v`` with ``u``, ``v`` words in the ``y_i`` adds the row
``g*[u] - [v]`` to the presentation matrix of the Alexander module, where
``[w]`` is the exponent-sum vector of ``w``. One relator per ``y_i`` with
``[u] = t*e_i`` and ``[v] = s*e_i + (terms in later y_j)`` gives a triangular
matrix, so the divisor at ``d = l`` is the product of the ``t*g - s``. A
representation sending every generator to the same ``[[lam, mu], [0, 1]]``
kills every degree-0 relator, so it factors through, and doubles each root
``s/t`` into ``s/t`` and ``s/(t*lam)``.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from math import gcd

WORKLOADS = ("corpus", "divisor-chain", "point-queries", "long-words")

# Why each workload exists; BENCHMARK.json carries the same sentences.
WHY = {
    "corpus": "the 11 bundled entries and the README CLI calls in a fresh "
    "interpreter per pass: fox rebuilds, cached fitting and the cli layer",
    "divisor-chain": "4x4 to 7x6 relation matrices, l = 1 or 2, with redundant "
    "relators and every d asked: minor enumeration in fitting carries the request",
    "point-queries": "deficiency-one groups with planted unit-ball zeros, each "
    "zero queried: extensions and cohomology rebuild one matrix many times",
    "long-words": "syllables of 300-2000 letters and powers to 1600 at primes "
    "up to 1e4, 1-minors only: the w^n parse, Fox calculus on long words and "
    "the Hensel scan",
}

# One size class per entry; request i uses entry i % len. A run holds whole
# cycles, and each cycle has an odd number of classes, so the median falls
# inside the middle class's cluster of latencies rather than in the gap
# between two clusters, where it would jump from run to run.
CLASSES = {
    # (generators, redundant relators, representation dimension)
    "divisor-chain": (
        (4, 1, 1),
        (5, 2, 1),
        (4, 2, 1),
        (3, 1, 2),
        (5, 1, 1),
        (6, 2, 1),
        (3, 0, 2),
    ),
    # (generators, representation dimension, irreducible quadratic factor)
    "point-queries": (
        (3, 1, False),
        (4, 1, True),
        (3, 2, False),
        (3, 1, False),
        (4, 1, False),
    ),
    # (range of c, (a, b), power range, primes, precision); syllables are
    # c*a and c*b letters long, and the divisor has degree c - 1.
    "long-words": (
        ((400, 440), (3, 2), (100, 140), (9973, 10007), 16),
        ((20, 30), (15, 14), (150, 200), (3, 7), 16),
        ((60, 70), (5, 4), (400, 500), (101, 103), 24),
        ((100, 120), (3, 2), (100, 150), (4999, 5003), 32),
        ((40, 50), (24, 23), (1400, 1600), (101, 103), 24),
        ((40, 50), (7, 5), (100, 150), (11, 13), 16),
        ((240, 280), (2, 1), (100, 140), (9973, 10007), 16),
    ),
}

CORPUS_IDS = (
    "eg-4.1-p3",
    "eg-4.2-p2",
    "eg-4.3-p5",
    "eg-4.3-p5-split",
    "eg-4.4-p3",
    "eg-4.5-p3",
    "eg-5.1-p3",
    "eg-5.2-p3",
    "eg-5.3-p3",
    "eg-5.4-p3",
    "eg-5.5-p3",
)

DATA = "src/propfox/corpus_data/"

# The README's command-line calls, on the bundled files.
README_CLI = (
    ["validate", DATA + "eg41.pres"],
    ["matrix", DATA + "eg41.pres", "--rep", DATA + "eg44.rep"],
    ["delta", DATA + "eg41.pres", "--d", "1"],
    ["delta", DATA + "eg41.pres", "--d", "2", "--rep", DATA + "eg44.rep"],
    ["iwasawa-delta", DATA + "eg42.pres", "--d", "0"],
    ["zeros", DATA + "eg43.pres", "--d", "1"],
    ["zeros", DATA + "eg43split.pres", "--d", "1", "--prec", "8"],
    ["extend", DATA + "eg41.pres", "--at", "4"],
    ["cohomology", DATA + "eg41.pres", "--at", "4", "--rep", DATA + "eg44.rep"],
)

# The command a CLI user pays a fresh interpreter for; timed as cli_cold_s.
COLD_CLI = ["delta", DATA + "eg41.pres", "--d", "1", "--json"]


def digest(results) -> str:
    """What a pinned answer is compared by: the SHA-256 of its JSON
    `results`, serialized as the CLI serializes its reports."""
    return hashlib.sha256(json.dumps(results, indent=2).encode()).hexdigest()


def corpus_pass() -> list[dict]:
    """One pass over the corpus: the 11 entries, the README calls and the
    README library example. The corpus is the one fixed input set, so a pass
    does not depend on the seed."""
    reqs = [{"kind": "corpus-entry", "id": e} for e in CORPUS_IDS]
    reqs += [{"kind": "cli", "argv": argv + ["--json"]} for argv in README_CLI]
    reqs.append({"kind": "library"})
    return reqs


def _y(i: int) -> str:
    return f"(x{i}*x0^-1)"


def _pow(word: str, e: int) -> str:
    return word if e == 1 else f"{word}^{e}"


def _module_relators(n: int, rows: list[tuple], rng: random.Random) -> list[str]:
    """Relators on x0..x{n-1} whose Alexander module is presented by `rows`.

    Each row is ("lin", t, s) for t*g - s on its own y_i, or ("quad", b, c)
    spanning y_i and y_(i+1) for g^2 + b*g + c. Later y_j are coupled in with
    small random exponents, except that a root planted twice is coupled to
    nothing, which keeps it a repeated elementary divisor."""
    rels = []
    col, starts = 1, []
    for row in rows:
        starts.append(col)
        col += 1 if row[0] == "lin" else 2
    lin = [row[1:] for row in rows if row[0] == "lin"]
    free = {
        starts[k]
        for k, row in enumerate(rows)
        if row[0] == "lin" and lin.count(row[1:]) > 1
    }
    for row, i in zip(rows, starts):
        span = 1 if row[0] == "lin" else 2
        couple = []
        if i not in free:
            for j in range(i + span, n):
                e = 0 if j in free else rng.choice((0, 0, 1, -1, 2))
                if e:
                    couple.append(_pow(_y(j), e))
        if row[0] == "lin":
            _, t, s = row
            rhs = [_pow(_y(i), s)] + couple
            rels.append(f"x0*{_pow(_y(i), t)}*x0^-1 = " + "*".join(rhs))
        else:
            _, b, c = row
            rels.append(f"x0*{_y(i)}*x0^-1 = {_y(i + 1)}")
            rhs = [_pow(_y(i), -c)] if c else []
            rhs += [_pow(_y(i + 1), -b)] if b else []
            rhs += couple
            rels.append(f"x0*{_y(i + 1)}*x0^-1 = " + ("*".join(rhs) or "()"))
    return rels


def _flat(rel: str) -> str:
    left, _, right = rel.partition(" = ")
    return f"({left})*({right})^-1"


def _redundant(base: list[str], n: int, rng: random.Random) -> str:
    """A consequence of the base relators: a conjugate of one times another
    or its inverse. The group and every divisor stay the same; the matrix
    gains a row, so the minor count grows."""
    a, b = rng.sample(range(len(base)), 2)
    w = "*".join(_pow(f"x{rng.randrange(n)}", rng.choice((1, -1))) for _ in range(2))
    return f"({w})*{_flat(base[a])}*({w})^-1*{_pow(f'({_flat(base[b])})', rng.choice((1, -1)))}"


def _presentation(p: int, n: int, relators: list[str]) -> str:
    gens = " ".join(f"x{i}" for i in range(n))
    return f"prime {p}\ngenerators {gens}\n" + "".join(f"relator {r}\n" for r in relators)


def _representation(n: int, lam: Fraction, mu: int) -> str:
    block = f"{lam} {mu}\n0 1\n"
    return "dim 2\n" + "".join(f"matrix x{i}\n{block}" for i in range(n))


def _planted(rows: list[tuple], ell: int, lam: Fraction) -> list[list[str]]:
    """Planted rational zeros of the divisor at d = ell, with multiplicity."""
    mult: dict[Fraction, int] = {}
    for row in rows:
        if row[0] != "lin":
            continue
        r = Fraction(row[2], row[1])
        for z in (r,) if ell == 1 else (r, r / lam):
            mult[z] = mult.get(z, 0) + 1
    return [[str(z), m] for z, m in sorted(mult.items())]


def divisor_chain(seed: int, index: int) -> dict:
    cls = CLASSES["divisor-chain"]
    n, extra, ell = cls[index % len(cls)]
    rng = random.Random(f"divisor-chain/{seed}/{index}")
    # Few choices besides the shape, so that requests of one class cost
    # about the same: the cost of a minor grows with its coefficients.
    roots = rng.sample((-3, -2, 2, 3, 4, 5), n - 2)
    roots.insert(rng.randrange(1, n - 1), roots[0])  # one root planted twice
    rows = [("lin", 1, r) for r in roots]
    base = _module_relators(n, rows, rng)
    rels = base + [_redundant(base, n, rng) for _ in range(extra)]
    lam = Fraction(2 if ell == 2 else 1)
    return {
        "kind": "divisor-chain",
        "pres": _presentation(7, n, rels),
        "rep": _representation(n, lam, 1) if ell == 2 else None,
        "ell": ell,
        "planted": _planted(rows, ell, lam),
    }


def _unit_ball_root(p: int, rng: random.Random) -> tuple[int, int]:
    """(t, s) with s/t in lowest terms, s/t != 1 and v_p(s/t - 1) >= 1."""
    while True:
        t = rng.choice((1, 1, 2, 4))
        s = t + p * rng.choice((-2, -1, 1, 2))
        if t % p and s and gcd(s, t) == 1:
            return t, s


def point_queries(seed: int, index: int) -> dict:
    cls = CLASSES["point-queries"]
    n, ell, quad = cls[index % len(cls)]
    rng = random.Random(f"point-queries/{seed}/{index}")
    # With l = 2 every zero brings a second one, r / lam, so the heaviest
    # class keeps to p = 3 and the smallest lam, to hold its cost steady.
    p = 3 if ell == 2 else rng.choice((3, 5, 7))
    t, s = _unit_ball_root(p, rng)
    rows: list[tuple] = [("lin", t, s), ("lin", t, s)]  # a repeated root
    if quad:
        b, c = rng.choice(((1, 1), (0, 2), (1, 3), (-1, 2), (2, 3)))
        rows = [rows[0], ("quad", b, c)]  # irreducible over Q
    elif n == 4:
        while True:
            other = _unit_ball_root(p, rng)
            if Fraction(other[1], other[0]) != Fraction(s, t):
                break
        rows.append(("lin",) + other)
    rng.shuffle(rows)
    lam = Fraction(1 + p if ell == 2 else 1)
    return {
        "kind": "point-queries",
        "pres": _presentation(p, n, _module_relators(n, rows, rng)),
        "rep": _representation(n, lam, 1) if ell == 2 else None,
        "ell": ell,
        "planted": _planted(rows, ell, lam),
    }


def long_words(seed: int, index: int) -> dict:
    """Two generators and three relators: x0^N * x1^-N and x0^M * x1^-M with
    N = c*a, M = c*b and gcd(a, b) = 1, and the commutator of x0^c with
    (x1*x0^-1)^n, which the parser expands n times. Their Fox derivatives are
    multiples of (g^N - 1)/(g - 1), (g^M - 1)/(g - 1) and g^c - 1, so the
    divisor is (g^c - 1)/(g - 1): degree c - 1, from 1-minors only, with the
    rational zero -1 (c is even) and the c-th roots of unity in Z_p. c is
    prime to p, so the divisor stays squarefree mod p."""
    cls = CLASSES["long-words"]
    (c_lo, c_hi), (a, b), (n_lo, n_hi), primes, prec = cls[index % len(cls)]
    rng = random.Random(f"long-words/{seed}/{index}")
    p = rng.choice(primes)
    c = rng.randrange(c_lo, c_hi + 1, 2)
    while c % p == 0:
        c += 2
    n = rng.randint(n_lo, n_hi)
    pres = (
        f"prime {p}\ngenerators x0 x1\n"
        f"relator x0^{c * a}*x1^-{c * a}\n"
        f"relator x0^{c * b}*x1^-{c * b}\n"
        f"relator [x0^{c},(x1*x0^-1)^{n}]\n"
    )
    return {
        "kind": "long-words",
        "pres": pres,
        "rep": None,
        "ell": 1,
        "prec": prec,
        "planted": [["-1", 1]],
    }


GENERATORS = {
    "divisor-chain": divisor_chain,
    "point-queries": point_queries,
    "long-words": long_words,
}


# Synthetic requests per worker: whole cycles of the size classes, so that
# every run measures the same mix.
BATCH = {"divisor-chain": 7, "point-queries": 20, "long-words": 7}

# The fewest batches a run measures, whatever --seconds says.
MIN_BATCHES = {"corpus": 5, "divisor-chain": 4, "point-queries": 5, "long-words": 4}

# The tail percentile of each workload: about the highest with at least ten
# requests beyond it in a run of MIN_BATCHES, placed inside a cluster of
# latencies like the median. It is fixed so that a faster program, which
# fits more requests into a run, is not measured at a higher percentile.
TAIL = {"corpus": 90, "divisor-chain": 64, "point-queries": 90, "long-words": 64}


def batch(workload: str, seed: int, b: int) -> list[dict]:
    """The b-th batch of a workload: one fresh worker runs it."""
    if workload == "corpus":
        return corpus_pass()
    gen, size = GENERATORS[workload], BATCH[workload]
    return [gen(seed, i) for i in range(b * size, (b + 1) * size)]
