"""Bundled worked examples with pinned expected values.

Each entry in ENTRIES names a presentation (and possibly a representation)
from the package data directory and the generator of its checks, which
run() calls with the loaded presentation and representation (the trivial
one when the entry names none). A check is a tuple (name, source, expected,
actual), and its source tag says where the expected value comes from:
"stated" values are part of the contract of this library, "derived" values
were computed independently and frozen here as regression anchors. The
checks recompute everything from scratch and compare exactly; no tolerances
anywhere.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass
from fractions import Fraction as F
from importlib import resources

from .cohomology import (
    _NOT_APPLICABLE,
    coboundary_matrix,
    is_coboundary,
    symmetric_square_cocycle,
    theorem_audit,
)
from .errors import GoldenMismatch
from .extensions import (
    CrossedHom,
    build_extension,
    cocycle_space,
    extension_count_criterion,
    mat_vec,
    specialize,
    verify_factors,
)
from .fitting import fitting_delta, iwasawa_delta, rank_at
from .fox import Representation, alexander_matrix, parse_representation
from .laurent import parse_laurent
from .presentation import Presentation, parse_presentation
from .zeros import filter_unit_ball, hensel_roots, rational_roots, zero_report


def _data_text(name: str) -> str:
    return (resources.files("propfox") / "corpus_data" / name).read_text(encoding="utf-8")


def load_presentation(name: str) -> Presentation:
    return parse_presentation(_data_text(name))


def load_representation(name: str, pres: Presentation) -> Representation:
    return parse_representation(_data_text(name), pres)


@dataclass(frozen=True)
class CheckResult:
    entry: str
    name: str
    source: str
    ok: bool
    expected: str
    actual: str


@dataclass(frozen=True)
class CorpusEntry:
    entry_id: str
    presentation: str
    representation: str | None
    description: str
    checks: Callable[[Presentation, Representation], Iterator[tuple]]


def _lmat(rows):
    return tuple(tuple(parse_laurent(c) for c in row) for row in rows)


def _hom(ell: int, *vectors) -> CrossedHom:
    return CrossedHom(ell, tuple(tuple(F(x) for x in v) for v in vectors))


def _in_nullspace(Qa, flat) -> bool:
    return all(x == 0 for x in mat_vec(Qa, flat))


def _checks_eg41(pres: Presentation, phi: Representation):
    Q = alexander_matrix(pres, phi)
    yield (
        "relation matrix entries",
        "stated",
        _lmat(
            [
                ["-9", "9", "0"],
                ["3", "-3", "0"],
                ["g - 1", "1 - g", "0"],
                ["7 - g", "-3", "g - 4"],
            ]
        ),
        Q.entries,
    )
    fit1 = fitting_delta(Q, 1)
    yield "divisor at d=1", "stated", parse_laurent("g - 4"), fit1.delta
    yield "divisor at d=0", "derived", parse_laurent("0"), fitting_delta(Q, 0).delta
    yield "divisor at d=2", "derived", parse_laurent("1"), fitting_delta(Q, 2).delta
    yield "content minimum at d=1", "derived", 0, fit1.mu_content
    yield "minor count at d=1", "derived", 18, fit1.minor_count
    zr = zero_report(fit1.delta, pres.prime, 8)
    yield "rational zeros of the divisor", "derived", ((F(4), 1),), zr.rational
    kept = filter_unit_ball(zr)
    yield "unit ball keeps the zero", "stated", ((F(4), 1),), kept.rational
    space = cocycle_space(pres, phi, 4)
    yield "crossed homomorphism dimension at 4", "stated", 2, space.dim
    yield (
        "crossed homomorphism basis at 4",
        "derived",
        (_hom(1, (1,), (1,), (0,)), _hom(1, (0,), (0,), (1,))),
        space.basis,
    )
    yield (
        "first two values agree across the basis",
        "stated",
        True,
        all(h.vectors[0] == h.vectors[1] for h in space.basis),
    )
    good = build_extension(pres, phi, 4, _hom(1, (1,), (1,), (0,)))
    yield "extension from (1,1,0) verifies", "stated", True, verify_factors(good, pres).ok
    bad = build_extension(pres, phi, 4, _hom(1, (1,), (0,), (0,)))
    bad_report = verify_factors(bad, pres)
    yield (
        "assignment (1,0,0) fails every relator",
        "derived",
        (False, False, False, False),
        tuple(c.ok for c in bad_report.relators),
    )
    yield (
        "first relator image of the failing assignment",
        "derived",
        ((F(1), F(-9)), (F(0), F(1))),
        bad_report.relators[0].image,
    )
    count = extension_count_criterion(pres, phi, 4)
    yield ("count criterion at the zero", "derived", (2, 2, True, True),
           (count.dim, count.k, count.meets_k, count.delta_zero))
    yield (
        "rank away from the zero",
        "derived",
        (2, 2, 2),
        (rank_at(Q, 1), rank_at(Q, 2), rank_at(Q, 7)),
    )
    yield (
        "classical-indexing divisor at d=0",
        "stated",
        parse_laurent("g - 4"),
        iwasawa_delta(pres, 0),
    )


def _checks_eg42(pres: Presentation, phi: Representation):
    Q = alexander_matrix(pres, phi)
    yield (
        "relation matrix entries",
        "derived",
        _lmat(
            [
                ["-2*g^-1", "2*g^-1", "0"],
                ["2*g^-1", "-2*g^-1", "0"],
                ["0", "0", "0"],
                ["-1 + g^-1", "1 - g^-1", "0"],
                ["g - 11*g^-1", "2*g^-1", "-g + 9*g^-1"],
            ]
        ),
        Q.entries,
    )
    fit1 = fitting_delta(Q, 1)
    yield "divisor at d=1", "stated", parse_laurent("g^2 - 9"), fit1.delta
    yield "content minimum at d=1", "derived", 0, fit1.mu_content
    zr = zero_report(fit1.delta, pres.prime, 8)
    yield "rational zeros", "derived", ((F(-3), 1), (F(3), 1)), zr.rational
    kept = filter_unit_ball(zr)
    yield "unit ball keeps both zeros", "derived", ((F(-3), 1), (F(3), 1)), kept.rational
    yield "2-adic zeros mod 2^8", "derived", ((3, 8), (253, 8)), zr.padic
    space = cocycle_space(pres, phi, 3)
    yield "crossed homomorphism dimension at 3", "stated", 2, space.dim
    yield (
        "crossed homomorphism basis at 3",
        "derived",
        (_hom(1, (1,), (1,), (0,)), _hom(1, (0,), (0,), (1,))),
        space.basis,
    )
    yield (
        "first two values agree across the basis",
        "stated",
        True,
        all(h.vectors[0] == h.vectors[1] for h in space.basis),
    )
    yield "rank at 3", "derived", 1, rank_at(Q, 3)
    audit3 = theorem_audit(pres, phi, 3)
    coh = audit3.cohomology
    yield (
        "quotient dimensions at 3",
        "derived",
        (2, 1, 1, 0),
        (coh.z1_dim, coh.b1_dim, coh.h1_dim, coh.fixed_dim),
    )
    audit_m3 = theorem_audit(pres, phi, -3)
    yield (
        "audits at both zeros are consistent",
        "derived",
        ("consistent", "consistent", "consistent", "consistent"),
        (
            audit3.forward_verdict,
            audit3.converse_verdict,
            audit_m3.forward_verdict,
            audit_m3.converse_verdict,
        ),
    )


def _checks_eg43(pres: Presentation, phi: Representation):
    Q = alexander_matrix(pres, phi)
    yield (
        "relation matrix entries",
        "stated",
        _lmat([["-g - 3 - g^-1", "g + 3 + g^-1"]]),
        Q.entries,
    )
    delta = fitting_delta(Q, 1).delta
    yield "divisor at d=1", "stated", parse_laurent("g^2 + 3*g + 1"), delta
    shifted = delta.shift(-1)
    yield (
        "entries are the divisor times a unit",
        "derived",
        (-shifted, shifted),
        (Q.entries[0][0], Q.entries[0][1]),
    )
    yield "rational zeros", "derived", (), tuple(rational_roots(delta))
    roots, obstructions = hensel_roots(delta, 5, 8)
    yield "5-adic zeros", "derived", [], roots
    yield "obstructed residue", "derived", [1], obstructions
    kept = filter_unit_ball(zero_report(delta, 5, 8))
    yield "obstruction sits in the unit ball", "derived", (1,), kept.obstructions


def _checks_eg43split(pres: Presentation, phi: Representation):
    Q = alexander_matrix(pres, phi)
    delta = fitting_delta(Q, 1).delta
    yield "divisor at d=1", "derived", parse_laurent("g^2 - 17*g + 66"), delta
    yield "rational zeros", "derived", [(F(6), 1), (F(11), 1)], rational_roots(delta)
    yield (
        "specialization vanishes at 6",
        "derived",
        ((F(0), F(0)),),
        Q.specialize(6),
    )
    yield (
        "specialization vanishes at 11",
        "derived",
        ((F(0), F(0)),),
        Q.specialize(11),
    )
    yield "every assignment extends at 6", "derived", 2, cocycle_space(pres, phi, 6).dim
    ext = build_extension(pres, phi, 6, _hom(1, (5,), (7,)))
    yield "an arbitrary pair verifies at 6", "derived", True, verify_factors(ext, pres).ok
    roots, obstructions = hensel_roots(delta, 5, 4)
    yield "5-adic zeros mod 5^4", "derived", [6, 11], roots
    yield "no obstruction", "derived", [], obstructions


def _checks_eg44(pres: Presentation, phi: Representation):
    Q = alexander_matrix(pres, phi)
    yield (
        "relation matrix entries",
        "stated",
        _lmat(
            [
                ["-9", "0", "9", "0", "0", "0"],
                ["0", "-9", "0", "9", "0", "0"],
                ["3", "0", "-3", "0", "0", "0"],
                ["0", "3", "0", "-3", "0", "0"],
                ["4*g - 1", "g", "1 - 4*g", "-g", "0", "0"],
                ["0", "g - 1", "0", "1 - g", "0", "0"],
                ["7 - 4*g", "-g", "-3", "0", "4*g - 4", "g"],
                ["0", "7 - g", "0", "-3", "0", "g - 4"],
            ]
        ),
        Q.entries,
    )
    fit2 = fitting_delta(Q, 2)
    yield "divisor at d=2", "stated", parse_laurent("g^2 - 5*g + 4"), fit2.delta
    yield "content minimum at d=2", "derived", 0, fit2.mu_content
    yield "minor count at d=2", "derived", 1050, fit2.minor_count
    space1 = cocycle_space(pres, phi, 1)
    yield "dimension at 1", "stated", 3, space1.dim
    yield (
        "basis at 1",
        "derived",
        (
            _hom(2, (1, 0), (1, 0), (0, 0)),
            _hom(2, (0, 0), (0, 0), (1, 0)),
            _hom(2, (0, 1), (0, 1), (0, 1)),
        ),
        space1.basis,
    )
    Q1 = Q.specialize(1)
    displayed = (
        (1, 0, 1, 0, 1, 0),
        (0, 1, 0, 1, 0, 1),
        (0, 0, 0, 0, 1, 0),
    )
    yield (
        "displayed vectors at 1 satisfy the constraints",
        "stated",
        (True, True, True),
        tuple(_in_nullspace(Q1, v) for v in displayed),
    )
    yield (
        "constraints at 1",
        "stated",
        True,
        all(
            h.vectors[0][0] == h.vectors[1][0]
            and h.vectors[0][1] == h.vectors[1][1] == h.vectors[2][1]
            for h in space1.basis
        ),
    )
    space4 = cocycle_space(pres, phi, 4)
    yield "dimension at 4", "stated", 3, space4.dim
    yield (
        "basis at 4",
        "derived",
        (
            _hom(2, (F(-1, 3), 1), (F(-1, 3), 1), (0, 0)),
            _hom(2, (1, 0), (1, 0), (1, 0)),
            _hom(2, (F(1, 3), 0), (F(1, 3), 0), (0, 1)),
        ),
        space4.basis,
    )
    yield (
        "constraints at 4",
        "stated",
        True,
        all(
            h.vectors[0][0] == h.vectors[1][0]
            and h.vectors[0][1] == h.vectors[1][1]
            and h.vectors[2][0]
            == h.vectors[0][0] + F(1, 3) * h.vectors[0][1] - F(1, 3) * h.vectors[2][1]
            for h in space4.basis
        ),
    )
    yield (
        "extensions from the basis at 4 all verify",
        "derived",
        (True, True, True),
        tuple(
            verify_factors(build_extension(pres, phi, 4, h), pres).ok
            for h in space4.basis
        ),
    )
    count = extension_count_criterion(pres, phi, 4)
    yield (
        "count criterion at 4",
        "derived",
        (3, 3, True, True),
        (count.dim, count.k, count.meets_k, count.delta_zero),
    )


def _checks_eg45(pres: Presentation, phi: Representation):
    Q = alexander_matrix(pres, phi)
    yield "divisor at d=2", "stated", parse_laurent("g - 4"), fitting_delta(Q, 2).delta
    space = cocycle_space(pres, phi, 4)
    yield "dimension at 4", "stated", 3, space.dim
    yield (
        "basis at 4",
        "derived",
        (
            _hom(2, (F(1, 2), 1), (F(1, 2), 1), (0, 0)),
            _hom(2, (1, 0), (1, 0), (1, 0)),
            _hom(2, (F(5, 6), 0), (F(5, 6), 0), (0, 1)),
        ),
        space.basis,
    )
    yield (
        "constraints at 4",
        "stated",
        True,
        all(
            h.vectors[0][0] == h.vectors[1][0]
            and h.vectors[0][1] == h.vectors[1][1]
            and h.vectors[2][0]
            == h.vectors[0][0] - F(1, 2) * h.vectors[0][1] - F(5, 6) * h.vectors[2][1]
            for h in space.basis
        ),
    )
    yield (
        "extensions from the basis at 4 all verify",
        "derived",
        (True, True, True),
        tuple(
            verify_factors(build_extension(pres, phi, 4, h), pres).ok
            for h in space.basis
        ),
    )


def _checks_eg51(pres: Presentation, phi: Representation):
    audit = theorem_audit(pres, phi, 4)
    coh = audit.cohomology
    yield (
        "quotient dimensions",
        "stated",
        (2, 1, 1),
        (coh.z1_dim, coh.b1_dim, coh.h1_dim),
    )
    yield "fixed space dimension", "derived", 0, coh.fixed_dim
    rho = specialize(pres, phi, 4)
    witness = is_coboundary(_hom(1, (1,), (1,), (1,)), rho)
    yield "witness for the constant assignment", "stated", (F(1, 3),), witness
    yield (
        "the third-slot class is not principal",
        "derived",
        None,
        is_coboundary(_hom(1, (0,), (0,), (1,)), rho),
    )
    yield (
        "audit verdicts",
        "derived",
        ("consistent", "consistent", True, True),
        (
            audit.forward_verdict,
            audit.converse_verdict,
            audit.forward_applicable,
            audit.converse_applicable,
        ),
    )


def _checks_eg52(pres: Presentation, phi: Representation):
    audit = theorem_audit(pres, phi, 1)
    coh = audit.cohomology
    yield (
        "quotient dimensions",
        "stated",
        (3, 1, 2),
        (coh.z1_dim, coh.b1_dim, coh.h1_dim),
    )
    yield "fixed space dimension", "derived", 1, coh.fixed_dim
    rho = specialize(pres, phi, 1)
    yield (
        "witness for the repeated first column",
        "stated",
        (F(1, 3), F(0)),
        is_coboundary(_hom(2, (1, 0), (1, 0), (1, 0)), rho),
    )
    yield (
        "second-coordinate class is not principal",
        "derived",
        None,
        is_coboundary(_hom(2, (0, 1), (0, 1), (0, 1)), rho),
    )
    yield (
        "third-generator class is not principal",
        "derived",
        None,
        is_coboundary(_hom(2, (0, 0), (0, 0), (1, 0)), rho),
    )
    yield (
        "forward consistent, converse not applicable",
        "stated",
        ("consistent", _NOT_APPLICABLE, False),
        (audit.forward_verdict, audit.converse_verdict, audit.converse_applicable),
    )


def _checks_eg53(pres: Presentation, phi: Representation):
    audit = theorem_audit(pres, phi, 4)
    coh = audit.cohomology
    yield (
        "quotient dimensions",
        "stated",
        (3, 2, 1),
        (coh.z1_dim, coh.b1_dim, coh.h1_dim),
    )
    yield "fixed space dimension", "derived", 0, coh.fixed_dim
    rho = specialize(pres, phi, 4)
    yield (
        "witness for the repeated first column",
        "stated",
        (F(1, 15), F(0)),
        is_coboundary(_hom(2, (1, 0), (1, 0), (1, 0)), rho),
    )
    yield (
        "witness for the repeated second column",
        "stated",
        (F(-4, 45), F(1, 3)),
        is_coboundary(_hom(2, (0, 1), (0, 1), (0, 1)), rho),
    )
    yield (
        "third-generator class is not principal",
        "derived",
        None,
        is_coboundary(_hom(2, (0, 0), (0, 0), (F(-1, 3), 1)), rho),
    )
    ext = build_extension(pres, Representation.trivial(3), 4, _hom(1, (1,), (1,), (1,)))
    sym = symmetric_square_cocycle(ext)
    yield "squared corner class is principal", "stated", True, sym.trivial
    yield (
        "audit verdicts",
        "derived",
        ("consistent", "consistent", True),
        (audit.forward_verdict, audit.converse_verdict, audit.converse_applicable),
    )


def _checks_eg54(pres: Presentation, phi: Representation):
    audit = theorem_audit(pres, phi, 4)
    coh = audit.cohomology
    yield (
        "quotient dimensions",
        "stated",
        (3, 2, 1),
        (coh.z1_dim, coh.b1_dim, coh.h1_dim),
    )
    yield "fixed space dimension", "derived", 0, coh.fixed_dim
    rho = specialize(pres, phi, 4)
    yield (
        "witness for the repeated first column",
        "stated",
        (F(1, 15), F(0)),
        is_coboundary(_hom(2, (1, 0), (1, 0), (1, 0)), rho),
    )
    yield (
        "witness for the shifted second column",
        "stated",
        (F(-4, 45), F(1, 3)),
        is_coboundary(_hom(2, (0, 1), (0, 1), (F(-4, 3), 1)), rho),
    )
    ext = build_extension(pres, Representation.trivial(3), 4, _hom(1, (1,), (1,), (0,)))
    sym = symmetric_square_cocycle(ext)
    yield "squared corner class is not principal", "stated", False, sym.trivial
    yield (
        "audit verdicts",
        "derived",
        ("consistent", "consistent", True),
        (audit.forward_verdict, audit.converse_verdict, audit.converse_applicable),
    )


def _checks_eg55(pres: Presentation, phi: Representation):
    Q = alexander_matrix(pres, phi)
    delta = fitting_delta(Q, 2).delta
    yield "divisor at d=2", "derived", parse_laurent("g^2 - 5*g + 4"), delta
    yield "divisor value at 1/4", "derived", F(45, 16), delta.eval_at(F(1, 4))
    audit = theorem_audit(pres, phi, F(1, 4))
    coh = audit.cohomology
    yield (
        "quotient dimensions",
        "stated",
        (2, 1, 1),
        (coh.z1_dim, coh.b1_dim, coh.h1_dim),
    )
    yield "fixed space dimension", "derived", 1, coh.fixed_dim
    rho = specialize(pres, phi, F(1, 4))
    beta = _hom(2, (0, 1), (0, 1), (0, 1))
    witness = is_coboundary(beta, rho)
    yield "canonical witness for the second column", "derived", (F(0), F(-4, 3)), witness
    displayed = (F(1), F(-4, 3))
    yield (
        "displayed witness solves the same equations",
        "stated",
        tuple(beta.stacked()),
        mat_vec(coboundary_matrix(rho), displayed),
    )
    yield (
        "first-coordinate class is not principal",
        "stated",
        None,
        is_coboundary(_hom(2, (1, 0), (1, 0), (1, 0)), rho),
    )
    count = extension_count_criterion(pres, phi, F(1, 4))
    yield (
        "count criterion away from the zeros",
        "derived",
        (2, 3, False, False),
        (count.dim, count.k, count.meets_k, count.delta_zero),
    )
    yield (
        "forward consistent, converse not applicable",
        "stated",
        ("consistent", _NOT_APPLICABLE, True, False),
        (
            audit.forward_verdict,
            audit.converse_verdict,
            audit.forward_applicable,
            audit.converse_applicable,
        ),
    )
    ext = build_extension(pres, Representation.trivial(3), 1, _hom(1, (1,), (1,), (1,)))
    sym = symmetric_square_cocycle(ext)
    yield "squared corner class at 1 is not principal", "stated", False, sym.trivial


ENTRIES: tuple[CorpusEntry, ...] = (
    CorpusEntry(
        "eg-4.1-p3",
        "eg41.pres",
        None,
        "three generators at p=3, trivial coefficients: matrix, divisor, "
        "zero, crossed homomorphisms, extensions",
        _checks_eg41,
    ),
    CorpusEntry(
        "eg-4.2-p2",
        "eg42.pres",
        None,
        "five relators at p=2: quadratic divisor with two rational zeros",
        _checks_eg42,
    ),
    CorpusEntry(
        "eg-4.3-p5",
        "eg43.pres",
        None,
        "two generators at p=5: irreducible divisor, obstructed residue",
        _checks_eg43,
    ),
    CorpusEntry(
        "eg-4.3-p5-split",
        "eg43split.pres",
        None,
        "two-generator companion whose divisor splits over the integers",
        _checks_eg43split,
    ),
    CorpusEntry(
        "eg-4.4-p3",
        "eg41.pres",
        "eg44.rep",
        "two-dimensional coefficients: block matrix, quadratic divisor, "
        "constrained crossed homomorphisms at both zeros",
        _checks_eg44,
    ),
    CorpusEntry(
        "eg-4.5-p3",
        "eg41.pres",
        "eg45.rep",
        "two-dimensional coefficients with one corner dropped: linear "
        "divisor and a shifted constraint",
        _checks_eg45,
    ),
    CorpusEntry(
        "eg-5.1-p3",
        "eg41.pres",
        None,
        "scalar coefficients at the zero: quotient dimensions and witness",
        _checks_eg51,
    ),
    CorpusEntry(
        "eg-5.2-p3",
        "eg41.pres",
        "eg44.rep",
        "two-dimensional coefficients at 1: two independent classes",
        _checks_eg52,
    ),
    CorpusEntry(
        "eg-5.3-p3",
        "eg41.pres",
        "eg44.rep",
        "two-dimensional coefficients at the zero: one class, two witnesses",
        _checks_eg53,
    ),
    CorpusEntry(
        "eg-5.4-p3",
        "eg41.pres",
        "eg45.rep",
        "asymmetric two-dimensional coefficients at the zero",
        _checks_eg54,
    ),
    CorpusEntry(
        "eg-5.5-p3",
        "eg41.pres",
        "eg55.rep",
        "diagonal coefficients at 1/4: nonzero divisor value, one class, "
        "converse hypotheses fail",
        _checks_eg55,
    ),
)


def run(entry_id: str | None = None) -> list[CheckResult]:
    """Recompute the pinned examples and compare. Returns every check
    result; see ensure() for turning failures into an exception."""
    entries = [e for e in ENTRIES if entry_id in (None, e.entry_id)]
    if not entries:
        raise KeyError(f"unknown corpus entry {entry_id!r}")
    results: list[CheckResult] = []
    for entry in entries:
        pres = load_presentation(entry.presentation)
        if entry.representation is None:
            phi = Representation.trivial(pres.n_generators)
        else:
            phi = load_representation(entry.representation, pres)
        for name, source, expected, actual in entry.checks(pres, phi):
            results.append(
                CheckResult(
                    entry=entry.entry_id,
                    name=name,
                    source=source,
                    ok=expected == actual,
                    expected=str(expected),
                    actual=str(actual),
                )
            )
    return results


def ensure(results: list[CheckResult]) -> None:
    bad = [r for r in results if not r.ok]
    if bad:
        lines = [
            f"{r.entry}: {r.name}: expected {r.expected}, got {r.actual}" for r in bad
        ]
        raise GoldenMismatch(
            f"{len(bad)} corpus check(s) failed:\n" + "\n".join(lines)
        )
