"""Degree-one cohomology of a presented group with coefficients in a
specialized representation, and the audit tying its non-vanishing to the
zeros of the determinant divisor.

Crossed homomorphisms modulo principal ones: the numerator is the nullspace
of the specialized relation matrix, the denominator is the image of
v -> (rho(g_i) v - v)_i. The quotient dimension is compared against the
divisor value at the evaluation point in both directions, each gated on its
own hypotheses.

h1_report keeps its report for the fox.MEMO_SIZE (presentation,
representation, point) triples used last, with 4 and Fraction(4) one
point, so its checks (the relator check and h1 >= 0) run once per point; a
call that raises keeps nothing. theorem_audit is not kept: its hypothesis
checks and its comparison of the two routes run on every call, on the
kept report.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import (
    HypothesisViolated,
    InternalInconsistency,
    NotACocycle,
    TheoremViolation,
)
from .extensions import (
    CrossedHom,
    SpecializedRep,
    _corner_column,
    _extend,
    cocycle_space,
    specialize,
)
from .fitting import fitting_delta, zero_by_both_routes
from .fox import MEMO_SIZE, Representation, alexander_matrix
from .matrices import freeze, integral_row, rank_nullspace, scaled_inverse, solve, to_scaled
from .presentation import Presentation, validate_presentation
from .scalars import Rational, unit_ball_check


def coboundary_matrix(rho: SpecializedRep):
    """The stacked blocks rho(g_i) - I, one block per generator: the matrix
    of v -> (values of the principal crossed homomorphism of v), as the
    Fraction view of _coboundary_rows."""
    return tuple(tuple(Fraction(x, den) for x in row) for row, den in _coboundary_rows(rho))


def _coboundary_rows(rho: SpecializedRep):
    """The blocks rho(g_i) - I, each block times its image's denominator:
    integer rows with the same nullspace, and the denominator of each
    row."""
    return [
        ([x - den * (r == c) for c, x in enumerate(row)], den)
        for rows, den in rho.scaled
        for r, row in enumerate(rows)
    ]


def fixed_space(rho: SpecializedRep):
    """Basis of the common eigenvalue-one eigenspace of the generator
    images."""
    _, basis = rank_nullspace([row for row, _ in _coboundary_rows(rho)], rho.dim)
    return basis


@dataclass(frozen=True)
class CohomologyReport:
    a: Fraction
    ell: int
    z1_dim: int
    b1_dim: int
    h1_dim: int
    fixed_dim: int
    delta_value_at_a: Fraction
    cocycle_basis: tuple
    fixed_basis: tuple


@lru_cache(maxsize=MEMO_SIZE)
def h1_report(pres: Presentation, phi: Representation, a: Rational) -> CohomologyReport:
    """Dimensions of crossed homomorphisms, principal ones, and the
    quotient, for coefficients in the specialization of phi at a. The
    MEMO_SIZE triples used last are kept (see the module docstring)."""
    rho = specialize(pres, phi, a)
    if not rho.factors_through():
        raise HypothesisViolated(
            "the specialized images do not kill the relators, so they carry "
            "no action of the presented group"
        )
    space = cocycle_space(pres, phi, rho.a)
    fixed_basis = fixed_space(rho)
    b1 = rho.dim - len(fixed_basis)
    h1 = space.dim - b1
    if h1 < 0:
        raise InternalInconsistency(
            f"principal dimension {b1} exceeds the full space {space.dim}"
        )
    delta = fitting_delta(alexander_matrix(pres, phi), rho.dim).delta
    return CohomologyReport(
        a=rho.a,
        ell=rho.dim,
        z1_dim=space.dim,
        b1_dim=b1,
        h1_dim=h1,
        fixed_dim=len(fixed_basis),
        delta_value_at_a=delta.eval_at(rho.a),
        cocycle_basis=space.basis,
        fixed_basis=tuple(fixed_basis),
    )


def is_coboundary(beta: CrossedHom, rho: SpecializedRep):
    """A witness vector v with beta(g_i) = rho(g_i) v - v for every i, or
    None when beta is not principal. Rejects assignments that are not
    crossed homomorphisms in the first place: those with a nonzero value on
    some relator, read off the corner of the extension of rho by beta."""
    report = validate_presentation(rho.pres)
    if not report.ok:
        raise HypothesisViolated("; ".join(report.failures))
    ext = _extend(rho, beta)
    if any(any(_corner_column(ext, rel.flatten())) for rel in rho.pres.relators):
        raise NotACocycle(
            "the generator assignment violates the relator constraints"
        )
    rows = _coboundary_rows(rho)
    return solve(
        [integral_row([*row, den * y]) for (row, den), y in zip(rows, beta.stacked())], rho.dim
    )


def _sym_square_2x2(M):
    """Action on the squares basis (x^2, xy, y^2) induced by a 2x2 upper
    triangular matrix acting on (x, y)."""
    (m00, m01), (_, m11) = M
    return freeze(
        [
            [m00 * m00, m00 * m01, m01 * m01],
            [Fraction(0), m00 * m11, 2 * m01 * m11],
            [Fraction(0), Fraction(0), m11 * m11],
        ]
    )


@dataclass(frozen=True)
class SymSquareReport:
    a: Fraction
    images: tuple
    coeff_images: tuple
    beta: CrossedHom
    trivial: bool
    witness: tuple | None


def symmetric_square_cocycle(ext2: SpecializedRep) -> SymSquareReport:
    """Push a verified two-dimensional block-triangular candidate through
    the squares construction. The result is again block triangular, one
    dimension up, and its corner column is a crossed homomorphism for the
    doubled coefficient system; report whether that class is principal."""
    if ext2.dim != 2:
        raise HypothesisViolated("the squares construction expects 2x2 images")
    if not ext2.factors_through():
        raise HypothesisViolated("the candidate does not kill the relators")
    images = tuple(_sym_square_2x2(M) for M in ext2.mats)
    a = ext2.a
    coeff = tuple(freeze([row[:2] for row in S[:2]]) for S in images)
    scaled = tuple(map(to_scaled, coeff))
    rho1 = SpecializedRep(ext2.pres, a, scaled, tuple(map(scaled_inverse, scaled)))
    beta = CrossedHom(2, tuple((S[0][2], S[1][2]) for S in images))
    try:
        witness = is_coboundary(beta, rho1)
    except NotACocycle as exc:
        raise InternalInconsistency(
            f"the squared corner column failed the relator constraints: {exc}"
        )
    return SymSquareReport(
        a=a,
        images=images,
        coeff_images=coeff,
        beta=beta,
        trivial=witness is not None,
        witness=witness,
    )


_NOT_APPLICABLE = "hypothesis violated, not applicable"
_CONSISTENT = "consistent"


@dataclass(frozen=True)
class TheoremAudit:
    a: Fraction
    hypothesis_failures: tuple
    forward_applicable: bool
    forward_verdict: str
    converse_applicable: bool
    converse_verdict: str
    delta_zero: bool | None
    cohomology: CohomologyReport | None

    @property
    def verdict(self) -> str:
        if not self.forward_applicable and not self.converse_applicable:
            return _NOT_APPLICABLE
        return _CONSISTENT


def theorem_audit(pres: Presentation, phi: Representation, a: Rational) -> TheoremAudit:
    """Check both implications between divisor vanishing and nonzero
    quotient cohomology, each only when its hypotheses hold. A failure of an
    applicable implication is a bug in this library or a counterexample, and
    either way it must crash, not report. The audit carries the cohomology
    report it computed, also when a later hypothesis fails, or None."""
    a = Fraction(a)
    failures: list[str] = []
    coh = None
    report = validate_presentation(pres)
    if not report.ok:
        failures.extend(report.failures)
    if a == 0:
        failures.append("the evaluation point is zero")
    elif report.ok:
        try:
            coh = h1_report(pres, phi, a)
        except HypothesisViolated:
            failures.append("the specialized images do not kill the relators")
    if a != 0 and not unit_ball_check(a, pres.prime):
        failures.append(
            "the evaluation point is not in the open unit ball around 1"
        )
    if failures:
        return TheoremAudit(
            a=a,
            hypothesis_failures=tuple(failures),
            forward_applicable=False,
            forward_verdict=_NOT_APPLICABLE,
            converse_applicable=False,
            converse_verdict=_NOT_APPLICABLE,
            delta_zero=None,
            cohomology=coh,
        )
    dz = zero_by_both_routes(coh.delta_value_at_a, coh.z1_dim, coh.ell, a)
    if dz and coh.h1_dim == 0:
        raise TheoremViolation(
            f"the divisor vanishes at a={a} but the quotient cohomology is "
            "zero"
        )
    converse_applicable = coh.fixed_dim == 0
    if converse_applicable and coh.h1_dim > 0 and not dz:
        raise TheoremViolation(
            f"no common fixed vector and nonzero quotient cohomology at a={a}, "
            "yet the divisor does not vanish"
        )
    return TheoremAudit(
        a=a,
        hypothesis_failures=(),
        forward_applicable=True,
        forward_verdict=_CONSISTENT,
        converse_applicable=converse_applicable,
        converse_verdict=_CONSISTENT if converse_applicable else _NOT_APPLICABLE,
        delta_zero=dz,
        cohomology=coh,
    )
