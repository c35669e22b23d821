"""Coboundaries, quotient dimensions, symmetric squares, and the audit."""

from collections import Counter
from dataclasses import replace
from fractions import Fraction
from importlib import resources

import pytest

from propfox import cli, cohomology, corpus, extensions, fitting, matrices
from propfox import (
    CrossedHom,
    DivisionByZero,
    HypothesisViolated,
    InternalInconsistency,
    NotACocycle,
    Representation,
    alexander_matrix,
    build_extension,
    coboundary_matrix,
    cocycle_space,
    extension_count_criterion,
    fixed_space,
    h1_report,
    is_coboundary,
    is_zero_of_delta,
    parse_laurent,
    parse_presentation,
    specialize,
    symmetric_square_cocycle,
    theorem_audit,
)
from propfox.extensions import SpecializedRep, mat_vec
from propfox.fox import AlexanderMatrix


def F(*xs):
    return tuple(Fraction(x) for x in xs)


def hom1(*values):
    return CrossedHom.from_flat(F(*values), 1)


def test_coboundary_matrix_and_fixed_space(eg41, eg44rep):
    rho = specialize(eg41, eg44rep, Fraction(1))
    C = coboundary_matrix(rho)
    assert len(C) == 6 and len(C[0]) == 2
    assert C[0] == (Fraction(3), Fraction(1))
    assert C[1] == (Fraction(0), Fraction(0))
    basis = fixed_space(rho)
    assert basis == ((Fraction(-1, 3), Fraction(1)),)


def test_h1_dimensions_all_examples(eg41, eg44rep, eg45rep, eg55rep):
    trivial = Representation.trivial(3)
    expect = [
        (trivial, Fraction(4), (2, 1, 1, 0)),
        (eg44rep, Fraction(1), (3, 1, 2, 1)),
        (eg44rep, Fraction(4), (3, 2, 1, 0)),
        (eg45rep, Fraction(4), (3, 2, 1, 0)),
        (eg55rep, Fraction(1, 4), (2, 1, 1, 1)),
    ]
    for phi, a, dims in expect:
        rep = h1_report(eg41, phi, a)
        assert (rep.z1_dim, rep.b1_dim, rep.h1_dim, rep.fixed_dim) == dims


def test_h1_delta_value(eg41, eg55rep):
    rep = h1_report(eg41, eg55rep, Fraction(1, 4))
    assert rep.delta_value_at_a == Fraction(45, 16)
    rep = h1_report(eg41, Representation.trivial(3), Fraction(4))
    assert rep.delta_value_at_a == 0


def test_h1_requires_factoring(eg41):
    phi = Representation(1, (((Fraction(2),),), ((Fraction(1),),), ((Fraction(1),),)))
    with pytest.raises(HypothesisViolated):
        h1_report(eg41, phi, Fraction(1))


def test_is_coboundary_witnesses(eg41, eg44rep):
    rho = specialize(eg41, Representation.trivial(3), Fraction(4))
    witness = is_coboundary(hom1(1, 1, 1), rho)
    assert witness == (Fraction(1, 3),)
    assert is_coboundary(hom1(1, 1, 0), rho) is None
    with pytest.raises(NotACocycle):
        is_coboundary(hom1(1, 0, 0), rho)

    rho44 = specialize(eg41, eg44rep, Fraction(1))
    beta = CrossedHom.from_flat(F(1, 0, 1, 0, 1, 0), 2)
    assert is_coboundary(beta, rho44) == (Fraction(1, 3), Fraction(0))


def test_is_coboundary_rejects_a_mismatched_shape(eg41, eg44rep):
    rho = specialize(eg41, eg44rep, Fraction(4))
    with pytest.raises(ValueError, match="shape"):
        is_coboundary(hom1(0, 0, 0), rho)
    with pytest.raises(ValueError, match="shape"):
        is_coboundary(CrossedHom.from_flat(F(0, 0, 0, 0), 2), rho)


def test_witness_equation_holds(eg41):
    rho = specialize(eg41, Representation.trivial(3), Fraction(4))
    beta = hom1(1, 1, 1)
    v = is_coboundary(beta, rho)
    C = coboundary_matrix(rho)
    assert mat_vec(C, v) == beta.stacked()


def test_symmetric_square_trivial(eg41):
    ext = build_extension(eg41, Representation.trivial(3), Fraction(4), hom1(1, 1, 1))
    report = symmetric_square_cocycle(ext)
    assert report.trivial
    assert report.witness is not None
    assert len(report.images) == 3
    assert all(len(M) == 3 for M in report.images)


def test_symmetric_square_nontrivial(eg41):
    ext = build_extension(eg41, Representation.trivial(3), Fraction(4), hom1(1, 1, 0))
    report = symmetric_square_cocycle(ext)
    assert not report.trivial
    assert report.witness is None
    ext1 = build_extension(eg41, Representation.trivial(3), Fraction(1), hom1(1, 1, 1))
    report = symmetric_square_cocycle(ext1)
    assert not report.trivial


def test_symmetric_square_rejects(eg41, eg44rep):
    # wrong block size
    beta2 = CrossedHom.from_flat(F(1, 0, 1, 0, 1, 0), 2)
    ext3 = build_extension(eg41, eg44rep, Fraction(1), beta2)
    with pytest.raises(HypothesisViolated):
        symmetric_square_cocycle(ext3)
    # unverified: the assignment is not a crossed homomorphism
    bad = build_extension(eg41, Representation.trivial(3), Fraction(4), hom1(1, 0, 0))
    with pytest.raises(HypothesisViolated):
        symmetric_square_cocycle(bad)


def test_theorem_audit_consistent(eg41, eg44rep):
    audit = theorem_audit(eg41, Representation.trivial(3), Fraction(4))
    assert audit.forward_applicable and audit.converse_applicable
    assert audit.forward_verdict == "consistent"
    assert audit.converse_verdict == "consistent"
    assert audit.verdict == "consistent"
    assert audit.cohomology.h1_dim == 1 and audit.cohomology.fixed_dim == 0 and audit.delta_zero is True

    audit = theorem_audit(eg41, eg44rep, Fraction(1))
    assert audit.forward_verdict == "consistent"
    assert audit.converse_applicable is False
    assert audit.converse_verdict == "hypothesis violated, not applicable"


def test_theorem_audit_away_from_zero(eg41):
    audit = theorem_audit(eg41, Representation.trivial(3), Fraction(7))
    assert audit.forward_verdict == "consistent"
    assert audit.delta_zero is False
    assert audit.cohomology.h1_dim == 0


def test_theorem_audit_gates(eg41):
    audit = theorem_audit(eg41, Representation.trivial(3), Fraction(0))
    assert not audit.forward_applicable and not audit.converse_applicable
    assert audit.cohomology is None
    assert audit.verdict == "hypothesis violated, not applicable"
    assert any("zero" in f for f in audit.hypothesis_failures)

    phi = Representation(1, (((Fraction(2),),), ((Fraction(1),),), ((Fraction(1),),)))
    audit = theorem_audit(eg41, phi, Fraction(1))
    assert not audit.forward_applicable
    assert audit.hypothesis_failures != ()


def test_theorem_audit_unit_ball_gate(eg41):
    audit = theorem_audit(eg41, Representation.trivial(3), Fraction(2))
    assert not audit.forward_applicable
    assert any("unit ball" in f or "congruent" in f for f in audit.hypothesis_failures)


@pytest.fixture
def point_counts(monkeypatch):
    """Counts of relator verifications, specializations of the relation
    matrix (to integer rows or to Fractions) and nullspace eliminations,
    wherever the library looks them up."""
    counts = Counter()

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        SpecializedRep, "factors_through", counted("verify", SpecializedRep.factors_through)
    )
    for name in ("rows_at", "specialize"):
        monkeypatch.setattr(
            AlexanderMatrix, name, counted("specialize", getattr(AlexanderMatrix, name))
        )
    nullspace = counted("nullspace", matrices.rank_nullspace)
    for module in (cohomology, fitting):
        monkeypatch.setattr(module, "rank_nullspace", nullspace)
    return counts


@pytest.mark.parametrize(
    "call, specialize_count, nullspace_count",
    [
        pytest.param(cocycle_space, 1, 1, id="cocycle_space"),
        pytest.param(h1_report, 1, 2, id="h1_report"),
        pytest.param(theorem_audit, 1, 2, id="theorem_audit"),
        pytest.param(extension_count_criterion, 1, 1, id="extension_count_criterion"),
    ],
)
def test_public_calls_build_the_relation_matrix_once(
    relation_memo, point_counts, eg41, call, specialize_count, nullspace_count
):
    call(eg41, Representation.trivial(3), Fraction(4))
    assert relation_memo.cache_info().misses == 1
    assert point_counts["verify"] <= 1
    assert (point_counts["specialize"], point_counts["nullspace"]) == (
        specialize_count,
        nullspace_count,
    )


def test_cli_cohomology_runs_each_point_step_once(point_counts, capsys):
    path = str(resources.files("propfox") / "corpus_data" / "eg41.pres")
    assert cli.main(["cohomology", path, "--at", "4"]) == 0
    assert "audit forward: consistent" in capsys.readouterr().out
    assert dict(point_counts) == {"verify": 1, "specialize": 1, "nullspace": 2}


def test_audit_carries_the_report_exactly_when_h1_report_succeeds(eg41):
    trivial = Representation.trivial(3)
    non_factoring = Representation(
        1, (((Fraction(2),),), ((Fraction(1),),), ((Fraction(1),),))
    )
    degree_one = parse_presentation("prime 3\ngenerators a b\nrelator a*b\n")
    for pres, phi, a, error in [
        (eg41, trivial, Fraction(0), DivisionByZero),
        (eg41, non_factoring, Fraction(1), HypothesisViolated),
        (degree_one, Representation.trivial(2), Fraction(4), HypothesisViolated),
    ]:
        assert theorem_audit(pres, phi, a).cohomology is None
        with pytest.raises(error):
            h1_report(pres, phi, a)
    for a in (Fraction(2), Fraction(4)):
        audit = theorem_audit(eg41, trivial, a)
        assert audit.cohomology == h1_report(eg41, trivial, a)
    assert theorem_audit(eg41, trivial, Fraction(2)).hypothesis_failures != ()


def test_rank_and_divisor_routes_stay_independent(monkeypatch, eg41):
    """With the divisor at d = 1 replaced by g - 5, which does not vanish at
    4 where the rank still drops, every comparison of the two routes
    raises."""
    real = fitting.fitting_delta

    def planted(Q, d):
        result = real(Q, d)
        return replace(result, delta=parse_laurent("g - 5")) if d == 1 else result

    for module in (fitting, extensions, cohomology):
        monkeypatch.setattr(module, "fitting_delta", planted)
    trivial = Representation.trivial(3)
    with pytest.raises(InternalInconsistency):
        is_zero_of_delta(alexander_matrix(eg41, trivial), 1, Fraction(4))
    with pytest.raises(InternalInconsistency):
        extension_count_criterion(eg41, trivial, Fraction(4), k=2)
    with pytest.raises(InternalInconsistency):
        theorem_audit(eg41, trivial, Fraction(4))


def test_equal_inputs_share_one_build(relation_memo, capsys):
    for call in (cocycle_space, h1_report, theorem_audit, extension_count_criterion):
        call(corpus.load_presentation("eg41.pres"), Representation.trivial(3), Fraction(4))
    path = str(resources.files("propfox") / "corpus_data" / "eg41.pres")
    assert cli.main(["cohomology", path, "--at", "4"]) == 0
    assert "audit forward: consistent" in capsys.readouterr().out
    info = relation_memo.cache_info()
    assert (info.misses, info.currsize) == (1, 1)
    assert info.hits >= 5
