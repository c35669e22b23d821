"""Coboundaries, quotient dimensions, symmetric squares, and the audit."""

from fractions import Fraction
from importlib import resources

import pytest

from propfox import cli, corpus
from propfox import (
    CrossedHom,
    HypothesisViolated,
    NotACocycle,
    Representation,
    build_extension,
    coboundary_matrix,
    cocycle_space,
    extension_count_criterion,
    fixed_space,
    h1_report,
    is_coboundary,
    specialize,
    symmetric_square_cocycle,
    theorem_audit,
)
from propfox.extensions import mat_vec


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
    assert audit.h1_dim == 1 and audit.fixed_dim == 0 and audit.delta_zero is True

    audit = theorem_audit(eg41, eg44rep, Fraction(1))
    assert audit.forward_verdict == "consistent"
    assert audit.converse_applicable is False
    assert audit.converse_verdict == "hypothesis violated, not applicable"


def test_theorem_audit_away_from_zero(eg41):
    audit = theorem_audit(eg41, Representation.trivial(3), Fraction(7))
    assert audit.forward_verdict == "consistent"
    assert audit.delta_zero is False
    assert audit.h1_dim == 0


def test_theorem_audit_gates(eg41):
    audit = theorem_audit(eg41, Representation.trivial(3), Fraction(0))
    assert not audit.forward_applicable and not audit.converse_applicable
    assert audit.h1_dim is None
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


@pytest.mark.parametrize(
    "call",
    [cocycle_space, h1_report, theorem_audit, extension_count_criterion],
    ids=lambda f: f.__name__,
)
def test_public_calls_build_the_relation_matrix_once(monkeypatch, relation_memo, eg41, call):
    from propfox.extensions import SpecializedRep

    checks = []
    check = SpecializedRep.factors_through

    def counted_check(self):
        checks.append(self)
        return check(self)

    monkeypatch.setattr(SpecializedRep, "factors_through", counted_check)
    call(eg41, Representation.trivial(3), Fraction(4))
    assert relation_memo.cache_info().misses == 1
    assert len(checks) <= 1


def test_equal_inputs_share_one_build(relation_memo, capsys):
    for call in (cocycle_space, h1_report, theorem_audit, extension_count_criterion):
        call(corpus.load_presentation("eg41.pres"), Representation.trivial(3), Fraction(4))
    path = str(resources.files("propfox") / "corpus_data" / "eg41.pres")
    assert cli.main(["cohomology", path, "--at", "4"]) == 0
    assert "audit forward: consistent" in capsys.readouterr().out
    info = relation_memo.cache_info()
    assert (info.misses, info.currsize) == (1, 1)
    assert info.hits >= 5
