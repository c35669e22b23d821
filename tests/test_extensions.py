"""Crossed homomorphisms, block-triangular extensions, and the count criterion."""

import copy
import time
from fractions import Fraction

import pytest

from propfox import (
    CrossedHom,
    DivisionByZero,
    HypothesisViolated,
    Representation,
    alexander_matrix,
    build_extension,
    cocycle_space,
    evaluate_cocycle,
    extension_count_criterion,
    format_presentation,
    parse_presentation,
    parse_word,
    specialize,
    verify_factors,
)
from propfox import corpus, extensions, fox, matrices
from propfox.extensions import mat_vec

from matrices_oracle import mat_mul, oracle_identity


def F(*xs):
    return tuple(Fraction(x) for x in xs)


def hom1(*values):
    return CrossedHom.from_flat(F(*values), 1)


def test_specialize_and_factoring(eg41, eg44rep):
    rho = specialize(eg41, eg44rep, Fraction(1))
    assert rho.factors_through()
    rho4 = specialize(eg41, eg44rep, Fraction(4))
    assert rho4.factors_through()
    with pytest.raises(DivisionByZero):
        specialize(eg41, eg44rep, Fraction(0))


def test_equal_inputs_share_one_specialized_rep(monkeypatch, eg41, eg44rep):
    """specialize hands out one object per equal (presentation,
    representation, point); extending it leaves its images as they were,
    and its relator check runs once."""
    rho = specialize(eg41, eg44rep, 4)
    again = specialize(
        parse_presentation(format_presentation(eg41)),
        corpus.load_representation("eg44.rep", eg41),
        Fraction(4),
    )
    assert again is rho
    scaled, scaled_invs = rho.scaled, rho.scaled_invs
    kept = copy.deepcopy((scaled, scaled_invs))
    beta = cocycle_space(eg41, eg44rep, 4).basis[0]
    assert verify_factors(build_extension(eg41, eg44rep, 4, beta), eg41).ok
    extensions._extend(rho, beta.scale(3))
    assert rho.scaled is scaled and rho.scaled_invs is scaled_invs
    assert (rho.scaled, rho.scaled_invs) == kept
    assert rho.factors_through()
    products = []

    def counted(*args):
        products.append(args)
        return fox.scaled_image(*args)

    monkeypatch.setattr(extensions, "scaled_image", counted)
    assert specialize(eg41, eg44rep, 4).factors_through()
    assert products == []


def test_specialize_scales_by_weight():
    pres = parse_presentation("prime 3\ngenerators a b\nrelator a*b = b*a")
    phi = Representation.trivial(2)
    rho = specialize(pres, phi, Fraction(5))
    assert rho.mats[0] == ((Fraction(5),),)
    assert rho.invs[1] == ((Fraction(1, 5),),)


def test_non_factoring_representation(eg41):
    phi = Representation(
        1,
        (((Fraction(2),),), ((Fraction(1),),), ((Fraction(1),),)),
    )
    rho = specialize(eg41, phi, Fraction(1))
    assert not rho.factors_through()


def test_cocycle_space_eg41(eg41):
    space = cocycle_space(eg41, Representation.trivial(3), Fraction(4))
    assert space.dim == 2
    assert space.ell == 1
    assert [h.stacked() for h in space.basis] == [F(1, 1, 0), F(0, 0, 1)]
    away = cocycle_space(eg41, Representation.trivial(3), Fraction(2))
    assert away.dim == 1
    with pytest.raises(DivisionByZero):
        cocycle_space(eg41, Representation.trivial(3), Fraction(0))


def test_cocycle_space_rejects_invalid():
    bad = parse_presentation("prime 3\ngenerators a b\nrelator a^3")
    with pytest.raises(HypothesisViolated):
        cocycle_space(bad, Representation.trivial(2), Fraction(1))


def test_build_extension_block_form(eg41):
    beta = hom1(1, 1, 0)
    cand = build_extension(eg41, Representation.trivial(3), Fraction(4), beta)
    assert cand.dim == 2
    assert cand.mats[0] == ((Fraction(4), Fraction(1)), (Fraction(0), Fraction(1)))
    assert cand.mats[2] == ((Fraction(4), Fraction(0)), (Fraction(0), Fraction(1)))
    ident = oracle_identity(cand.dim)
    for i in range(3):
        assert mat_mul(cand.mats[i], cand.invs[i]) == ident


def test_verify_factors_pass_and_fail(eg41):
    good = build_extension(eg41, Representation.trivial(3), Fraction(4), hom1(1, 1, 0))
    report = verify_factors(good, eg41)
    assert report.ok
    assert all(c.ok for c in report.relators)
    bad = build_extension(eg41, Representation.trivial(3), Fraction(4), hom1(1, 0, 0))
    report = verify_factors(bad, eg41)
    assert not report.ok
    assert all(not c.ok for c in report.relators)
    assert report.relators[0].image == (
        (Fraction(1), Fraction(-9)),
        (Fraction(0), Fraction(1)),
    )


def test_verify_factors_reports_the_images_from_scaled_builds(eg41, eg44rep):
    """Each report equals the one built with from_scaled for every
    relator, passing ones included, and passing relators of one dimension
    share one identity matrix."""
    for phi, beta in [
        (Representation.trivial(3), hom1(1, 1, 0)),
        (Representation.trivial(3), hom1(1, 0, 0)),
        (eg44rep, cocycle_space(eg41, eg44rep, 4).basis[0]),
    ]:
        cand = build_extension(eg41, phi, Fraction(4), beta)
        report = verify_factors(cand, eg41)
        checks = []
        for rel in eg41.relators:
            image = fox.scaled_image(cand, rel.flatten())
            checks.append(
                extensions.RelatorCheck(
                    ok=matrices.is_scaled_identity(image), image=matrices.from_scaled(image)
                )
            )
        assert report == extensions.VerificationReport(
            ok=all(c.ok for c in checks), relators=tuple(checks)
        )
    good = verify_factors(
        build_extension(eg41, Representation.trivial(3), Fraction(4), hom1(1, 1, 0)), eg41
    )
    assert good.relators[0].image is good.relators[-1].image == oracle_identity(2)


def test_evaluate_cocycle_vanishes_on_relators(eg41):
    rho = specialize(eg41, Representation.trivial(3), Fraction(4))
    for beta_vals in [(1, 1, 0), (0, 0, 1)]:
        beta = hom1(*beta_vals)
        for rel in eg41.relators:
            value = evaluate_cocycle(beta, rho, rel.flatten())
            assert value == (Fraction(0),)


def test_evaluate_cocycle_on_generators(eg41):
    rho = specialize(eg41, Representation.trivial(3), Fraction(4))
    beta = hom1(2, 3, 5)
    gens = eg41.generators
    for i, expected in enumerate([2, 3, 5]):
        w = parse_word(gens[i], gens)
        assert evaluate_cocycle(beta, rho, w) == (Fraction(expected),)
    # cocycle rule on a product: value(uv) = value(u) + rho(u) value(v)
    u = parse_word("g1*g2", gens)
    v = parse_word("g3^-1", gens)
    left = evaluate_cocycle(beta, rho, u * v)
    from propfox.fox import evaluate_word

    ru = evaluate_word(rho, u)
    right = tuple(
        a + b for a, b in zip(evaluate_cocycle(beta, rho, u), mat_vec(ru, evaluate_cocycle(beta, rho, v)))
    )
    assert left == right


def test_evaluate_cocycle_rejects_a_mismatched_shape(eg41, eg44rep):
    rho = specialize(eg41, eg44rep, Fraction(4))
    w = parse_word("g1*g2", eg41.generators)
    with pytest.raises(ValueError, match="shape"):
        evaluate_cocycle(hom1(0, 0, 0), rho, w)
    with pytest.raises(ValueError, match="shape"):
        evaluate_cocycle(CrossedHom.from_flat(F(0, 0, 0, 0), 2), rho, w)


def test_extension_count_criterion(eg41, eg44rep):
    c = extension_count_criterion(eg41, Representation.trivial(3), Fraction(4))
    assert (c.dim, c.k, c.meets_k, c.delta_zero) == (2, 2, True, True)
    c = extension_count_criterion(eg41, Representation.trivial(3), Fraction(2))
    assert (c.dim, c.k, c.meets_k, c.delta_zero) == (1, 2, False, False)
    c = extension_count_criterion(eg41, eg44rep, Fraction(1), k=3)
    assert (c.dim, c.k, c.meets_k, c.delta_zero) == (3, 3, True, True)


def test_crossed_hom_algebra():
    a = hom1(1, 2, 3)
    b = hom1(0, 1, -1)
    assert (a + b).stacked() == F(1, 3, 2)
    assert a.scale(Fraction(2)).stacked() == F(2, 4, 6)
    two_dim = CrossedHom.from_flat(F(1, 2, 3, 4), 2)
    assert two_dim.ell == 2
    assert two_dim.vectors == (F(1, 2), F(3, 4))
    assert two_dim.stacked() == F(1, 2, 3, 4)


def test_nullspace_membership_matches_verification(eg41):
    Q = alexander_matrix(eg41)
    Qa = Q.specialize(Fraction(4))
    for vals, expect in [((1, 1, 0), True), ((0, 0, 1), True), ((1, 0, 0), False), ((2, 2, 5), True)]:
        beta = hom1(*vals)
        flat = beta.stacked()
        in_null = all(
            sum(r * x for r, x in zip(row, flat)) == 0 for row in Qa
        )
        cand = build_extension(eg41, Representation.trivial(3), Fraction(4), beta)
        assert verify_factors(cand, eg41).ok == in_null == expect


def test_verify_factors_on_long_powers_is_fast():
    """Relators with syllables of 46 and 92 letters and a 1600-fold power,
    as in the long-word benchmark family: the explicit relator products
    stay well inside the bound."""
    pres = parse_presentation(
        "prime 101\ngenerators x0 x1\n"
        "relator x0^46*x1^-46\nrelator x0^92*x1^-92\n"
        "relator [x0^46,(x1*x0^-1)^1600]\n"
    )
    phi = Representation.trivial(2)
    a = Fraction(-1)
    cand = build_extension(pres, phi, a, cocycle_space(pres, phi, a).basis[0])
    start = time.perf_counter()
    report = verify_factors(cand, pres)
    elapsed = time.perf_counter() - start
    assert report.ok
    assert elapsed < 2.0


def test_verify_factors_on_a_long_commutator_makes_logarithmically_many_products(monkeypatch):
    """The relator [x0^2, (x1*x0^-1)^n] with n = 200,000 has 4n syllables
    in two runs of a two-syllable block, so its image takes O(log n)
    scaled products, counted here, where one product per syllable took
    about 4n."""
    n = 200_000
    pres = parse_presentation(
        "prime 3\ngenerators x0 x1\n"
        f"relator x0^4*x1^-4\nrelator x0^6*x1^-6\nrelator [x0^2,(x1*x0^-1)^{n}]\n"
    )
    cand = build_extension(pres, Representation.trivial(2), Fraction(-1), hom1(1, 0))
    calls = 0
    product = matrices.scaled_mul

    def counted(A, B):
        nonlocal calls
        calls += 1
        return product(A, B)

    monkeypatch.setattr(matrices, "scaled_mul", counted)
    monkeypatch.setattr(fox, "scaled_mul", counted)
    assert verify_factors(cand, pres).ok
    assert 0 < calls <= 8 * n.bit_length()
