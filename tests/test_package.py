"""The public surface: every exported name resolves, and the exported names
and LaurentPoly's public attributes are pinned."""

import propfox

EXPORTED = [
    "AlexanderMatrix",
    "CocycleSpace",
    "CohomologyReport",
    "CrossedHom",
    "DivisionByZero",
    "DuplicateGenerator",
    "ExtensionCount",
    "FittingResult",
    "GoldenMismatch",
    "HypothesisViolated",
    "IdenticallyZero",
    "InternalInconsistency",
    "LaurentPoly",
    "NotACocycle",
    "NotInvertible",
    "ParseError",
    "Presentation",
    "PropfoxError",
    "Rational",
    "Relator",
    "RelatorCheck",
    "Representation",
    "SpecializedRep",
    "SymSquareReport",
    "TheoremAudit",
    "TheoremViolation",
    "UnknownGenerator",
    "UsageError",
    "ValidationReport",
    "VerificationReport",
    "Word",
    "ZeroExponent",
    "ZeroReport",
    "alexander_matrix",
    "build_extension",
    "coboundary_matrix",
    "cocycle_space",
    "content_valuation",
    "evaluate_cocycle",
    "evaluate_word",
    "extension_count_criterion",
    "filter_unit_ball",
    "fitting_delta",
    "fixed_space",
    "format_laurent",
    "format_presentation",
    "format_rational",
    "format_representation",
    "format_word",
    "fox_derivative_matrix",
    "gcd_many",
    "h1_report",
    "hensel_roots",
    "is_coboundary",
    "is_zero_of_delta",
    "iwasawa_delta",
    "laurent_divides",
    "normalize_associate",
    "parse_laurent",
    "parse_presentation",
    "parse_rational",
    "parse_representation",
    "parse_word",
    "rank_at",
    "rational_roots",
    "specialize",
    "symmetric_square_cocycle",
    "theorem_audit",
    "total_degree",
    "unit_ball_check",
    "validate_presentation",
    "valuation",
    "verify_factors",
    "zero_report",
]

# den and form hold the value; terms and coeff are its Fraction views.
LAURENT_ATTRIBUTES = [
    "coeff",
    "den",
    "eval_at",
    "form",
    "from_form",
    "gamma",
    "is_one",
    "is_zero",
    "max_exp",
    "min_exp",
    "one",
    "scale",
    "shift",
    "terms",
    "zero",
]


def test_every_exported_name_resolves():
    assert len(set(propfox.__all__)) == len(propfox.__all__)
    missing = [name for name in propfox.__all__ if not hasattr(propfox, name)]
    assert missing == []
    namespace = {}
    exec("from propfox import *", namespace)
    assert set(propfox.__all__) <= set(namespace)


def test_the_public_names_are_pinned():
    assert sorted(propfox.__all__) == EXPORTED
    public = sorted(name for name in dir(propfox.LaurentPoly) if not name.startswith("_"))
    assert public == LAURENT_ATTRIBUTES
