"""Exception types shared across the package.

Everything a caller can plausibly trigger with bad input derives from
PropfoxError. InternalInconsistency and TheoremViolation deliberately do not:
they mark bugs (two independent computations of the same quantity disagreeing,
or a proved implication failing on valid input) and should crash loudly rather
than be swallowed by a CLI error handler.
"""


class PropfoxError(Exception):
    """Base class for expected, input-triggerable errors."""


class ParseError(PropfoxError):
    """Malformed presentation or representation text.

    Carries 1-based line and column when known so the CLI can point at the
    offending token.
    """

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.line = line
        self.col = col
        if line is not None:
            where = f"line {line}" + (f", col {col}" if col is not None else "")
            message = f"{where}: {message}"
        super().__init__(message)


class ZeroExponent(ParseError):
    """An exponent of 0 appeared in a word; words are stored reduced."""


class UnknownGenerator(ParseError):
    """A word used an identifier that is not a declared generator."""


class DuplicateGenerator(ParseError):
    """The same generator name was declared twice."""


class NotInvertible(PropfoxError):
    """A matrix inverse was needed but does not exist (or is not available
    in the ring at hand)."""


class DivisionByZero(PropfoxError):
    """Evaluation or specialization at 0 where negative powers occur, or an
    evaluation point of 0 where a nonzero unit is required."""


class IdenticallyZero(PropfoxError):
    """Root finding was asked for the zero polynomial, whose zero set is
    everything; the report path records this as a flag instead."""


class HypothesisViolated(PropfoxError):
    """The presentation fails the degree-zero / weight-one hypotheses that
    the matrix constructions assume, and no override was given."""


class NotACocycle(PropfoxError):
    """A coboundary test was asked for a map that is not a crossed
    homomorphism for the given local system."""


class GoldenMismatch(PropfoxError):
    """A bundled corpus check produced a value different from its stored
    expectation."""


class InputTooLarge(PropfoxError):
    """A short input asks for more than a bound in propfox.scalars allows:
    relator words of more than MAX_WORD_SYLLABLES syllables, or a relation
    matrix spanning more than MAX_MATRIX_SPAN coefficients."""


class UsageError(PropfoxError):
    """Bad command-line usage (unknown flag, missing argument, bad number)."""


class InternalInconsistency(RuntimeError):
    """Two routes that must agree (for example rank drop versus polynomial
    evaluation) disagreed. Always a bug, never a user error."""


class TheoremViolation(RuntimeError):
    """An implication that holds under verified hypotheses failed. Always a
    bug, never a user error."""
