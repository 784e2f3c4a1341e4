"""Exception taxonomy.

Three broad families map onto CLI exit codes: validation failures (exit 2),
precision/budget exhaustion (exit 3), and configuration problems (exit 4).
"""


class NormalityLabError(Exception):
    """Base class for all errors raised by this package."""


# ---------------------------------------------------------------- validation

class ValidationError(NormalityLabError):
    """A system or input failed an exact invariant check."""


class WeightSumError(ValidationError):
    """Probability weights are not strictly positive or do not sum to 1."""


class NonContractingMap(ValidationError):
    """A map has slope 0 or |slope| >= 1."""


class HullNotInvariant(ValidationError):
    """Some map does not send the declared hull into itself."""


class DegenerateFixedPoints(ValidationError):
    """All maps share one fixed point, so the attractor is a single point."""


class DegenerateHull(ValidationError):
    """The hull is a single point and cannot be normalized to [0, 1]."""


class SymbolOutOfRange(ValidationError):
    """A word symbol does not index a map of the system."""


class BasePointOutsideHull(ValidationError):
    """The coding-map base point must lie in the hull."""


class InvalidInput(ValidationError):
    """An argument violates a documented precondition."""


class ReduciblePolynomial(ValidationError):
    """Polynomial is reducible over Q; minimal polynomials must be irreducible."""


class NotAlgebraicInteger(ValidationError):
    """Polynomial is not monic with integer coefficients."""


class SupportTooWide(ValidationError):
    """Test-function support exceeds half the sequence length."""


class KOutOfRange(ValidationError):
    """Correlation order k outside the supported range 2..4."""


class BlockLongerThanStream(ValidationError):
    """Requested block length exceeds the certified digit prefix."""


class InsufficientBands(ValidationError):
    """Too few successful decay bands to fit a regime."""


# ---------------------------------------------------------- precision/budget

class PrecisionError(NormalityLabError):
    """Base class for certified-precision failures."""


class PrecisionExhausted(PrecisionError):
    """Could not reach the required precision within the allowed depth."""


class NonConvergence(PrecisionError):
    """Hull iteration/solving failed; a non-contracting input slipped through."""


class BallStraddlesCut(PrecisionError):
    """A certified ball straddles an integer cut of the mod-1 map."""


class InsufficientDigits(PrecisionError):
    """Digit stream too short for the requested orbit length."""


class StreamExhausted(PrecisionError):
    """A finite word refused extension during lazy sampling."""


# -------------------------------------------------------------------- config

class ConfigParseError(NormalityLabError):
    """Malformed configuration, rational literal, or system file."""
