"""Exception taxonomy.

Three broad families map onto CLI exit codes: validation failures (exit 2),
precision/budget exhaustion (exit 3), and configuration problems (exit 4).
The CLI tells errors apart by family alone, so a leaf class stays only where
some code needs its name: `validate` reports the four system-invariant
leaves by name (WeightSumError, NonContractingMap, HullNotInvariant,
DegenerateFixedPoints), and NonContractingMap, BallStraddlesCut and
StreamExhausted are caught by type.  Every other failure raises its
family's plain leaf, InvalidInput or PrecisionExhausted, with a message
that says what went wrong.
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


class InvalidInput(ValidationError):
    """An argument violates a documented precondition."""


# ---------------------------------------------------------- precision/budget

class PrecisionError(NormalityLabError):
    """Base class for certified-precision failures."""


class PrecisionExhausted(PrecisionError):
    """Could not reach the required precision within the allowed depth."""


class BallStraddlesCut(PrecisionError):
    """A certified ball straddles an integer cut of the mod-1 map."""


class StreamExhausted(PrecisionError):
    """A finite word refused extension during lazy sampling."""


# -------------------------------------------------------------------- config

class ConfigParseError(NormalityLabError):
    """Malformed configuration, rational literal, or system file."""
