"""Exception types shared across the package."""


class FpkitError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(FpkitError):
    """A vector or matrix has a dimension incompatible with the operation."""


class NonFiniteResult(FpkitError):
    """Evaluating a mapping produced NaN or infinity."""


class InvariantViolation(FpkitError):
    """A structural invariant of a value is broken (non-finite entry, lo > hi, ...)."""


class SchemaError(FpkitError):
    """A document does not match the expected JSON layout."""


class ParameterOutOfRange(FpkitError):
    """A numeric parameter lies outside its admissible range."""


class InsufficientData(FpkitError):
    """A diagnostic needs more usable samples than the input provides."""


class ConfigError(FpkitError):
    """An experiment configuration is invalid; the message names the field."""


class IoError(FpkitError):
    """Reading or writing an artifact failed."""
