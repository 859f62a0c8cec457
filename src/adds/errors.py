"""Shared exception types."""


class ShapeError(ValueError):
    """Operands have incompatible shapes."""


class ConfigurationError(ValueError):
    """A configuration value is out of its legal range."""


class FormatError(ValueError):
    """A serialized artifact (checkpoint, run manifest) is malformed."""


class NumericError(FloatingPointError):
    """A computation produced a non-finite value where one is not allowed."""
