"""Shared exception types, and the key rule of a stored config."""


class ShapeError(ValueError):
    """Operands have incompatible shapes."""


class ConfigurationError(ValueError):
    """A configuration value is out of its legal range."""


class FormatError(ValueError):
    """A serialized artifact (checkpoint, run manifest) is malformed."""


class NumericError(FloatingPointError):
    """A computation produced a non-finite value where one is not allowed."""


def require_keys(config: dict, keys, what: str) -> None:
    """``FormatError`` naming the missing and unknown keys, unless the stored
    ``config`` holds exactly ``keys``: a key that is gone would read back as
    its default, which the run that wrote it may not have used."""
    missing, unknown = sorted(set(keys) - set(config)), sorted(set(config) - set(keys))
    if missing or unknown:
        raise FormatError(f"{what} config keys missing {missing}, unknown {unknown}")
