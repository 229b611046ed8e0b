"""Error taxonomy shared by the library and the command line, and its integer config reader."""

import numbers


class ConfigError(ValueError):
    """Malformed or inconsistent configuration (exit code 2)."""


class DataError(ValueError):
    """Unusable dataset: empty, malformed, or wrong columns (exit code 3)."""


class DimensionError(ValueError):
    """Data dimension incompatible with the requested kernels (exit code 4)."""


class VerificationFailure(RuntimeError):
    """A verification suite reported a violated bound (exit code 5)."""


def config_int(role: str, field: str, value, lo: int | None = None) -> int:
    """``value`` of the ``role`` config's ``field`` as an integer of at least ``lo``.

    An integral float such as 2.0 counts as an integer; a bool, a string, a
    fractional number or a value below ``lo`` is a ConfigError naming the field.
    """
    if isinstance(value, bool) or not (isinstance(value, numbers.Integral)
                                       or isinstance(value, float) and value.is_integer()):
        raise ConfigError(f"{role} config: field {field!r} must be an integer (got {value!r})")
    if lo is not None and value < lo:
        raise ConfigError(f"{role} config: field {field!r} must be at least {lo} (got {value!r})")
    return int(value)
