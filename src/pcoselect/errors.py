"""Error taxonomy shared by the library and the command line, and its config readers.

A reader returns the value of one config field checked, or raises a
ConfigError naming the config, the field and the value.
"""

import math
import numbers
import sys

# Entries of the largest float64 table a diagnostic may allocate (128 MB).
MAX_TABLE_ENTRIES = 2**24


class ConfigError(ValueError):
    """Malformed or inconsistent configuration (exit code 2)."""


class DataError(ValueError):
    """Unusable dataset: empty, malformed, or wrong columns (exit code 3)."""


class DimensionError(ValueError):
    """Data dimension incompatible with the requested kernels (exit code 4)."""


class VerificationFailure(RuntimeError):
    """A verification suite reported a violated bound (exit code 5)."""


def _is_number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


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


def config_ints(role: str, field: str, value, lo: int | None = None) -> list:
    """A list of integers, each read by :func:`config_int`."""
    if not isinstance(value, list):
        raise ConfigError(f"{role} config: field {field!r} must be a list of integers (got {value!r})")
    return [config_int(role, field, v, lo) for v in value]


def config_number(role: str, field: str, value) -> float:
    """``value`` as a finite float: not a bool, a string, a list or an object."""
    if not _is_number(value):
        raise ConfigError(f"{role} config: field {field!r} must be a number (got {value!r})")
    if not abs(value) <= sys.float_info.max:  # also false for nan
        raise ConfigError(f"{role} config: field {field!r} must be finite (got {value!r})")
    return float(value)


def config_numbers(role: str, field: str, value) -> list:
    """A list (or tuple) of numbers, each read by :func:`config_number`."""
    if not (isinstance(value, (list, tuple)) and all(map(_is_number, value))):
        raise ConfigError(f"{role} config: field {field!r} must be a list of numbers (got {value!r})")
    return [config_number(role, field, v) for v in value]


def config_object(role: str, field: str | None, value) -> dict:
    """``value`` as a JSON object; ``field`` None stands for the whole ``role`` config."""
    if not isinstance(value, dict):
        where = f"{role} config" if field is None else f"{role} config: field {field!r}"
        raise ConfigError(f"{where} must be an object (got {type(value).__name__})")
    return value


def config_enum(role: str, field: str, value, kind):
    """The member of the enum ``kind`` with value ``value``; the error lists the valid ones."""
    try:
        return kind(value)
    except ValueError:
        valid = ", ".join(member.value for member in kind)
        raise ConfigError(f"{role} config: field {field!r} must be one of {valid} (got {value!r})") from None


def check_table_size(role: str, **sizes: int):
    """Raise a ConfigError naming the fields of ``sizes`` when a table of
    that shape would hold more than ``MAX_TABLE_ENTRIES`` entries; called
    before the table is allocated."""
    entries = math.prod(sizes.values())
    if entries > MAX_TABLE_ENTRIES:
        fields = " x ".join(f"{field} {value}" for field, value in sizes.items())
        raise ConfigError(f"{role}: {fields} asks for a table of {entries} entries, "
                          f"above the limit of {MAX_TABLE_ENTRIES}")
