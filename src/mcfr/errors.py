"""Shared exception types, and the one owner of each input rule.

Text files (event CSV, timestamps.txt, groundtruth.txt) become lines in
one way (text_lines): a line ends at LF, CR or CRLF and nowhere else, and
is stripped; a blank one is skipped, but still counted.

Integer text grammar (event CSV fields and sidecar, timestamps.txt lines,
PGM/PPM header tokens): an optional leading "-" and ASCII digits, blanks
around them ignored; "+", "_" and non-ASCII digits are refused. Leading
zeros do not count, and more than _DIGITS_MAX significant digits read as
+-10**_DIGITS_MAX, past every range a caller accepts, so int()'s own digit
limit never decides the outcome (decimal_int).

An integer is a Python or numpy integer, not a bool, within optional bounds
(require_int); a sensor side (stream geometry, frame or stacked dump side,
the network's input crop) is one in 1..MAX_SENSOR_SIDE (require_side). A
real number is finite, not a bool, with an optional lower bound, inclusive
or strict (require_real). A name is a string in its table (require_choice).
A config's sequence field is a list or tuple, stored as a tuple (store_tuple).
"""

import math
import numbers
from collections.abc import Iterator

# Largest sensor side accepted, in pixels. Real event cameras stay well
# below it (DAVIS346: 346x260, Prophesee Gen4: 1280x720), and it bounds
# a (height, width) grid built from a stream to 4096^2 cells.
MAX_SENSOR_SIDE = 4096

_DIGITS_MAX = 20  # significant digits read; a longer field saturates
_BLANKS = " \t\n\v\f\r"  # what int() strips; str.strip() strips more


class McfrError(Exception):
    """Base class for all package errors."""


class EventParseError(McfrError):
    """Malformed event file. Carries the 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class GeometryError(McfrError):
    """Shape or sensor-geometry mismatch."""


class ConfigError(McfrError):
    """Invalid configuration value or combination."""


class NonFiniteError(McfrError):
    """A loss or gradient is NaN or infinite."""


class CheckpointError(McfrError):
    """Corrupt, truncated, or incompatible checkpoint file."""


def require_int(name: str, value, minimum: int | None = None,
                maximum: int | None = None, error: type[Exception] = ConfigError) -> None:
    """Raise `error` unless value is an integer in minimum..maximum."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or minimum is not None and value < minimum):
        bound = "" if minimum is None else f" >= {minimum}"
        raise error(f"{name} must be an integer{bound}, got {value!r}")
    if maximum is not None and value > maximum:
        raise error(f"{name} must be an integer <= {maximum}, got {value!r}")


def require_real(name: str, value, minimum=None, strict: bool = False) -> None:
    """Raise ConfigError unless value is a finite real >= minimum (> if strict)."""
    # the chained comparison refuses NaN, and compares a huge int exactly
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not -math.inf < value < math.inf
            or minimum is not None and (value <= minimum if strict else value < minimum)):
        bound = "" if minimum is None else f" {'>' if strict else '>='} {minimum}"
        raise ConfigError(f"{name} must be a finite real number{bound}, got {value!r}")


def require_choice(name: str, value, choices) -> None:
    """Raise ConfigError unless value is a string among choices."""
    if not isinstance(value, str) or value not in choices:
        raise ConfigError(f"unknown {name} {value!r}; choose from {sorted(choices)}")


def store_tuple(config, name: str, length: int | None = None) -> tuple:
    """The frozen dataclass field config.<name>, stored as a tuple so that
    the config hashes; ConfigError unless it is a list or tuple (of
    `length` items, when given)."""
    value = getattr(config, name)
    if not isinstance(value, (list, tuple)) or length not in (None, len(value)):
        raise ConfigError(f"{type(config).__name__}.{name} must be a list or tuple"
                          f" of {length or 'any number of'} items, got {value!r}")
    object.__setattr__(config, name, tuple(value))
    return getattr(config, name)


def require_side(name: str, value, error: type[Exception] = GeometryError) -> None:
    """Raise `error` unless value is an integer sensor side in
    1..MAX_SENSOR_SIDE."""
    require_int(name, value, 1, MAX_SENSOR_SIDE, error)


def decimal_int(field: str) -> int | None:
    """The value of one field under the integer text grammar above, or None
    if the field does not follow it."""
    field = field.strip(_BLANKS)
    digits = field.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        return None
    digits = digits.lstrip("0")
    value = int(digits or "0") if len(digits) <= _DIGITS_MAX else 10**_DIGITS_MAX
    return -value if field.startswith("-") else value


def text_lines(path) -> Iterator[tuple[int, str]]:
    """(number, stripped text) of each non-blank line of a text file."""
    # surrogateescape: a non-ASCII byte reaches the caller's grammar, which names its line
    with open(path, encoding="ascii", errors="surrogateescape") as fh:
        for number, raw in enumerate(fh, start=1):
            if line := raw.strip():
                yield number, line
