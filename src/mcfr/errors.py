"""Shared exception types."""


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


class SamplingError(McfrError):
    """A sample quota could not be met within the attempt budget."""
