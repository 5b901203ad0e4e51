"""Exception types shared across the package, and the probability check
that every module validates its probability arguments with.

The CLI maps these onto distinct exit codes, so library code should raise
the most specific class that applies.
"""


class QkdNetError(Exception):
    """Base class for all package errors."""


class ValidationError(QkdNetError, ValueError):
    """A parameter violated its documented bound."""


class CapExceededError(QkdNetError, RuntimeError):
    """A computation would exceed a configured resource cap."""


class InconsistencyError(QkdNetError, RuntimeError):
    """Two internal computations of the same quantity disagreed."""


def check_probability(value, name: str = "p") -> None:
    """Raise ValidationError unless 0 <= value <= 1 (NaN is rejected)."""
    if not 0 <= value <= 1:
        raise ValidationError(f"{name} must be in [0, 1], got {value}")
