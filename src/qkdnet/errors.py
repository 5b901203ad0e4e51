"""Exception types shared across the package, the probability check
that every module validates its probability arguments with, and the size
check for integers that float formulas take.

Each class carries the CLI exit code it maps to, so library code should
raise the most specific class that applies.
"""


class QkdNetError(Exception):
    """Base class for all package errors; raise one of its subclasses."""


class ValidationError(QkdNetError, ValueError):
    """A parameter violated its documented bound."""
    exit_code = 2


class CapExceededError(QkdNetError, RuntimeError):
    """A computation would exceed a configured resource cap."""
    exit_code = 3


class InconsistencyError(QkdNetError, RuntimeError):
    """Two internal computations of the same quantity disagreed."""
    exit_code = 4


def check_probability(value, name: str = "p") -> None:
    """Raise ValidationError unless 0 <= value <= 1 (NaN is rejected)."""
    if not 0 <= value <= 1:
        raise ValidationError(f"{name} must be in [0, 1], got {value}")


def check_float_size(value: int, name: str) -> None:
    """Raise ValidationError unless the integer ``value`` converts to a
    finite float (|value| up to about 1.8e308), as every float formula
    over it needs."""
    try:
        float(value)
    except OverflowError:
        raise ValidationError(
            f"{name} must convert to a finite float (at most about 1.8e308), "
            f"got an integer of {value.bit_length()} bits"
        ) from None
