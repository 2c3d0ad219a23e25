"""Uniform argument-validation guards.

Every public entry point in the library validates its inputs with these
helpers so that misuse produces one consistent style of error message.
"""

from __future__ import annotations


def check_probability(value: float, name: str) -> float:
    """Ensure ``value`` is a probability in ``[0, 1]`` and return it."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise TypeError(f"{name} must be a number, got {type(value).__name__}")
    if not 0.0 <= float(value) <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value}")
    return float(value)


def check_positive(value: float, name: str, allow_zero: bool = False) -> float:
    """Ensure ``value`` is positive (or non-negative if ``allow_zero``)."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise TypeError(f"{name} must be a number, got {type(value).__name__}")
    if allow_zero:
        if value < 0:
            raise ValueError(f"{name} must be non-negative, got {value}")
    elif value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")
    return value


def check_positive_int(value: int, name: str, minimum: int = 1) -> int:
    """Ensure ``value`` is an integer no smaller than ``minimum``."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return value
