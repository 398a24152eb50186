"""Small argument-validation helpers used at public API boundaries.

The library follows "validate at the edge": public constructors and entry
points validate eagerly with informative errors; internal hot loops assume
valid inputs and stay branch-free for numpy-friendliness.
"""

from __future__ import annotations

import numpy as np

__all__ = ["check_positive_int", "check_int_field", "check_dimension", "check_probability"]


def check_positive_int(value, name: str, minimum: int = 1) -> int:
    """Validate that ``value`` is an integer ``>= minimum`` and return it.

    Accepts numpy integer scalars (common when values come out of arrays).
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")
    value = int(value)
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return value


def check_int_field(value, name: str, minimum: int) -> None:
    """Raise ``ValueError`` naming a record field unless ``value`` is an int
    (not a bool; numpy integers pass) that is at least ``minimum``."""
    if isinstance(value, bool) or not hasattr(value, "__index__"):
        raise ValueError(f"{name} must be an int, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")


def check_dimension(d, name: str = "dimensionality") -> int:
    """Validate a dimensionality argument (1..32 inclusive)."""
    d = check_positive_int(d, name)
    if d > 32:
        raise ValueError(f"{name} must be <= 32, got {d}")
    return d


def check_probability(value, name: str) -> float:
    """Validate that ``value`` is a float in ``[0, 1]`` and return it."""
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value}")
    return value
