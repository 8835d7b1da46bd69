"""Argument-validation helpers shared across the library.

These helpers raise :class:`ValueError`/:class:`TypeError` with uniform,
descriptive messages so every public entry point reports bad input the
same way.
"""

from __future__ import annotations

import numpy as np


def check_integer_array(
    array: np.ndarray,
    name: str = "array",
    low: int | None = None,
    high: int | None = None,
) -> np.ndarray:
    """Validate an integer-typed array with optional inclusive bounds."""
    arr = np.asarray(array)
    if not np.issubdtype(arr.dtype, np.integer):
        raise TypeError(f"{name} must have an integer dtype, got {arr.dtype}")
    if low is not None and arr.size and int(arr.min()) < low:
        raise ValueError(f"{name} has values below {low} (min={int(arr.min())})")
    if high is not None and arr.size and int(arr.max()) > high:
        raise ValueError(f"{name} has values above {high} (max={int(arr.max())})")
    return arr


def check_positive(value: float, name: str = "value") -> float:
    """Require a strictly positive scalar."""
    if not value > 0:
        raise ValueError(f"{name} must be positive, got {value}")
    return float(value)


def check_same_length(a: np.ndarray, b: np.ndarray, names: str = "arrays") -> None:
    """Require two arrays of identical length."""
    if len(a) != len(b):
        raise ValueError(
            f"{names} must have the same length, got {len(a)} and {len(b)}"
        )
