"""Common interface of all sensing matrices."""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from ..errors import SensingError


class SensingMatrix(ABC):
    """An ``m x n`` measurement matrix ``Phi`` with ``y = Phi x``.

    Concrete classes expose the dense float matrix (for the decoder and
    for analysis), a measurement routine, and node-side storage
    accounting used by the platform memory models.
    """

    def __init__(self, m: int, n: int) -> None:
        if m < 1 or n < 1:
            raise SensingError(f"matrix dimensions must be positive, got {m}x{n}")
        if m > n:
            raise SensingError(
                f"compressed sensing requires m <= n, got m={m} > n={n}"
            )
        self.m = int(m)
        self.n = int(n)

    @property
    def shape(self) -> tuple[int, int]:
        """``(m, n)``."""
        return (self.m, self.n)

    @abstractmethod
    def matrix(self) -> np.ndarray:
        """Dense float64 representation of ``Phi``."""

    @abstractmethod
    def storage_bits(self) -> int:
        """Bits of node-side storage needed to hold/regenerate ``Phi``."""

    def measure(self, x: np.ndarray) -> np.ndarray:
        """Float measurement ``y = Phi x`` (decoder-precision reference)."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.n,):
            raise SensingError(f"expected signal shape ({self.n},), got {x.shape}")
        return self.matrix() @ x
