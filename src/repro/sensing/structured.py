"""Structured deterministic sensing: LFSR-circulant binary matrices.

A step toward the paper's "analog CS" goal: a *circulant* binary
matrix needs only one pseudo-random master row (an LFSR bit sequence);
every other row is a cyclic shift.  In hardware that is a single shift
register instead of per-column index generation — even cheaper than
sparse binary — and circulant structure admits FFT-based fast
multiplication on the decoder.  The trade-off: rows are highly
structured, so recovery degrades sooner at aggressive undersampling.
The sensing ablation quantifies that trade-off.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import SensingError
from ..utils import derive_seed
from .base import SensingMatrix
from .rng import GaloisLfsr16


class LfsrCirculantMatrix(SensingMatrix):
    """Binary circulant ``Phi`` built from one LFSR master row.

    The master row has density ``density`` (fraction of ones); row ``i``
    is the master row cyclically shifted by ``i * stride`` with
    ``stride = n // m`` (spreading the m selected shifts uniformly).
    Entries are scaled so columns have approximately unit norm.
    """

    def __init__(
        self,
        m: int,
        n: int,
        density: float = 0.25,
        seed: int = 2011,
    ) -> None:
        super().__init__(m, n)
        if not 0.0 < density <= 0.5:
            raise SensingError(
                f"density must be in (0, 0.5], got {density}"
            )
        self.density = float(density)
        self.seed = int(seed)

        lfsr = GaloisLfsr16(derive_seed(seed, "lfsr-circulant", m, n))
        threshold = int(round(self.density * 65536))
        master = np.array(
            [1 if lfsr.next_u16() < threshold else 0 for _ in range(n)],
            dtype=np.int8,
        )
        if master.sum() == 0:
            master[0] = 1  # degenerate draw: force a nonzero row
        #: the LFSR-generated master bit row
        self.master_row = master
        self._stride = max(1, n // m)

        ones_per_row = int(master.sum())
        # each column receives ~ m * density ones; scale for unit norm
        ones_per_column = max(1.0, m * ones_per_row / n)
        self._scale = 1.0 / math.sqrt(ones_per_column)

        rows = np.empty((m, n), dtype=np.float64)
        for i in range(m):
            rows[i] = np.roll(master, i * self._stride)
        self._matrix = rows * self._scale
        self._matrix.setflags(write=False)

    def matrix(self) -> np.ndarray:
        return self._matrix

    def measure_integer(self, x: np.ndarray) -> np.ndarray:
        """Integer accumulation against the binary pattern (scale deferred)."""
        x = np.asarray(x)
        if x.shape != (self.n,):
            raise SensingError(f"expected signal shape ({self.n},), got {x.shape}")
        if not np.issubdtype(x.dtype, np.integer):
            raise SensingError("integer path requires an integer signal")
        pattern = self.master_row.astype(np.int64)
        out = np.empty(self.m, dtype=np.int64)
        values = x.astype(np.int64)
        for i in range(self.m):
            out[i] = int(np.dot(np.roll(pattern, i * self._stride), values))
        return out

    def storage_bits(self) -> int:
        """One master row of n bits plus the 16-bit LFSR seed."""
        return self.n + 16
