"""8-bit quantized Gaussian sensing (the paper's rejected approach 1).

The firmware would generate ``Phi`` entries on the fly from a fixed-point
Gaussian generator quantized to 8 bits.  The paper found the on-board
generation itself broke real-time operation; we keep the construction
(a) to reproduce that negative result from the cost model and (b) to
show the quantized matrix is *numerically* adequate — the failure is
throughput, not recovery quality.
"""

from __future__ import annotations

import numpy as np

from ..errors import SensingError
from ..utils import derive_seed
from .base import SensingMatrix
from .rng import CltGaussian, FixedPointGaussian


class QuantizedGaussianMatrix(SensingMatrix):
    """Gaussian ``Phi`` with entries quantized to int8 on generation.

    Parameters
    ----------
    m, n:
        Matrix dimensions.
    seed:
        Seed for the embedded generator.
    generator:
        ``"box-muller"`` (table-driven fixed point) or ``"clt"``
        (sum of 12 uniforms).
    """

    QUANT_SCALE = 1.0 / 32.0  # int8 step in units of one std deviation

    def __init__(
        self,
        m: int,
        n: int,
        seed: int = 2011,
        generator: str = "box-muller",
    ) -> None:
        super().__init__(m, n)
        self.seed = int(seed)
        self.generator = generator
        child_seed = derive_seed(self.seed, "quantized", generator, m, n)
        if generator == "box-muller":
            source = FixedPointGaussian(seed=child_seed, scale=self.QUANT_SCALE)
            self._ops_per_draw = source.ops_per_draw
            quantized = source.draw_matrix(m, n)
        elif generator == "clt":
            source = CltGaussian(seed=child_seed)
            self._ops_per_draw = source.ops_per_draw
            values = np.empty((m, n), dtype=np.int8)
            for i in range(m):
                for j in range(n):
                    values[i, j] = source.next_q7(self.QUANT_SCALE)
            quantized = values
        else:
            raise SensingError(
                f"generator must be 'box-muller' or 'clt', got {generator!r}"
            )
        # Dense float view: int8 value * scale gives a ~N(0,1) entry;
        # normalize by sqrt(n) to match the N(0, 1/n) convention.
        self._matrix = quantized.astype(np.float64) * (
            self.QUANT_SCALE / np.sqrt(self.n)
        )
        self._matrix.setflags(write=False)

    @property
    def ops_per_draw(self) -> int:
        """Integer operations per draw (input to the MSP430 cost model)."""
        return self._ops_per_draw

    def matrix(self) -> np.ndarray:
        return self._matrix

    def storage_bits(self) -> int:
        """int8 per entry when the matrix is stored rather than regenerated."""
        return 8 * self.m * self.n
