"""Measurement quantization between sensing and entropy coding.

The node's integer measurement ``y_int = sum of selected samples``
(sparse binary sensing with the ``1/sqrt(d)`` scale deferred to the
decoder) spans a few thousand adu.  To make consecutive-packet
differences fit the paper's ``[-256, 255]`` codebook range, the encoder
right-shifts the accumulator by a small number of bits with rounding —
a one-instruction operation on the MSP430.  The decoder multiplies back
and folds in the deferred ``1/sqrt(d)``.

The default ``shift = 4`` was chosen empirically on the synthetic
corpus: the 99th percentile of shifted differences stays inside the
codebook range at every evaluated compression ratio (see
``tests/core/test_quantizer.py``), mirroring how the paper's fixed
codebook was sized offline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError
from ..utils import check_integer_array


@dataclass(frozen=True)
class MeasurementQuantizer:
    """Shift-with-rounding quantizer and its exact inverse model.

    Parameters
    ----------
    shift:
        Right-shift amount in bits (step ``2**shift`` adu).
    d:
        Sparse-binary column weight; the decoder's dequantization folds
        the deferred ``1/sqrt(d)`` scale so dequantized values live on
        the float measurement scale ``y = Phi x``.
    """

    shift: int = 4
    d: int = 12

    def __post_init__(self) -> None:
        if not 0 <= self.shift <= 12:
            raise ConfigurationError(f"shift must be in [0, 12], got {self.shift}")
        if self.d < 1:
            raise ConfigurationError(f"d must be >= 1, got {self.d}")

    @property
    def step(self) -> int:
        """Quantization step in accumulator units."""
        return 1 << self.shift

    def quantize(self, y_int: np.ndarray) -> np.ndarray:
        """Accumulator -> quantized integers (round-half-away rounding).

        Implemented as ``(y + step/2) >> shift`` for non-negative values
        and symmetrically for negatives, matching a two-instruction
        firmware sequence.  Shape-agnostic: a ``(B, m)`` block of
        stacked measurement windows quantizes in one call, exactly
        row-for-row what per-window calls would produce.
        """
        y = check_integer_array(np.asarray(y_int), "y_int").astype(np.int64)
        if self.shift == 0:
            return y.copy()
        half = self.step // 2
        magnitude = (np.abs(y) + half) >> self.shift
        return np.where(y < 0, -magnitude, magnitude).astype(np.int64)

    def dequantize(self, y_q: np.ndarray) -> np.ndarray:
        """Quantized integers -> float measurements on the ``Phi x`` scale.

        ``y = y_q * 2**shift / sqrt(d)`` — the decoder-side inverse
        including the deferred sparse-binary scale.
        """
        y = check_integer_array(np.asarray(y_q), "y_q").astype(np.float64)
        return y * (self.step / math.sqrt(self.d))
