"""Compression and diagnostic-quality metrics.

The paper (Section III) uses two metrics:

- **CR** — ``(b_orig - b_comp) / b_orig * 100`` (percent of bits saved);
- **PRD** — ``||x - x~||_2 / ||x||_2 * 100`` with the associated
  ``SNR = -20 log10(0.01 PRD)``.

PRD is computed on baseline-centered signals (the MIT-BIH adu offset of
1024 carries no information and would otherwise mask the error), which
is the convention of the ECG-compression literature the paper follows.
"""

from __future__ import annotations

import math

import numpy as np

from ..utils import check_same_length


def compression_ratio(original_bits: int, compressed_bits: int) -> float:
    """Paper Eq. (7): percent of bits saved by compression."""
    if original_bits <= 0:
        raise ValueError(f"original_bits must be positive, got {original_bits}")
    if compressed_bits < 0:
        raise ValueError(
            f"compressed_bits must be >= 0, got {compressed_bits}"
        )
    return (original_bits - compressed_bits) / original_bits * 100.0


def prd(original: np.ndarray, reconstructed: np.ndarray) -> float:
    """Percentage root-mean-square difference."""
    x = np.asarray(original, dtype=np.float64)
    r = np.asarray(reconstructed, dtype=np.float64)
    check_same_length(x, r, "original/reconstructed")
    denominator = float(np.linalg.norm(x))
    if denominator == 0:
        raise ValueError("original signal has zero norm; PRD undefined")
    return float(np.linalg.norm(x - r)) / denominator * 100.0


def snr_from_prd(prd_percent: float) -> float:
    """Paper Eq. (8): ``SNR = -20 log10(0.01 PRD)`` in dB."""
    if prd_percent <= 0:
        raise ValueError(f"prd_percent must be positive, got {prd_percent}")
    return -20.0 * math.log10(0.01 * prd_percent)


def snr_db(original: np.ndarray, reconstructed: np.ndarray) -> float:
    """Output SNR in dB, computed through the PRD."""
    return snr_from_prd(prd(original, reconstructed))
