"""Aggregation helpers for evaluation sweeps.

Every sweep in :mod:`repro.experiments` produces per-packet
:class:`SweepPoint` rows; :func:`aggregate_points` averages them
"over all data" (the paper's phrase for its Figure 2/6/7 y-axes).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SweepPoint:
    """One (record, packet) observation at a given operating point."""

    record: str
    cr_percent: float
    prd_percent: float
    snr_db: float
    iterations: int
    decode_seconds: float = 0.0


def aggregate_points(points: Sequence[SweepPoint]) -> dict[str, float]:
    """Average a set of sweep points (the per-CR figure values)."""
    if not points:
        raise ValueError("cannot aggregate an empty point set")
    return {
        "cr_percent": float(np.mean([p.cr_percent for p in points])),
        "prd_percent": float(np.mean([p.prd_percent for p in points])),
        "snr_db": float(np.mean([p.snr_db for p in points])),
        "iterations": float(np.mean([p.iterations for p in points])),
        "decode_seconds": float(np.mean([p.decode_seconds for p in points])),
        "count": float(len(points)),
    }
