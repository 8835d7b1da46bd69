"""Whole-record batched encoding: the front end of every batched driver.

The serial :meth:`~repro.core.system.EcgMonitorSystem.stream` loop is
the paper's real-time story — one packet in, one packet out.  A
production coordinator (or an offline re-analysis job) instead holds
seconds-to-hours of signal and wants throughput: this module windows a
whole record in one shot and runs the *same* three encoder stages with
the block-vectorized kernels (``Phi @ windows`` sensing, batched
quantization and differencing).  The one whole-record batched decode
driver is :class:`~repro.fleet.FleetDecoder`
(``EcgMonitorSystem.stream(batch_size=B)`` is a one-stream fleet); a
live node (:class:`~repro.ingest.client.NodeClient`) streams the same
packets over the wire.

The packets are bit-identical to the serial path's (the encoder stages
are integer-exact) and the fleet's reconstructions match it to solver
floating-point noise — the serial path stays the reference
implementation, and ``tests/core/test_batch.py`` pins the equivalence.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..ecg.records import Record

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .system import EcgMonitorSystem

#: default reconstruction block width; past ~32 columns the GEMM pair
#: dominates per-iteration cost and the speedup saturates (see the
#: GEMM widths in ``docs/architecture.md`` §2)
DEFAULT_BATCH_SIZE = 32


def window_record(samples: np.ndarray, n: int, max_windows: int | None = None) -> np.ndarray:
    """Slice a 1-D sample stream into a ``(B, n)`` block of windows.

    Trailing samples that do not fill a whole window are dropped,
    matching the serial streaming loop.
    """
    samples = np.asarray(samples)
    if samples.ndim != 1:
        raise ValueError(f"samples must be 1-D, got shape {samples.shape}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    count = len(samples) // n
    if max_windows is not None:
        count = min(count, max_windows)
    return samples[: count * n].reshape(count, n)


def encode_record_windows(
    system: "EcgMonitorSystem",
    record: Record,
    channel: int = 0,
    max_packets: int | None = None,
) -> tuple[np.ndarray, list]:
    """Window and batch-encode one record channel; reset stream state.

    Shared front end of the fleet engine (:mod:`repro.fleet`) and the
    live node client: returns the ``(B, n)`` window block and the
    matching encoded packets, with both encoder and decoder codec state
    reset so decoding starts from the first keyframe.
    """
    if max_packets is not None and max_packets < 1:
        raise ValueError(
            f"max_packets={max_packets} requests no windows; "
            "need at least 1 packet to stream"
        )
    samples = system._prepare_samples(record, channel)
    n = system.config.n
    windows = window_record(samples, n, max_packets)
    if windows.shape[0] == 0:
        raise ValueError(
            f"record too short: {len(samples)} samples < one window of {n}"
        )

    system.encoder.reset()
    system.decoder.reset()
    packets = system.encoder.encode_batch(windows)
    return windows, packets
