"""Sampling-rate conversion: the paper's 360 Hz -> 256 Hz front end.

The MIT-BIH records (360 Hz) are "re-sampled at 256 Hz" before being
fed to the Shimmer over its serial port (Section IV-A1).  The conversion
360 -> 256 is the rational ratio 32/45, implemented as a polyphase
up-by-32 / FIR low-pass / down-by-45 chain: the design and zero-padded
framing of :func:`scipy.signal.resample_poly` (a Kaiser-windowed sinc,
beta 5, ``10 * max(up, down)`` taps either side of centre), built and
applied in numpy.  Each of the ``up`` filter phases is one GEMV over a
strided :func:`~numpy.lib.stride_tricks.sliding_window_view` of the
input.  Against scipy the outputs differ only in summation order (a
few ulps); scipy is the test oracle, not a dependency of this module.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..utils import check_positive
from .records import Record

#: Kaiser window shape parameter of the anti-aliasing FIR
KAISER_BETA = 5.0


def rational_ratio(fs_in: float, fs_out: float) -> tuple[int, int]:
    """Reduced ``(up, down)`` integers for a rate conversion."""
    check_positive(fs_in, "fs_in")
    check_positive(fs_out, "fs_out")
    # Work on a milli-hertz grid so non-integer rates are representable.
    up = int(round(fs_out * 1000))
    down = int(round(fs_in * 1000))
    divisor = math.gcd(up, down)
    return up // divisor, down // divisor


def _lowpass_taps(up: int, down: int) -> np.ndarray:
    """The anti-aliasing FIR of an ``up/down`` conversion, gain ``up``.

    A ``2 * 10 * max(up, down) + 1``-tap Kaiser-windowed sinc with its
    cutoff at the lower of the two Nyquist rates, normalized to unit DC
    gain and then scaled by ``up`` to restore the zero-stuffed
    amplitude.
    """
    max_rate = max(up, down)
    cutoff = 1.0 / max_rate
    numtaps = 2 * 10 * max_rate + 1
    offsets = np.arange(numtaps, dtype=np.float64) - 0.5 * (numtaps - 1)
    taps = cutoff * np.sinc(cutoff * offsets)
    taps *= np.kaiser(numtaps, KAISER_BETA)
    taps /= np.sum(taps)
    taps *= up
    return taps


def _resample_poly(signal: np.ndarray, up: int, down: int) -> np.ndarray:
    """Upsample by ``up``, low-pass, downsample by ``down`` (zero-padded
    ends), keeping the ``ceil(len * up / down)`` centred outputs."""
    n_in = signal.shape[0]
    n_out = -(-n_in * up // down)
    taps = _lowpass_taps(up, down)
    half_len = (taps.shape[0] - 1) // 2
    # leading zeros put output sample 0 at the filter's centre
    lead = down - half_len % down
    taps = np.concatenate((np.zeros(lead), taps))
    first = (half_len + lead) // down
    # output k reads input i0 = k*down // up and back, through phase
    # (k*down) % up: taps[phase], taps[phase + up], ...
    width = -(-taps.shape[0] // up)
    phases = np.zeros((up, width))
    for phase in range(up):
        polyphase = taps[phase::up]
        phases[phase, width - polyphase.shape[0] :] = polyphase[::-1]
    last_input = (first + n_out - 1) * down // up
    padded = np.concatenate(
        (np.zeros(width - 1), signal, np.zeros(max(0, last_input - n_in + 1)))
    )
    # window w ends at input w: padded[w : w + width] is x[w-width+1 .. w]
    windows = sliding_window_view(padded, width)
    out = np.empty(n_out)
    # outputs r, r + up, r + 2*up, ... share a phase; their inputs step
    # by down
    for r in range(min(up, n_out)):
        start = (first + r) * down
        count = len(range(r, n_out, up))
        rows = windows[start // up :: down][:count]
        out[r::up] = rows @ phases[start % up]
    return out


def resample_signal(
    signal: np.ndarray, fs_in: float, fs_out: float
) -> np.ndarray:
    """Resample a 1-D signal between arbitrary rational rates."""
    signal = np.asarray(signal, dtype=np.float64)
    if signal.ndim != 1:
        raise ValueError(f"signal must be 1-D, got shape {signal.shape}")
    if signal.size < 2:
        raise ValueError("signal must have at least 2 samples")
    up, down = rational_ratio(fs_in, fs_out)
    if up == down:
        return signal.copy()
    return _resample_poly(signal, up, down)


def resample_record(record: Record, fs_out: float = 256.0) -> Record:
    """Resample all channels of a record; annotations are re-indexed."""
    check_positive(fs_out, "fs_out")
    channels = [
        resample_signal(record.channel(i), record.fs_hz, fs_out)
        for i in range(record.num_channels)
    ]
    ratio = fs_out / record.fs_hz
    annotations = [
        type(a)(sample=int(round(a.sample * ratio)), symbol=a.symbol)
        for a in record.annotations
        if int(round(a.sample * ratio)) < len(channels[0])
    ]
    return Record(
        name=record.name,
        fs_hz=fs_out,
        signals_mv=np.vstack(channels),
        annotations=annotations,
        adc=record.adc,
        rhythm=record.rhythm,
    )
