"""Lightweight Pan–Tompkins-style QRS detector.

Used for validation (synthetic records must contain the scheduled
beats) and for diagnostic-quality assessment of reconstructed signals
(a clinically useful reconstruction preserves R-peak locations).

Pipeline: 5–15 Hz Butterworth band-pass -> derivative -> squaring ->
150 ms moving-window integration -> adaptive-threshold peak picking
with a 200 ms refractory period and local R-peak refinement on the
band-passed signal.
"""

from __future__ import annotations

import numpy as np

from ..utils import check_positive


def detect_qrs(
    signal_mv: np.ndarray,
    fs_hz: float,
    refractory_s: float = 0.2,
    threshold_fraction: float = 0.35,
) -> np.ndarray:
    """Return R-peak sample indices of a single-lead ECG."""
    import scipy.signal  # validation only: kept off the serving path

    x = np.asarray(signal_mv, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"signal must be 1-D, got shape {x.shape}")
    check_positive(fs_hz, "fs_hz")
    if not 0 < threshold_fraction < 1:
        raise ValueError(
            f"threshold_fraction must be in (0,1), got {threshold_fraction}"
        )
    if len(x) < int(fs_hz):
        raise ValueError("signal must be at least 1 second long")

    nyquist = fs_hz / 2.0
    low = min(5.0 / nyquist, 0.95)
    high = min(15.0 / nyquist, 0.99)
    b, a = scipy.signal.butter(2, [low, high], btype="band")
    bandpassed = scipy.signal.filtfilt(b, a, x)

    derivative = np.gradient(bandpassed)
    squared = derivative**2
    window = max(1, int(round(0.150 * fs_hz)))
    integrated = np.convolve(squared, np.ones(window) / window, mode="same")

    threshold = threshold_fraction * float(np.percentile(integrated, 99))
    refractory = int(round(refractory_s * fs_hz))

    peaks: list[int] = []
    above = integrated > threshold
    i = 0
    n = len(integrated)
    while i < n:
        if above[i]:
            j = i
            while j < n and above[j]:
                j += 1
            # refine: maximum |bandpassed| inside the crossing region,
            # extended by half the integration window
            lo = max(0, i - window // 2)
            hi = min(n, j + window // 2)
            peak = lo + int(np.argmax(np.abs(bandpassed[lo:hi])))
            if not peaks or peak - peaks[-1] >= refractory:
                peaks.append(peak)
            elif np.abs(bandpassed[peak]) > np.abs(bandpassed[peaks[-1]]):
                peaks[-1] = peak
            i = j
        else:
            i += 1
    return np.asarray(peaks, dtype=np.int64)


def beat_match_rate(
    reference: np.ndarray,
    detected: np.ndarray,
    fs_hz: float,
    tolerance_s: float = 0.075,
) -> float:
    """Fraction of reference beats matched by a detection within tolerance."""
    reference = np.asarray(reference, dtype=np.int64)
    detected = np.asarray(detected, dtype=np.int64)
    if len(reference) == 0:
        return 1.0 if len(detected) == 0 else 0.0
    if len(detected) == 0:
        return 0.0
    tolerance = tolerance_s * fs_hz
    matched = 0
    for r in reference:
        nearest = detected[np.argmin(np.abs(detected - r))]
        if abs(int(nearest) - int(r)) <= tolerance:
            matched += 1
    return matched / len(reference)
