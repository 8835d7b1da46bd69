"""Tests for the Pan–Tompkins-style QRS detector."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ecg import SyntheticMitBih, detect_qrs
from repro.ecg.qrs import beat_match_rate


def normal_sinus(duration_s: float) -> np.ndarray:
    """Lead 0 of record 100 (normal sinus, ~60 bpm) at 360 Hz, in mV."""
    return SyntheticMitBih(duration_s=duration_s).load("100").channel(0)


class TestDetector:
    def test_counts_beats_on_clean_synthetic(self):
        signal = normal_sinus(20.0)
        peaks = detect_qrs(signal, 360.0)
        assert 15 <= len(peaks) <= 25  # ~60 bpm for 20 s

    def test_refractory_period_enforced(self):
        signal = normal_sinus(30.0)
        peaks = detect_qrs(signal, 360.0, refractory_s=0.2)
        assert np.all(np.diff(peaks) >= 0.2 * 360.0)

    def test_robust_to_moderate_noise(self, rng):
        signal = normal_sinus(20.0)
        clean = detect_qrs(signal, 360.0)
        noisy = signal + 0.05 * rng.standard_normal(len(signal))
        detected = detect_qrs(noisy, 360.0)
        assert beat_match_rate(clean, detected, 360.0) > 0.9

    def test_amplitude_invariance(self):
        signal = normal_sinus(15.0)
        a = detect_qrs(signal, 360.0)
        b = detect_qrs(10.0 * signal, 360.0)
        assert beat_match_rate(a, b, 360.0) == 1.0

    def test_too_short_signal_rejected(self):
        with pytest.raises(ValueError):
            detect_qrs(np.zeros(100), 360.0)

    def test_2d_rejected(self):
        with pytest.raises(ValueError):
            detect_qrs(np.zeros((2, 720)), 360.0)

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            detect_qrs(np.zeros(720), 360.0, threshold_fraction=1.5)


class TestBeatMatchRate:
    def test_perfect_match(self):
        reference = np.array([100, 500, 900])
        assert beat_match_rate(reference, reference, 360.0) == 1.0

    def test_within_tolerance(self):
        reference = np.array([100, 500])
        detected = np.array([110, 495])
        assert beat_match_rate(reference, detected, 360.0) == 1.0

    def test_outside_tolerance(self):
        reference = np.array([100])
        detected = np.array([200])
        assert beat_match_rate(reference, detected, 360.0) == 0.0

    def test_empty_cases(self):
        assert beat_match_rate(np.array([]), np.array([]), 360.0) == 1.0
        assert beat_match_rate(np.array([]), np.array([5]), 360.0) == 0.0
        assert beat_match_rate(np.array([5]), np.array([]), 360.0) == 0.0

    def test_partial(self):
        reference = np.array([100, 500, 900, 1300])
        detected = np.array([100, 500])
        assert beat_match_rate(reference, detected, 360.0) == 0.5
