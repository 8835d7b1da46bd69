"""Tests for the feature-level diagnostic metrics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ecg import SyntheticMitBih
from repro.metrics import diagnostic_report, hrv_summary
from repro.metrics.diagnostic import HrvSummary


@pytest.fixture(scope="module")
def clean_ecg():
    # record 100 is normal sinus at ~60 bpm; lead 0 at 360 Hz, in mV
    return SyntheticMitBih(duration_s=30.0).load("100").channel(0)


class TestHrvSummary:
    def test_constant_rr(self):
        peaks = np.arange(10) * 360  # exactly 1 s apart at 360 Hz
        summary = hrv_summary(peaks, 360.0)
        assert summary.mean_rr_ms == pytest.approx(1000.0)
        assert summary.sdnn_ms == pytest.approx(0.0)
        assert summary.rmssd_ms == pytest.approx(0.0)

    def test_known_variability(self):
        # alternating 900/1100 ms intervals
        intervals = np.array([0.9, 1.1] * 5)
        peaks = np.concatenate([[0.0], np.cumsum(intervals)]) * 360.0
        summary = hrv_summary(peaks.astype(int), 360.0)
        assert summary.mean_rr_ms == pytest.approx(1000.0, abs=5.0)
        assert summary.rmssd_ms == pytest.approx(200.0, abs=15.0)

    def test_too_few_beats(self):
        with pytest.raises(ValueError):
            hrv_summary(np.array([0, 360]), 360.0)


class TestDiagnosticReport:
    def test_identical_signals_are_perfect(self, clean_ecg):
        report = diagnostic_report(clean_ecg, clean_ecg.copy(), 360.0)
        assert report.beat_match_rate == 1.0
        assert report.timing_jitter_ms == pytest.approx(0.0)
        assert report.r_amplitude_error_percent == pytest.approx(0.0)
        assert report.sdnn_error_percent == pytest.approx(0.0, abs=1e-9)
        assert report.is_diagnostic()

    def test_small_noise_stays_diagnostic(self, clean_ecg, rng):
        noisy = clean_ecg + 0.03 * rng.standard_normal(len(clean_ecg))
        report = diagnostic_report(clean_ecg, noisy, 360.0)
        assert report.beat_match_rate > 0.95
        assert report.is_diagnostic()

    def test_flat_reconstruction_fails(self, clean_ecg):
        # a tiny-noise floor so the detector has *something* but no beats
        rng = np.random.default_rng(0)
        flat = 0.001 * rng.standard_normal(len(clean_ecg))
        report = diagnostic_report(clean_ecg, flat, 360.0)
        assert not report.is_diagnostic()

    def test_shape_mismatch_rejected(self, clean_ecg):
        with pytest.raises(ValueError):
            diagnostic_report(clean_ecg, clean_ecg[:-1], 360.0)

    def test_end_to_end_system_is_diagnostic(self, database):
        """The paper's operating point preserves clinical features."""
        from repro import EcgMonitorSystem, SystemConfig

        system = EcgMonitorSystem(SystemConfig())
        record = database.load("100")
        system.calibrate(record)
        result = system.stream(record, max_packets=9, keep_signals=True)
        original = (result.original_adu - 1024) / 204.8
        reconstructed = (result.reconstructed_adu - 1024) / 204.8
        report = diagnostic_report(original, reconstructed, 256.0)
        assert report.beat_match_rate > 0.95
        assert report.timing_jitter_ms < 20.0
        assert report.is_diagnostic()

    def test_hrv_preserved_through_compression(self, database):
        from repro import EcgMonitorSystem, SystemConfig

        system = EcgMonitorSystem(SystemConfig())
        record = database.load("100")
        system.calibrate(record)
        result = system.stream(record, max_packets=9, keep_signals=True)
        original = (result.original_adu - 1024) / 204.8
        reconstructed = (result.reconstructed_adu - 1024) / 204.8
        report = diagnostic_report(original, reconstructed, 256.0)
        assert report.sdnn_error_percent < 25.0
