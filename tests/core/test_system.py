"""Tests for the end-to-end EcgMonitorSystem."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import EcgMonitorSystem


@pytest.fixture(scope="module")
def system(small_config):
    return EcgMonitorSystem(small_config)


class TestStreaming:
    def test_stream_produces_packets(self, system, database):
        result = system.stream(database.load("100"), max_packets=4)
        assert result.num_packets == 4
        assert result.record == "100"

    def test_metrics_populated(self, system, database):
        result = system.stream(database.load("100"), max_packets=4)
        assert 0.0 < result.compression_ratio_percent < 100.0
        assert result.mean_prd_percent > 0.0
        assert result.mean_snr_db > 0.0
        assert result.mean_iterations > 10
        assert result.mean_decode_seconds > 0.0

    def test_first_packet_flagged_keyframe(self, system, database):
        result = system.stream(database.load("100"), max_packets=3)
        assert result.packets[0].is_keyframe
        assert not result.packets[1].is_keyframe

    def test_keep_signals(self, system, database, small_config):
        result = system.stream(
            database.load("100"), max_packets=3, keep_signals=True
        )
        assert result.original_adu is not None
        assert len(result.original_adu) == 3 * small_config.n
        assert len(result.reconstructed_adu) == 3 * small_config.n

    def test_too_short_record_rejected(self, system):
        from repro.ecg import SyntheticMitBih

        tiny = SyntheticMitBih(duration_s=0.5).load("100")
        with pytest.raises(ValueError):
            system.stream(tiny)

    def test_channel_selection(self, system, database):
        r0 = system.stream(database.load("100"), channel=0, max_packets=2)
        r1 = system.stream(database.load("100"), channel=1, max_packets=2)
        assert r0.mean_prd_percent != r1.mean_prd_percent

    def test_native_rate_record_skips_resampling(self, system, small_config):
        """A record already at 256 Hz streams without conversion."""
        from repro.ecg import SyntheticMitBih

        record = SyntheticMitBih(duration_s=10.0, fs_hz=256.0).load("100")
        result = system.stream(record, max_packets=2)
        assert result.num_packets == 2


class TestEmptyStreamGuards:
    """Regression: zero-packet streams must raise, not return nan."""

    @pytest.fixture()
    def empty_result(self, small_config):
        from repro.core import StreamResult

        return StreamResult(record="100", channel=0, config=small_config)

    @pytest.mark.parametrize(
        "metric",
        [
            "compression_ratio_percent",
            "mean_prd_percent",
            "mean_snr_db",
            "mean_iterations",
            "mean_decode_seconds",
        ],
    )
    def test_metrics_raise_on_zero_packets(self, empty_result, metric):
        with pytest.raises(ValueError, match="zero packets"):
            getattr(empty_result, metric)

    def test_no_runtime_warning_raised(self, empty_result, recwarn):
        with pytest.raises(ValueError):
            empty_result.mean_prd_percent
        assert not [
            w for w in recwarn.list if issubclass(w.category, RuntimeWarning)
        ]

    def test_num_packets_still_zero(self, empty_result):
        assert empty_result.num_packets == 0


class TestCalibration:
    def test_calibrate_syncs_codebooks(self, small_config, database):
        system = EcgMonitorSystem(small_config)
        system.calibrate(database.load("100"))
        assert system.encoder.codebook is system.decoder.codebook

    def test_calibration_helps_compression(self, small_config, database):
        record = database.load("106")
        fresh = EcgMonitorSystem(small_config)
        baseline = fresh.stream(record, max_packets=5).compression_ratio_percent
        calibrated_system = EcgMonitorSystem(small_config)
        calibrated_system.calibrate(record)
        calibrated = calibrated_system.stream(
            record, max_packets=5
        ).compression_ratio_percent
        assert calibrated >= baseline - 1.0


class TestRoundtripWindow:
    def test_cr_increases_with_smaller_m(self, small_config, database):
        """Fewer measurements -> higher CR, lower SNR (the Fig 2/6 axis)."""
        record = database.load("100")
        tight = EcgMonitorSystem(small_config.replace(m=small_config.m // 2))
        loose = EcgMonitorSystem(small_config)
        r_tight = tight.stream(record, max_packets=4)
        r_loose = loose.stream(record, max_packets=4)
        assert (
            r_tight.compression_ratio_percent
            > r_loose.compression_ratio_percent
        )
        assert r_tight.mean_snr_db < r_loose.mean_snr_db
