"""Tests for the MSP430 cycle/energy model — the paper's node claims."""

from __future__ import annotations

import pytest

from repro.config import SystemConfig
from repro.errors import PlatformModelError
from repro.platforms import Msp430Model, SensingApproach
from repro.platforms.kernels import KernelCounts


class TestCalibrationAnchors:
    """The published numbers the model is pinned to."""

    def test_sensing_time_is_82ms(self, paper_config):
        model = Msp430Model()
        assert model.sensing_time_s(paper_config) * 1e3 == pytest.approx(
            82.0, abs=0.5
        )

    def test_node_cpu_below_5_percent(self, paper_config):
        model = Msp430Model()
        assert model.cpu_usage_fraction(paper_config) < 0.05

    def test_calibration_report_consistent(self, paper_config):
        report = Msp430Model().calibration_report(paper_config)
        assert report["calibrated_ms"] == pytest.approx(82.0, abs=0.5)
        assert report["paper_anchor_ms"] == 82.0
        assert report["compiler_overhead"] > 1.0


class TestApproachComparison:
    """Section IV-A2: why approaches 1 and 2 were rejected."""

    def test_onboard_gaussian_not_realtime(self, paper_config):
        model = Msp430Model()
        assert not model.is_real_time(
            paper_config, SensingApproach.ONBOARD_GAUSSIAN
        )

    def test_sparse_binary_realtime_with_margin(self, paper_config):
        model = Msp430Model()
        time = model.approach_time_s(paper_config, SensingApproach.SPARSE_BINARY)
        assert time < 0.1 * paper_config.packet_seconds

    def test_stored_gaussian_much_slower_than_sparse(self, paper_config):
        model = Msp430Model()
        dense = model.approach_time_s(paper_config, SensingApproach.STORED_GAUSSIAN)
        sparse = model.approach_time_s(paper_config, SensingApproach.SPARSE_BINARY)
        assert dense > 10.0 * sparse

    def test_ordering_of_approaches(self, paper_config):
        model = Msp430Model()
        times = {
            approach: model.approach_time_s(paper_config, approach)
            for approach in SensingApproach
        }
        assert (
            times[SensingApproach.SPARSE_BINARY]
            < times[SensingApproach.STORED_GAUSSIAN]
            < times[SensingApproach.ONBOARD_GAUSSIAN]
        )


class TestModelMechanics:
    def test_float_ops_forbidden(self):
        model = Msp430Model()
        counts = KernelCounts(float_macs=1)
        assert model.hand_assembly_cycles(counts) > 1e8  # guard fires

    def test_cycles_scale_with_overhead(self, paper_config):
        from repro.platforms.kernels import sparse_sensing_counts

        counts = sparse_sensing_counts(paper_config)
        base = Msp430Model(compiler_overhead=1.0).cycles(counts)
        doubled = Msp430Model(compiler_overhead=2.0).cycles(counts)
        assert doubled == pytest.approx(2.0 * base)

    def test_invalid_parameters(self):
        with pytest.raises(PlatformModelError):
            Msp430Model(clock_hz=0.0)
        with pytest.raises(PlatformModelError):
            Msp430Model(compiler_overhead=0.5)

    def test_report_converts_to_seconds(self, paper_config):
        from repro.platforms.kernels import quantize_counts

        model = Msp430Model()
        report = model.report(quantize_counts(paper_config))
        assert report.seconds == pytest.approx(report.cycles / 8e6)

    def test_encode_time_scales_with_d(self, paper_config):
        model = Msp430Model()
        slow = model.encode_packet_time_s(paper_config.replace(d=24))
        fast = model.encode_packet_time_s(paper_config.replace(d=6))
        assert slow > 1.5 * fast

    def test_cpu_usage_scales_with_packet_rate(self, paper_config):
        """Same work in half the time window -> double the duty."""
        model = Msp430Model()
        half_packets = paper_config.replace(n=256, m=128)
        assert model.cpu_usage_fraction(half_packets) < 0.05
