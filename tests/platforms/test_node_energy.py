"""Tests for Bluetooth, battery, Shimmer and iPhone composition models."""

from __future__ import annotations

import pytest

from repro.config import SystemConfig
from repro.errors import PlatformModelError
from repro.platforms import (
    Battery,
    BluetoothLink,
    IPhoneModel,
    Msp430Model,
    ShimmerNode,
)
from repro.platforms.battery import lifetime_extension_percent
from repro.platforms.cortexa8 import DecodePipeline


class TestBluetoothLink:
    def test_airtime(self):
        link = BluetoothLink(throughput_bps=60_000.0)
        assert link.airtime_s(6_000) == pytest.approx(0.1)

    def test_average_power_interpolates(self):
        link = BluetoothLink(
            throughput_bps=60_000.0, tx_power_mw=90.0, idle_power_mw=3.0
        )
        assert link.average_power_mw(0.0) == pytest.approx(3.0)
        assert link.average_power_mw(60_000.0) == pytest.approx(90.0)
        assert link.average_power_mw(30_000.0) == pytest.approx(46.5)

    def test_rate_above_capacity_saturates(self):
        link = BluetoothLink(throughput_bps=60_000.0, tx_power_mw=90.0)
        assert link.average_power_mw(120_000.0) == pytest.approx(90.0)

    def test_validation(self):
        with pytest.raises(PlatformModelError):
            BluetoothLink(throughput_bps=0.0)
        with pytest.raises(PlatformModelError):
            BluetoothLink().airtime_s(-1)
        with pytest.raises(PlatformModelError):
            BluetoothLink().average_power_mw(-1)


class TestBattery:
    def test_energy_joules(self):
        battery = Battery(capacity_mah=280.0, voltage_v=3.7)
        assert battery.energy_j == pytest.approx(280 * 3.6 * 3.7)

    def test_lifetime_hours(self):
        battery = Battery(capacity_mah=1000.0, voltage_v=1.0)
        # 3600 J at 1 mW -> 3.6e6 s -> 1000 h
        assert battery.lifetime_hours(1.0) == pytest.approx(1000.0)

    def test_validation(self):
        with pytest.raises(PlatformModelError):
            Battery(capacity_mah=0.0)
        with pytest.raises(PlatformModelError):
            Battery().lifetime_hours(0.0)

    def test_extension_formula(self):
        assert lifetime_extension_percent(112.9, 100.0) == pytest.approx(12.9)
        with pytest.raises(PlatformModelError):
            lifetime_extension_percent(0.0, 1.0)


class TestShimmerNode:
    """Section V: < 5 % CPU and the 12.9 % lifetime extension."""

    def test_cpu_usage_below_5_percent(self, paper_config):
        node = ShimmerNode()
        assert node.cpu_usage_percent(paper_config) < 5.0

    def test_lifetime_extension_at_cr50_is_12_9(self, paper_config):
        """The calibration anchor: exactly half the original bits."""
        node = ShimmerNode()
        half_bits = paper_config.original_packet_bits * 0.5
        assert node.lifetime_extension_percent(
            paper_config, half_bits
        ) == pytest.approx(12.9, abs=0.1)

    def test_extension_grows_with_compression(self, paper_config):
        node = ShimmerNode()
        bits = paper_config.original_packet_bits
        low = node.lifetime_extension_percent(paper_config, bits * 0.7)
        high = node.lifetime_extension_percent(paper_config, bits * 0.3)
        assert high > low > 0.0

    def test_power_breakdown_sums(self, paper_config):
        node = ShimmerNode()
        breakdown = node.compressed_power(paper_config, 3072.0)
        assert breakdown.total_mw == pytest.approx(
            breakdown.base_mw + breakdown.radio_mw + breakdown.cpu_mw
        )

    def test_streaming_has_no_cpu_term(self, paper_config):
        node = ShimmerNode()
        assert node.streaming_power(paper_config).cpu_mw == 0.0

    def test_lifetime_hours_plausible(self, paper_config):
        """A 280 mAh Shimmer streaming raw ECG lives for days, not years."""
        node = ShimmerNode()
        hours = node.lifetime_hours(node.streaming_power(paper_config))
        assert 20.0 < hours < 200.0

    def test_negative_bits_rejected(self, paper_config):
        with pytest.raises(PlatformModelError):
            ShimmerNode().compressed_power(paper_config, -1.0)

    def test_raw_rate(self, paper_config):
        assert ShimmerNode().raw_stream_bits_per_second(
            paper_config
        ) == pytest.approx(256 * 12)


class TestIPhoneModel:
    def test_cpu_usage_at_cr50_near_17_7(self, paper_config):
        """~700 iterations (the paper's CR-50 average) -> ~17.7 % CPU."""
        phone = IPhoneModel()
        usage = phone.cpu_usage_percent(paper_config, 700)
        assert usage == pytest.approx(17.7, abs=2.5)

    def test_cpu_usage_below_30_percent_over_sweep(self, paper_config):
        """The abstract's claim, over the full Fig-7 iteration range."""
        phone = IPhoneModel()
        for iterations in (600, 700, 800, 900, 1000):
            assert phone.cpu_usage_percent(paper_config, iterations) < 30.0

    def test_display_share_small(self):
        phone = IPhoneModel()
        assert 0.005 < phone.display_cpu_fraction() < 0.05

    def test_realtime_within_budget(self, paper_config):
        phone = IPhoneModel()
        assert phone.is_realtime(paper_config, 1500)
        assert not phone.is_realtime(paper_config, 5000)

    def test_max_iterations_delegated(self, paper_config):
        phone = IPhoneModel()
        assert phone.max_realtime_iterations(
            paper_config, DecodePipeline.NEON_OPTIMIZED
        ) == pytest.approx(2000, abs=20)

    def test_display_pixel_rate(self):
        phone = IPhoneModel()
        # 4 px / 15 ms ~ 267 px/s ~ the 256 Hz sample rate
        assert phone.display_pixel_rate_hz() == pytest.approx(266.7, abs=0.1)

    def test_buffer_requirement_6s(self):
        assert IPhoneModel().buffer_requirement_s() == 6.0

    def test_validation(self):
        with pytest.raises(PlatformModelError):
            IPhoneModel(display_period_s=0.0)
        with pytest.raises(PlatformModelError):
            IPhoneModel(pixels_per_wakeup=0)
