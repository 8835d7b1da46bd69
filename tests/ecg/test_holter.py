"""Tests for the Holter session planner."""

from __future__ import annotations

import pytest

from repro.config import SystemConfig
from repro.ecg import HolterPlanner
from repro.errors import ConfigurationError


@pytest.fixture(scope="module")
def planner():
    return HolterPlanner(config=SystemConfig())


class TestHolterPlanner:
    def test_compressed_beats_uncompressed(self, planner):
        raw = planner.plan_uncompressed(24.0)
        compressed = planner.plan(24.0, raw.mean_packet_bits * 0.5)
        assert compressed.battery_hours > raw.battery_hours
        assert compressed.data_volume_mb < raw.data_volume_mb
        assert compressed.lifetime_extension_percent == pytest.approx(
            12.9, abs=0.1
        )

    def test_battery_limited_flag(self, planner):
        raw = planner.plan_uncompressed(24.0)
        short = planner.plan_uncompressed(raw.battery_hours / 2.0)
        long = planner.plan_uncompressed(raw.battery_hours * 2.0)
        assert not short.battery_limited
        assert long.battery_limited

    def test_data_volume_accounting(self, planner):
        plan = planner.plan(2.0, 3072.0)
        # 2 h = 3600 packets of 3072 bits = 1.3824 MB
        assert plan.data_volume_mb == pytest.approx(1.3824, rel=1e-6)

    def test_holter_sessions_fit_sd_card(self, planner):
        """A 5-day compressed session fits the Shimmer's 2 GB card."""
        plan = planner.plan(5 * 24.0, 3072.0)
        assert planner.fits_sd_card(plan)

    def test_battery_days_property(self, planner):
        plan = planner.plan(24.0, 3072.0)
        assert plan.battery_days == pytest.approx(plan.battery_hours / 24.0)

    def test_validation(self, planner):
        with pytest.raises(ConfigurationError):
            planner.plan(0.0, 100.0)
        with pytest.raises(ConfigurationError):
            planner.plan(1.0, -1.0)
        with pytest.raises(ConfigurationError):
            planner.plan_uncompressed(0.0)

    def test_more_compression_more_days(self, planner):
        aggressive = planner.plan(24.0, 1024.0).battery_days
        mild = planner.plan(24.0, 4096.0).battery_days
        assert aggressive > mild
