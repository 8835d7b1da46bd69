"""Holter session planning: multi-day monitoring budgets.

The paper's introduction motivates CS with 1-5 day Holter recordings.
:class:`HolterPlanner` turns the calibrated platform models into
deployment answers: how long does a battery last, how much data does a
session produce, does the session fit the node's SD card, and what
does compression buy — for any record mix and compression ratio.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..config import SystemConfig
from ..errors import ConfigurationError
from ..platforms.shimmer import ShimmerNode


@dataclass(frozen=True)
class HolterPlan:
    """Projected budget of one monitoring session."""

    duration_hours: float
    mean_packet_bits: float
    node_power_mw: float
    battery_hours: float
    data_volume_mb: float
    lifetime_extension_percent: float

    @property
    def battery_limited(self) -> bool:
        """Whether the battery dies before the planned duration."""
        return self.battery_hours < self.duration_hours

    @property
    def battery_days(self) -> float:
        """Battery endurance in days."""
        return self.battery_hours / 24.0


@dataclass
class HolterPlanner:
    """Plan ambulatory sessions from the calibrated node model."""

    config: SystemConfig = field(default_factory=SystemConfig)
    node: ShimmerNode = field(default_factory=ShimmerNode)
    #: micro-SD capacity of the Shimmer (paper: up to 2 GB)
    sd_card_mb: float = 2048.0

    def plan(
        self, duration_hours: float, mean_packet_bits: float
    ) -> HolterPlan:
        """Project one session at a measured mean packet size."""
        if duration_hours <= 0:
            raise ConfigurationError(
                f"duration_hours must be positive, got {duration_hours}"
            )
        if mean_packet_bits < 0:
            raise ConfigurationError(
                f"mean_packet_bits must be >= 0, got {mean_packet_bits}"
            )
        power = self.node.compressed_power(self.config, mean_packet_bits)
        packets = duration_hours * 3600.0 / self.config.packet_seconds
        data_mb = packets * mean_packet_bits / 8.0 / 1e6
        return HolterPlan(
            duration_hours=duration_hours,
            mean_packet_bits=mean_packet_bits,
            node_power_mw=power.total_mw,
            battery_hours=self.node.lifetime_hours(power),
            data_volume_mb=data_mb,
            lifetime_extension_percent=self.node.lifetime_extension_percent(
                self.config, mean_packet_bits
            ),
        )

    def plan_uncompressed(self, duration_hours: float) -> HolterPlan:
        """The baseline: stream raw samples for the whole session."""
        raw_bits_per_packet = float(self.config.original_packet_bits)
        if duration_hours <= 0:
            raise ConfigurationError(
                f"duration_hours must be positive, got {duration_hours}"
            )
        power = self.node.streaming_power(self.config)
        packets = duration_hours * 3600.0 / self.config.packet_seconds
        return HolterPlan(
            duration_hours=duration_hours,
            mean_packet_bits=raw_bits_per_packet,
            node_power_mw=power.total_mw,
            battery_hours=self.node.lifetime_hours(power),
            data_volume_mb=packets * raw_bits_per_packet / 8.0 / 1e6,
            lifetime_extension_percent=0.0,
        )

    def fits_sd_card(self, plan: HolterPlan) -> bool:
        """Whether the session's data volume fits local storage."""
        return plan.data_volume_mb <= self.sd_card_mb
