"""Multi-lead streaming: both MIT-BIH channels through paired systems.

The MIT-BIH records are two-channel; a deployed monitor compresses
every lead.  :class:`MultiChannelMonitor` runs one matched
encoder/decoder pair per lead (sharing the configuration but using
per-lead sensing seeds, so simultaneous packet losses do not correlate
across leads) and aggregates bandwidth/quality statistics — the node's
radio carries the *sum* of all leads' packets.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..coding import Codebook
from ..config import SystemConfig
from ..ecg.records import Record
from ..errors import ConfigurationError
from ..metrics import compression_ratio
from .system import EcgMonitorSystem, StreamResult


@dataclass
class MultiChannelResult:
    """Aggregate of the per-lead stream results."""

    per_channel: list[StreamResult] = field(default_factory=list)

    @property
    def num_channels(self) -> int:
        """Number of leads streamed."""
        return len(self.per_channel)

    @property
    def total_bits(self) -> int:
        """Radio payload across all leads."""
        return sum(
            sum(p.packet_bits for p in result.packets)
            for result in self.per_channel
        )

    @property
    def compression_ratio_percent(self) -> float:
        """CR of the combined multi-lead stream."""
        original = sum(
            result.config.original_packet_bits * result.num_packets
            for result in self.per_channel
        )
        return compression_ratio(original, self.total_bits)

    @property
    def worst_channel_prd_percent(self) -> float:
        """The clinically binding quality figure: the worst lead."""
        return max(result.mean_prd_percent for result in self.per_channel)

    @property
    def mean_iterations(self) -> float:
        """Average decoder iterations across leads (phone-side load)."""
        total = sum(result.mean_iterations for result in self.per_channel)
        return total / self.num_channels

    def bits_per_second(self) -> float:
        """Sustained radio rate for the combined stream.

        The stream is over when the *longest* lead finishes, so the
        denominator is the max per-lead duration — dividing by the mean
        overstates the rate whenever leads carry unequal packet counts.
        """
        seconds = max(
            (
                result.config.packet_seconds * result.num_packets
                for result in self.per_channel
            ),
            default=0.0,
        )
        if seconds == 0:
            return 0.0
        return self.total_bits / seconds


class MultiChannelMonitor:
    """One CS encoder/decoder pair per ECG lead."""

    def __init__(
        self,
        config: SystemConfig | None = None,
        channels: int = 2,
        codebook: Codebook | None = None,
        precision: str = "float64",
    ) -> None:
        if channels < 1:
            raise ConfigurationError(f"channels must be >= 1, got {channels}")
        self.config = config if config is not None else SystemConfig()
        # per-lead seeds decorrelate the sensing patterns across leads
        self.systems = [
            EcgMonitorSystem(
                self.config.replace(seed=self.config.seed + channel),
                codebook=codebook,
                precision=precision,
            )
            for channel in range(channels)
        ]

    @property
    def num_channels(self) -> int:
        """Number of leads this monitor compresses."""
        return len(self.systems)

    def calibrate(self, record: Record) -> None:
        """Train every lead's codebook on its own channel."""
        for channel, system in enumerate(self.systems):
            if channel < record.num_channels:
                system.calibrate(record, channel=channel)

    def stream(
        self,
        record: Record,
        max_packets: int | None = None,
        keep_signals: bool = False,
        batch_size: int | None = None,
        fleet_workers: int | None = None,
    ) -> MultiChannelResult:
        """Stream every available lead of a record.

        ``batch_size`` selects the batched decode engine; a multi-lead
        record is the natural batched workload — every lead contributes
        a full block of windows to reconstruct.  Batched decoding pools
        all leads through the fleet engine (:mod:`repro.fleet`):
        leads sharing a sensing operator batch *across* leads, and
        ``fleet_workers`` is :class:`~repro.fleet.FleetDecoder`'s
        ``workers`` (unset: one process per usable CPU for the
        serial-FISTA backends).  It only applies to the fleet path, so
        it requires ``batch_size > 1``.
        """
        if record.num_channels < self.num_channels:
            raise ConfigurationError(
                f"record has {record.num_channels} channels, "
                f"monitor expects {self.num_channels}"
            )
        if fleet_workers is not None and (
            batch_size is None or batch_size <= 1
        ):
            raise ConfigurationError(
                "fleet_workers requires batch_size > 1 (the serial "
                "per-lead path does not shard)"
            )
        if batch_size is not None and batch_size > 1:
            from ..fleet import FleetDecoder, StreamTask

            tasks = [
                StreamTask(
                    system=system,
                    record=record,
                    channel=channel,
                    max_packets=max_packets,
                    keep_signals=keep_signals,
                )
                for channel, system in enumerate(self.systems)
            ]
            decoder = FleetDecoder(
                batch_size=batch_size, workers=fleet_workers
            )
            return MultiChannelResult(per_channel=decoder.run(tasks))
        result = MultiChannelResult()
        for channel, system in enumerate(self.systems):
            result.per_channel.append(
                system.stream(
                    record,
                    channel=channel,
                    max_packets=max_packets,
                    keep_signals=keep_signals,
                    batch_size=batch_size,
                )
            )
        return result
