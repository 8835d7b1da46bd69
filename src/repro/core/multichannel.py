"""Multi-lead streaming: both MIT-BIH channels through paired systems.

The MIT-BIH records are two-channel; a deployed monitor compresses
every lead.  :class:`MultiChannelMonitor` runs one matched
encoder/decoder pair per lead (sharing the configuration but using
per-lead sensing seeds, so simultaneous packet losses do not correlate
across leads) and hands back one :class:`StreamResult` per lead — the
same per-lead results :class:`~repro.fleet.FleetDecoder` returns.
"""

from __future__ import annotations

from ..coding import Codebook
from ..config import SystemConfig
from ..ecg.records import Record
from ..errors import ConfigurationError
from .system import EcgMonitorSystem, StreamResult


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
    ) -> list[StreamResult]:
        """Stream every lead of a record; one result per lead, in lead
        order.

        ``batch_size`` selects the batched decode engine; a multi-lead
        record is the natural batched workload — every lead contributes
        a full block of windows to reconstruct.  Batched decoding pools
        all leads through the fleet engine (:mod:`repro.fleet`):
        leads sharing a sensing operator batch *across* leads.
        """
        if record.num_channels < self.num_channels:
            raise ConfigurationError(
                f"record has {record.num_channels} channels, "
                f"monitor expects {self.num_channels}"
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
            return FleetDecoder(batch_size=batch_size).run(tasks)
        return [
            system.stream(
                record,
                channel=channel,
                max_packets=max_packets,
                keep_signals=keep_signals,
                batch_size=batch_size,
            )
            for channel, system in enumerate(self.systems)
        ]
