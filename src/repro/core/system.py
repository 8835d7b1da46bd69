"""End-to-end streaming: node encoder -> (wire) -> coordinator decoder.

:class:`EcgMonitorSystem` packages the full pipeline for evaluation: it
takes a :class:`~repro.ecg.records.Record`, resamples it to the node
rate, digitizes it, streams every N-sample window through the encoder
and decoder, and collects per-packet and aggregate metrics (CR, PRD,
SNR, FISTA iterations, wall-clock decode time).  All the paper's
figure-level sweeps are thin loops over this class.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..coding import Codebook
from ..config import SystemConfig
from ..ecg.records import Record
from ..ecg.resample import resample_record
from ..metrics import compression_ratio, prd, snr_from_prd
from .decoder import CSDecoder
from .encoder import CSEncoder
from .packets import EncodedPacket, PacketKind


@dataclass(frozen=True)
class PacketResult:
    """Metrics of one encoded+decoded window."""

    sequence: int
    is_keyframe: bool
    packet_bits: int
    prd_percent: float
    snr_db: float
    iterations: int
    decode_seconds: float


def window_metrics(
    window_adu: np.ndarray,
    packet: EncodedPacket,
    samples_adu: np.ndarray,
    iterations: int,
    decode_seconds: float,
    dc_offset: int,
) -> PacketResult:
    """Per-window metrics from raw reconstruction arrays.

    The one assembly step of a :class:`PacketResult`, shared by the
    serial stream loop and the fleet engine (whose workers ship back
    plain arrays, not :class:`~repro.core.decoder.DecodedPacket`
    objects).
    """
    centered_original = window_adu.astype(np.float64) - dc_offset
    centered_reconstruction = samples_adu - dc_offset
    packet_prd = prd(centered_original, centered_reconstruction)
    return PacketResult(
        sequence=packet.sequence,
        is_keyframe=packet.kind is PacketKind.KEYFRAME,
        packet_bits=packet.total_bits,
        prd_percent=packet_prd,
        snr_db=snr_from_prd(packet_prd),
        iterations=iterations,
        decode_seconds=decode_seconds,
    )


@dataclass
class StreamResult:
    """Aggregate outcome of streaming one record channel."""

    record: str
    channel: int
    config: SystemConfig
    packets: list[PacketResult] = field(default_factory=list)
    original_adu: np.ndarray | None = None
    reconstructed_adu: np.ndarray | None = None

    @property
    def num_packets(self) -> int:
        """Number of processed windows."""
        return len(self.packets)

    def _require_packets(self, metric: str) -> None:
        if not self.packets:
            raise ValueError(
                f"{metric} is undefined for a stream with zero packets "
                f"(record {self.record!r}, channel {self.channel})"
            )

    @property
    def compression_ratio_percent(self) -> float:
        """Stream-level CR including headers and keyframes."""
        self._require_packets("compression_ratio_percent")
        total_bits = sum(p.packet_bits for p in self.packets)
        original = self.config.original_packet_bits * self.num_packets
        return compression_ratio(original, total_bits)

    @property
    def mean_prd_percent(self) -> float:
        """Average per-packet PRD."""
        self._require_packets("mean_prd_percent")
        return float(np.mean([p.prd_percent for p in self.packets]))

    @property
    def mean_snr_db(self) -> float:
        """Average per-packet output SNR."""
        self._require_packets("mean_snr_db")
        return float(np.mean([p.snr_db for p in self.packets]))

    @property
    def mean_iterations(self) -> float:
        """Average FISTA iterations per packet."""
        self._require_packets("mean_iterations")
        return float(np.mean([p.iterations for p in self.packets]))

    @property
    def mean_decode_seconds(self) -> float:
        """Average wall-clock decode time per packet (this machine)."""
        self._require_packets("mean_decode_seconds")
        return float(np.mean([p.decode_seconds for p in self.packets]))


class EcgMonitorSystem:
    """A matched CS encoder/decoder pair operating on ECG records."""

    def __init__(
        self,
        config: SystemConfig | None = None,
        codebook: Codebook | None = None,
        precision: str = "float64",
    ) -> None:
        self.config = config if config is not None else SystemConfig()
        self.encoder = CSEncoder(self.config, codebook=codebook)
        self.decoder = CSDecoder(
            self.config, codebook=self.encoder.codebook, precision=precision
        )

    # ------------------------------------------------------------------
    def calibrate(self, record: Record, channel: int = 0, windows: int = 30) -> None:
        """Train the Huffman codebook on the first windows of a record."""
        samples = self._prepare_samples(record, channel)
        available = len(samples) // self.config.n
        use = min(windows, available)
        windows_adu = [
            samples[i * self.config.n : (i + 1) * self.config.n]
            for i in range(use)
        ]
        codebook = self.encoder.train_codebook_on(windows_adu)
        self.decoder.codebook = codebook
        self.encoder.reset()
        self.decoder.reset()

    # ------------------------------------------------------------------
    def _prepare_samples(self, record: Record, channel: int) -> np.ndarray:
        """Resample to the node rate and digitize one channel."""
        if abs(record.fs_hz - self.config.sample_rate_hz) > 1e-9:
            record = resample_record(record, float(self.config.sample_rate_hz))
        return record.adc.digitize(record.channel(channel))

    def stream(
        self,
        record: Record,
        channel: int = 0,
        max_packets: int | None = None,
        keep_signals: bool = False,
        batch_size: int | None = None,
    ) -> StreamResult:
        """Stream one record channel through the full system.

        ``batch_size=None`` (or 1) runs the serial reference loop —
        one packet encoded and decoded at a time, exactly the paper's
        real-time pipeline.  ``batch_size=B`` hands the whole record to
        the fleet engine as a one-stream fleet
        (:class:`~repro.fleet.FleetDecoder`, default workers):
        vectorized sensing, batched differencing and ``B`` windows per
        batched-FISTA solve, with bit-identical packets and matching
        metrics.
        """
        if batch_size is not None and batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        if max_packets is not None and max_packets < 1:
            raise ValueError(
                f"max_packets={max_packets} requests no windows; "
                "need at least 1 packet to stream"
            )
        if batch_size is not None and batch_size > 1:
            # imported here: the fleet package builds on this module
            from ..fleet import FleetDecoder, StreamTask

            task = StreamTask(self, record, channel, max_packets, keep_signals)
            return FleetDecoder(batch_size=batch_size).run([task])[0]
        samples = self._prepare_samples(record, channel)
        n = self.config.n
        num_windows = len(samples) // n
        if max_packets is not None:
            num_windows = min(num_windows, max_packets)
        if num_windows == 0:
            raise ValueError(
                f"record too short: {len(samples)} samples < one window of {n}"
            )

        self.encoder.reset()
        self.decoder.reset()
        offset = self.encoder.dc_offset

        result = StreamResult(record=record.name, channel=channel, config=self.config)
        reconstructed: list[np.ndarray] = []
        originals: list[np.ndarray] = []

        for index in range(num_windows):
            window = samples[index * n : (index + 1) * n]
            packet = self.encoder.encode(window)
            decoded = self.decoder.decode(packet)
            result.packets.append(
                window_metrics(
                    window,
                    packet,
                    decoded.samples_adu,
                    decoded.iterations,
                    decoded.decode_seconds,
                    offset,
                )
            )
            if keep_signals:
                originals.append(window.astype(np.float64))
                reconstructed.append(decoded.samples_adu)

        if keep_signals:
            result.original_adu = np.concatenate(originals)
            result.reconstructed_adu = np.concatenate(reconstructed)
        return result
