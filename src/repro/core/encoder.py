"""The node-side CS encoder (paper Figure 1, top path).

Three stages, exactly as on the Shimmer mote:

1. **sparse binary sensing** — ``y_int[i] = sum of selected samples``
   (integer additions only; the ``1/sqrt(d)`` scale is the decoder's
   job), followed by the shift quantizer;
2. **redundancy removal** — closed-loop differencing of consecutive
   quantized measurement vectors, with periodic keyframes;
3. **Huffman coding** — the offline-trained, length-limited canonical
   codebook turns the difference symbols into the payload bitstream.

Everything on this path is integer arithmetic a 16-bit MCU can execute;
the encoder also keeps running totals (bits in/out, saturation counts)
for the compression-ratio accounting of the evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..coding import Codebook, DifferentialCodec, train_codebook
from ..config import SystemConfig
from ..errors import ConfigurationError
from ..sensing import SparseBinaryMatrix
from ..utils import check_integer_array
from .packets import EncodedPacket, PacketKind, pack_keyframe_values
from .quantizer import MeasurementQuantizer


@dataclass
class EncoderStats:
    """Running encoder statistics (for CR accounting and diagnostics)."""

    packets: int = 0
    keyframes: int = 0
    input_bits: int = 0
    output_bits: int = 0
    saturated_symbols: int = 0
    total_symbols: int = 0
    per_packet_bits: list[int] = field(default_factory=list)

    @property
    def compression_ratio_percent(self) -> float:
        """Stream-level CR (Eq. 7) including all packet overheads."""
        if self.input_bits == 0:
            return 0.0
        return (self.input_bits - self.output_bits) / self.input_bits * 100.0

    @property
    def saturation_fraction(self) -> float:
        """Fraction of difference symbols clipped to the codebook rails."""
        if self.total_symbols == 0:
            return 0.0
        return self.saturated_symbols / self.total_symbols


class CSEncoder:
    """Compressed-sensing ECG encoder for one lead.

    Parameters
    ----------
    config:
        System parameters (N, M, d, seed, keyframe interval...).
    codebook:
        Trained Huffman codebook; ``None`` trains the default Laplacian
        codebook (what a device would ship with before calibration).
    """

    def __init__(
        self, config: SystemConfig, codebook: Codebook | None = None
    ) -> None:
        self.config = config
        self.matrix = SparseBinaryMatrix(
            config.m, config.n, d=config.d, seed=config.seed
        )
        self.quantizer = MeasurementQuantizer(d=config.d)
        self.codec = DifferentialCodec(keyframe_interval=config.keyframe_interval)
        self.codebook = codebook if codebook is not None else train_codebook()
        if self.codebook.min_value > self.codec.diff_min or (
            self.codebook.max_value < self.codec.diff_max
        ):
            raise ConfigurationError(
                "codebook range does not cover the difference-signal range"
            )
        self.stats = EncoderStats()
        self._sequence = 0
        #: centering offset subtracted from raw adu samples (DC removal)
        self.dc_offset = 1 << (config.adc_bits - 1)

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Restart the stream: next packet is a keyframe, stats cleared."""
        self.codec.reset()
        self.stats = EncoderStats()
        self._sequence = 0

    # ------------------------------------------------------------------
    def measure(self, samples_adu: np.ndarray) -> np.ndarray:
        """Stage 1: integer sensing + quantization of one window."""
        x = check_integer_array(np.asarray(samples_adu), "samples_adu")
        if x.shape != (self.config.n,):
            raise ValueError(
                f"expected {self.config.n} samples, got shape {x.shape}"
            )
        centered = x.astype(np.int64) - self.dc_offset
        y_int = self.matrix.measure_integer(centered)
        return self.quantizer.quantize(y_int)

    def measure_batch(self, windows_adu: np.ndarray) -> np.ndarray:
        """Stage 1 for a ``(B, n)`` block: one sparse matmul + quantize.

        Row ``b`` equals ``measure(windows_adu[b])`` bit for bit — the
        sensing sum and the shift quantizer are integer-exact.
        """
        x = check_integer_array(np.asarray(windows_adu), "windows_adu")
        if x.ndim != 2 or x.shape[1] != self.config.n:
            raise ValueError(
                f"expected batch shape (B, {self.config.n}), got shape {x.shape}"
            )
        centered = x.astype(np.int64) - self.dc_offset
        y_int = self.matrix.measure_integer_batch(centered)
        return self.quantizer.quantize(y_int)

    def encode(self, samples_adu: np.ndarray) -> EncodedPacket:
        """Encode one N-sample window into an on-air packet."""
        y_q = self.measure(samples_adu)
        is_keyframe, payload_values = self.codec.encode(y_q)
        return self._packetize(
            is_keyframe, payload_values, self.codec.last_clip_count
        )

    def encode_batch(self, windows_adu: np.ndarray) -> list[EncodedPacket]:
        """Encode a ``(B, n)`` block of windows into on-air packets.

        Produces exactly the packets (and the same running stats) that
        ``[encode(w) for w in windows_adu]`` would: sensing and
        quantization are vectorized across the block, differencing runs
        segment-at-a-time through the codec's batched closed loop, and
        only the Huffman bitstream remains per-packet.
        """
        y_q = self.measure_batch(windows_adu)
        pairs = self.codec.encode_batch(y_q)
        clip_counts = self.codec.last_batch_clip_counts
        return [
            self._packetize(is_keyframe, values, int(clip_counts[index]))
            for index, (is_keyframe, values) in enumerate(pairs)
        ]

    def _packetize(
        self,
        is_keyframe: bool,
        payload_values: np.ndarray,
        clip_count: int,
    ) -> EncodedPacket:
        """Stage 3 + stats: shared by the serial and batched paths.

        ``clip_count`` is the codec's *strict* clipping count (values
        that fell outside the rails before saturation); rail-valued
        differences are representable symbols and are not saturation.
        """
        if is_keyframe:
            payload, payload_bits = pack_keyframe_values(payload_values)
            kind = PacketKind.KEYFRAME
            self.stats.keyframes += 1
        else:
            self.stats.saturated_symbols += int(clip_count)
            self.stats.total_symbols += len(payload_values)
            symbols = payload_values - self.codebook.offset
            writer = self.codebook.code.encode(symbols.tolist())
            payload_bits = writer.bit_length
            payload = writer.getvalue()
            kind = PacketKind.DIFFERENCE

        packet = EncodedPacket(
            kind=kind,
            sequence=self._sequence & 0xFFFF,
            m=self.config.m,
            payload=payload,
            payload_bits=payload_bits,
        )
        self._sequence += 1
        self.stats.packets += 1
        self.stats.input_bits += self.config.original_packet_bits
        self.stats.output_bits += packet.total_bits
        self.stats.per_packet_bits.append(packet.total_bits)
        return packet

    # ------------------------------------------------------------------
    def train_codebook_on(self, windows_adu: list[np.ndarray]) -> Codebook:
        """Offline codebook training pass over calibration windows.

        Runs the sensing + differencing stages (on a scratch codec so
        the live stream state is untouched), collects the difference
        symbols, and trains a length-limited codebook on them — the
        "offline-generated codebook" of the paper.
        """
        scratch = DifferentialCodec(
            keyframe_interval=self.config.keyframe_interval
        )
        differences: list[np.ndarray] = []
        for window in windows_adu:
            y_q = self.measure(window)
            is_keyframe, values = scratch.encode(y_q)
            if not is_keyframe:
                differences.append(values)
        if not differences:
            raise ConfigurationError(
                "calibration produced no difference symbols; "
                "provide more than one window per keyframe interval"
            )
        self.codebook = train_codebook(np.concatenate(differences))
        return self.codebook
