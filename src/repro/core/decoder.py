"""The coordinator-side CS decoder (paper Figure 1, bottom path).

Three stages mirroring the encoder:

1. **Huffman decoding** with the shared codebook;
2. **packet reconstruction** — re-inserting the inter-packet redundancy
   (cumulative differences against the last keyframe);
3. **FISTA reconstruction** — solving the l1 problem in the wavelet
   domain and synthesizing the time-domain ECG.

The decoder supports float64 (the paper's Matlab reference) and float32
(the iPhone build); Figure 6 overlays the two.  The dense system
operator and its Lipschitz constant are computed once on first use and
cached for the decoder's lifetime (the sensing matrix is fixed),
exactly as an embedded decoder would precompute them offline — lazily,
so a fleet of per-stream decoders sharing one operator group does not
pay the precompute per stream.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ..coding import BitReader, Codebook, DifferentialCodec, train_codebook
from ..config import SystemConfig
from ..errors import ConfigurationError, DecodingError
from ..sensing import SparseBinaryMatrix
from ..solvers import (
    BatchedFista,
    SolverResult,
    StructuredOperator,
    fista,
    lambda_from_fraction,
)
from ..solvers.lipschitz import lipschitz_constant
from ..wavelet import WaveletTransform
from .packets import EncodedPacket, PacketKind, unpack_keyframe_values
from .quantizer import MeasurementQuantizer


class PacketPayloadDecoder:
    """Stages 1-2 of the decoder: entropy decode + redundancy re-insert.

    Everything *before* the FISTA solve — Huffman decoding, closed-loop
    difference reconstruction and dequantization — is per-stream state
    (codebook, reference vector) that never touches the dense system
    operator.  Splitting it out lets a fleet worker keep one of these
    per stream while sharing a single operator/Lipschitz precomputation
    per sensing-operator group (see :mod:`repro.fleet`), and lets the
    worker be constructed without materializing ``A = Phi Psi`` at all.
    """

    def __init__(
        self, config: SystemConfig, codebook: Codebook | None = None
    ) -> None:
        self.config = config
        self.codebook = codebook if codebook is not None else train_codebook()
        self.codec = DifferentialCodec(
            keyframe_interval=config.keyframe_interval
        )
        self.quantizer = MeasurementQuantizer(d=config.d)

    def reset(self) -> None:
        """Drop the inter-packet reference state."""
        self.codec.reset()

    def decode_payload(self, packet: EncodedPacket) -> np.ndarray:
        """Decode one packet down to its quantized measurement vector."""
        if packet.m != self.config.m:
            raise DecodingError(
                f"packet m={packet.m} does not match decoder m={self.config.m}"
            )
        if packet.kind is PacketKind.KEYFRAME:
            values = unpack_keyframe_values(packet.payload, self.config.m)
            return self.codec.decode(True, values)
        reader = BitReader(packet.payload, bit_length=packet.payload_bits)
        symbols = self.codebook.code.decode(reader, self.config.m)
        if reader.remaining >= 8:
            raise DecodingError(
                f"{reader.remaining} unread payload bits after decoding"
            )
        diffs = np.asarray(
            [self.codebook.value_for(s) for s in symbols], dtype=np.int64
        )
        return self.codec.decode(False, diffs)

    def measurement_block(
        self, packets: Sequence[EncodedPacket], dtype: np.dtype | type
    ) -> np.ndarray:
        """Stack the dequantized measurements of many packets, ``(m, B)``.

        Sequential by necessity — the difference codec is stateful — but
        cheap relative to the reconstruction solve it feeds.
        """
        block = np.empty((self.config.m, len(packets)), dtype=dtype)
        for column, packet in enumerate(packets):
            y_q = self.decode_payload(packet)
            block[:, column] = self.quantizer.dequantize(y_q).astype(dtype)
        return block


@dataclass(frozen=True)
class DecodedPacket:
    """One reconstructed 2-second window plus solver diagnostics."""

    sequence: int
    samples_adu: np.ndarray
    measurements: np.ndarray
    solver: SolverResult
    decode_seconds: float

    @property
    def iterations(self) -> int:
        """FISTA iterations spent on this packet."""
        return self.solver.iterations


class CSDecoder:
    """Compressed-sensing ECG decoder for one lead.

    Parameters
    ----------
    config:
        Must match the encoder's configuration (same seed -> same
        sensing matrix, the paper's shared fixed matrix).
    codebook:
        Must be the same codebook the encoder used.
    precision:
        ``"float64"`` (Matlab reference), ``"float32"`` (iPhone), or
        ``"hybrid"`` — the raw-speed backend: float32 FISTA iterations
        against the fused dense operator, dense ``Psi`` GEMM synthesis,
        a sparse scatter/gather residual gate ``||y - Phi s||`` per
        column, and a float64 polish re-solve for any column whose
        relative residual leaves the fig-6 corridor (see
        :func:`~repro.solvers.batched.structured_batched_fista`).
    warm_start:
        Reuse the previous packet's wavelet coefficients as the FISTA
        starting point (off by default: the paper decodes each packet
        independently).  Not supported with ``"hybrid"`` (the polish
        re-solve would break the per-stream coefficient chain).
    """

    def __init__(
        self,
        config: SystemConfig,
        codebook: Codebook | None = None,
        precision: str = "float64",
        warm_start: bool = False,
    ) -> None:
        if precision not in ("float64", "float32", "hybrid"):
            raise ConfigurationError(
                f"precision must be 'float64', 'float32' or 'hybrid', "
                f"got {precision!r}"
            )
        if precision == "hybrid" and warm_start:
            raise ConfigurationError(
                "warm_start is not supported with precision='hybrid'"
            )
        self.config = config
        self.precision = precision
        self.warm_start = warm_start
        self.payload = PacketPayloadDecoder(config, codebook=codebook)

        self._matrix = SparseBinaryMatrix(
            config.m, config.n, d=config.d, seed=config.seed
        )
        self.transform = WaveletTransform(config.n, config.wavelet, config.levels)
        # Dense materialization of A = Phi Psi (at N = 512 the fastest
        # representation for the numerical sweeps; the embedded cost
        # models account for the matrix-free structure instead) is
        # *lazy*: it and its Lipschitz estimate are built on first use.
        # A fleet run constructs one decoder per stream but iterates
        # only one operator per group — eager per-decoder builds would
        # pay the group's precompute once per stream.
        self._system_cache: np.ndarray | None = None
        self._lipschitz_cache: float | None = None
        self.dc_offset = 1 << (config.adc_bits - 1)
        self._previous_alpha: np.ndarray | None = None
        self._batched_solver: BatchedFista | None = None

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Drop stream state (reference vector and warm-start memory)."""
        self.payload.reset()
        self._previous_alpha = None

    # stages 1-2 live on the payload decoder; these aliases keep the
    # historical attribute surface (tests and ablations poke them)
    @property
    def codebook(self) -> Codebook:
        """Shared entropy codebook (must match the encoder's)."""
        return self.payload.codebook

    @codebook.setter
    def codebook(self, value: Codebook) -> None:
        self.payload.codebook = value

    @property
    def codec(self) -> DifferentialCodec:
        """Stateful inter-packet difference decoder."""
        return self.payload.codec

    @codec.setter
    def codec(self, value: DifferentialCodec) -> None:
        self.payload.codec = value

    @property
    def quantizer(self) -> MeasurementQuantizer:
        """Measurement dequantizer (folds the deferred 1/sqrt(d))."""
        return self.payload.quantizer

    @quantizer.setter
    def quantizer(self, value: MeasurementQuantizer) -> None:
        self.payload.quantizer = value

    @property
    def system_matrix(self) -> np.ndarray:
        """The dense system operator ``A = Phi Psi`` (decoder precision)."""
        if self._system_cache is None:
            dtype = np.float32 if self.precision == "float32" else np.float64
            self._system_cache = (
                self._matrix.sparse() @ self.transform.synthesis_matrix()
            ).astype(dtype)
        return self._system_cache

    @property
    def lipschitz(self) -> float:
        """Precomputed Lipschitz constant of the data-fidelity gradient."""
        if self._lipschitz_cache is None:
            self._lipschitz_cache = lipschitz_constant(
                self.system_matrix.astype(np.float64)
            )
        return self._lipschitz_cache

    def batched_solver(self) -> BatchedFista:
        """The (lazily built) batched solver for this decoder's backend.

        For ``"hybrid"`` precision the solver is bound to a
        :class:`~repro.solvers.sparse_apply.StructuredOperator` (sparse
        ``Phi`` gather kernels + both-precision dense pair) so
        :meth:`~repro.solvers.batched.BatchedFista.solve_structured`
        is available; otherwise a plain dense-operator solver.  Shared
        by :meth:`decode_batch` and the fleet's in-process group path,
        so the operator/Lipschitz precompute is paid once per decoder.
        """
        if self._batched_solver is None:
            if self.precision == "hybrid":
                structure = StructuredOperator(
                    self._matrix,
                    self.transform.synthesis_matrix(),
                    dense=self.system_matrix,
                    lipschitz=self.lipschitz,
                )
                self._batched_solver = BatchedFista(
                    structure.dense64,
                    lipschitz=structure.lipschitz,
                    structure=structure,
                )
            else:
                self._batched_solver = BatchedFista(
                    self.system_matrix, lipschitz=self.lipschitz
                )
        return self._batched_solver

    # ------------------------------------------------------------------
    def _decode_payload(self, packet: EncodedPacket) -> np.ndarray:
        """Stages 1-2: entropy decoding and redundancy re-insertion."""
        return self.payload.decode_payload(packet)

    def decode(self, packet: EncodedPacket) -> DecodedPacket:
        """Full decode of one packet into reconstructed adu samples."""
        started = time.perf_counter()
        y_q = self._decode_payload(packet)
        y = self.quantizer.dequantize(y_q)
        if self.precision == "hybrid":
            # the structured backend is inherently batched; a serial
            # decode is a width-1 block through the same pipeline
            result = self.batched_solver().solve_structured(
                np.asarray(y, dtype=np.float64)[:, None],
                self.config.lam,
                max_iterations=self.config.max_iterations,
                tolerance=self.config.tolerance,
            )
            samples = result.signals[:, 0] + self.dc_offset
            return DecodedPacket(
                sequence=packet.sequence,
                samples_adu=samples,
                measurements=np.asarray(y, dtype=np.float64),
                solver=result.per_column(0),
                decode_seconds=time.perf_counter() - started,
            )
        dtype = np.float32 if self.precision == "float32" else np.float64
        y = y.astype(dtype)

        lam = lambda_from_fraction(self.system_matrix, y, self.config.lam)
        x0 = self._previous_alpha if self.warm_start else None
        result = fista(
            self.system_matrix,
            y,
            lam=lam,
            max_iterations=self.config.max_iterations,
            tolerance=self.config.tolerance,
            lipschitz=self.lipschitz,
            x0=x0,
        )
        if self.warm_start:
            self._previous_alpha = result.coefficients

        signal = self.transform.inverse(result.coefficients)
        samples = np.asarray(signal, dtype=np.float64) + self.dc_offset
        elapsed = time.perf_counter() - started
        return DecodedPacket(
            sequence=packet.sequence,
            samples_adu=samples,
            measurements=np.asarray(y, dtype=np.float64),
            solver=result,
            decode_seconds=elapsed,
        )

    def decode_batch(
        self, packets: Sequence[EncodedPacket]
    ) -> list[DecodedPacket]:
        """Decode many packets with one batched FISTA solve.

        Entropy decoding and redundancy re-insertion stay sequential
        (they are stateful and cheap); the measurement vectors are then
        stacked into an ``(m, B)`` matrix and reconstructed by
        :class:`~repro.solvers.batched.BatchedFista` with per-column
        regularization weights and convergence masking, followed by one
        batched inverse wavelet synthesis.  Per-packet results match
        :meth:`decode` to solver floating-point noise (identical
        iteration counts, reconstructions equal to ~1e-9).

        With ``warm_start`` enabled, every column starts from the last
        coefficients solved before this batch (the serial path warm
        starts each packet from its immediate predecessor, which a
        parallel solve cannot reproduce), and the final column is
        retained for the next batch.
        """
        packets = list(packets)
        if not packets:
            return []
        started = time.perf_counter()
        dtype = np.float32 if self.precision == "float32" else np.float64
        measurements = self.payload.measurement_block(packets, dtype)
        solver = self.batched_solver()

        if self.precision == "hybrid":
            result = solver.solve_structured(
                measurements,
                self.config.lam,
                max_iterations=self.config.max_iterations,
                tolerance=self.config.tolerance,
            )
            samples = result.signals + self.dc_offset
            elapsed = time.perf_counter() - started
            per_packet_seconds = elapsed / len(packets)
            return [
                DecodedPacket(
                    sequence=packet.sequence,
                    samples_adu=samples[:, column].copy(),
                    measurements=np.asarray(
                        measurements[:, column], dtype=np.float64
                    ),
                    solver=result.per_column(column),
                    decode_seconds=per_packet_seconds,
                )
                for column, packet in enumerate(packets)
            ]

        lams = solver.lambdas(measurements, self.config.lam)
        x0 = None
        if self.warm_start and self._previous_alpha is not None:
            x0 = np.repeat(
                self._previous_alpha[:, None], len(packets), axis=1
            )
        batch_result = solver.solve(
            measurements,
            lams,
            max_iterations=self.config.max_iterations,
            tolerance=self.config.tolerance,
            x0=x0,
        )
        if self.warm_start:
            self._previous_alpha = batch_result.coefficients[:, -1].copy()

        signals = self.transform.inverse_batch(batch_result.coefficients)
        samples = np.asarray(signals, dtype=np.float64) + self.dc_offset
        elapsed = time.perf_counter() - started
        per_packet_seconds = elapsed / len(packets)
        return [
            DecodedPacket(
                sequence=packet.sequence,
                samples_adu=samples[:, column].copy(),
                measurements=np.asarray(
                    measurements[:, column], dtype=np.float64
                ),
                solver=batch_result.per_column(column),
                decode_seconds=per_packet_seconds,
            )
            for column, packet in enumerate(packets)
        ]

    def decode_bytes(self, wire: bytes) -> DecodedPacket:
        """Parse a wire packet (with CRC check) and decode it."""
        return self.decode(EncodedPacket.from_bytes(wire))
