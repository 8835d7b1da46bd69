"""The coordinator-side CS decoder (paper Figure 1, bottom path).

Three stages mirroring the encoder:

1. **Huffman decoding** with the shared codebook;
2. **packet reconstruction** — re-inserting the inter-packet redundancy
   (cumulative differences against the last keyframe);
3. **FISTA reconstruction** — solving the l1 problem in the wavelet
   domain and synthesizing the time-domain ECG.

The decoder supports float64 (the paper's Matlab reference) and float32
(the iPhone build); Figure 6 overlays the two.  The dense system
operator and its Lipschitz constant depend only on the fixed sensing
matrix and wavelet basis, so they are built once per
:func:`operator_key` and shared process-wide through
:func:`resources_for` — by every decoder, every fleet slice and every
gateway flush — exactly as an embedded decoder would precompute them
offline.  :func:`solve_block` is the one kernel that turns a measurement
block into reconstructed signals against such a cached operator.
"""

from __future__ import annotations

import functools
import threading
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
    BatchedSolverResult,
    HybridSolveResult,
    StructuredOperator,
    fista,
    lambda_from_fraction,
)
from ..wavelet import WaveletTransform
from .packets import EncodedPacket, PacketKind, unpack_keyframe_values
from .quantizer import MeasurementQuantizer

#: The decode backends a decoder, a HELLO and ``--precision`` accept.
BACKENDS = ("float64", "float32", "hybrid")


class PacketPayloadDecoder:
    """Stages 1-2 of the decoder: entropy decode + redundancy re-insert.

    Everything *before* the FISTA solve — Huffman decoding, closed-loop
    difference reconstruction and dequantization — is per-stream state
    (codebook, reference vector) that never touches the dense system
    operator.  Splitting it out lets the fleet and the gateway keep one
    of these per stream and pool only their output columns into solves
    shared per sensing-operator group (see :mod:`repro.fleet`).
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
        diffs = np.asarray(symbols, dtype=np.int64) + self.codebook.offset
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
    """One reconstructed 2-second window: its samples, the solve's
    iteration count and convergence flag, and its decode time (the
    measurements are :meth:`PacketPayloadDecoder.measurement_block`'s)."""

    sequence: int
    samples_adu: np.ndarray
    iterations: int
    converged: bool
    decode_seconds: float


# ----------------------------------------------------------------------
# The shared solve path: operator identity, cache, kernel.
# ----------------------------------------------------------------------

def operator_key(config: SystemConfig, precision: str = "float64") -> tuple:
    """Identity of the dense system operator a decoder iterates against.

    Two streams with equal keys share ``A = Phi Psi^-1`` and therefore
    its Lipschitz constant and contiguous-transpose precomputations.
    Per-lead seeds (see
    :class:`~repro.core.multichannel.MultiChannelMonitor`) land each
    lead in its own group; a fleet of nodes shipping the paper's shared
    fixed matrix all land in one.
    """
    return (
        config.n,
        config.m,
        config.d,
        config.seed,
        config.wavelet,
        config.levels,
        precision,
    )


def solve_key(config: SystemConfig, precision: str = "float64") -> tuple:
    """Operator identity plus the solver stopping parameters: the key
    of a pooled solve, because a shared batched loop runs every column
    with one ``max_iterations``/``tolerance`` pair."""
    return operator_key(config, precision) + (
        config.max_iterations,
        config.tolerance,
    )


@dataclass
class SolveResources:
    """One operator's solver + synthesis pair, as cached.

    Any number of threads may solve on it at once: the
    :class:`~repro.solvers.batched.BatchedFista` lends each solve a
    workspace of its own.
    """

    precision: str
    solver: BatchedFista
    transform: WaveletTransform


#: operators kept per process: a hybrid entry at the paper point is
#: ~3 MB plus 2 MB per cached resolvent pair (one in a steady fleet,
#: at most four) plus ~1.8 MB of arenas per concurrent width-16 solve,
#: and a rebuild ~25 ms, so a small cap bounds what
#: distinct (node-supplied) configs can pin at no cost to a steady fleet
OPERATOR_CACHE_SIZE = 8


@functools.lru_cache(maxsize=OPERATOR_CACHE_SIZE)
def build_resources(
    n: int,
    m: int,
    d: int,
    seed: int,
    wavelet: str,
    levels: int | None,
    precision: str,
) -> SolveResources:
    """The one operator builder, memoized on :func:`operator_key`.

    Materializes ``A = Phi Psi`` densely (at N = 512 the fastest
    representation for the numerical sweeps; the embedded cost models
    account for the matrix-free structure instead) and binds a batched
    solver to it — for ``"hybrid"`` through a
    :class:`~repro.solvers.sparse_apply.StructuredOperator` (sparse
    ``Phi`` gather kernels + both-precision dense pair), which makes
    the structured pipeline available.  The bounded LRU is the
    process-wide operator cache (each pool worker has its own;
    ``build_resources.cache_info()`` counts its hits and builds): an
    evicted entry stays valid for whoever still holds it, and the next
    call rebuilds it bit-identically from the seed.
    """
    matrix = SparseBinaryMatrix(m, n, d=d, seed=seed)
    transform = WaveletTransform(n, wavelet, levels)
    if precision == "hybrid":
        structure = StructuredOperator(matrix, transform.synthesis_matrix())
        solver = BatchedFista(
            structure.dense64,
            lipschitz=structure.lipschitz,
            structure=structure,
        )
    else:
        dtype = np.float32 if precision == "float32" else np.float64
        dense = matrix.product(transform.synthesis_matrix()).astype(dtype)
        solver = BatchedFista(dense)
    return SolveResources(precision, solver, transform)


#: serializes :func:`resources_for` (``lru_cache`` takes no lock on a miss)
_BUILD_LOCK = threading.Lock()


def resources_for(config: SystemConfig, precision: str) -> SolveResources:
    """The cached resources of ``config``'s operator: what every
    :class:`CSDecoder`, fleet slice and gateway flush solves against,
    so an operator pays its dense build and Lipschitz estimate once
    however many streams share it.  Lookups serialize on one lock, so
    two threads asking for an uncached operator build it once (the
    second waits out the first's build, ~25 ms)."""
    with _BUILD_LOCK:
        return build_resources(*operator_key(config, precision))


def solve_block(
    resources: SolveResources,
    block: np.ndarray,
    fractions: np.ndarray | float,
    max_iterations: int,
    tolerance: float,
) -> tuple[np.ndarray, BatchedSolverResult | HybridSolveResult]:
    """Reconstruct one ``(m, B)`` measurement block: the decode kernel.

    ``block`` holds the float64 columns ``dequantize`` returns; the
    cast to the operator's precision happens here, once.  ``"hybrid"``
    solves through the structured pipeline (float32 ADMM fast
    path + sparse residual gate + float64 polish), which owns
    synthesis; the dense backends synthesize via the batched inverse
    transform.  Returns ``(n, B)`` float64 signals without dc offset
    and the solver's per-column result.  Safe to call from several
    threads on one cached operator.
    """
    solver = resources.solver
    if resources.precision == "hybrid":
        result = solver.solve_structured(
            block,
            fractions,
            max_iterations=max_iterations,
            tolerance=tolerance,
        )
        return result.signals, result
    ys = np.asarray(block, dtype=solver.operator.dtype)
    result = solver.solve(
        ys,
        solver.lambdas(ys, fractions),
        max_iterations=max_iterations,
        tolerance=tolerance,
    )
    signals = resources.transform.inverse_batch(result.coefficients)
    return np.asarray(signals, dtype=np.float64), result


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
        ``"hybrid"`` — the raw-speed backend: float32 ADMM iterations
        against the operator's cached resolvent, dense ``Psi`` GEMM
        synthesis, a sparse scatter/gather residual gate ``||y - Phi s||`` per
        column, and a float64 polish re-solve for any column whose
        relative residual leaves the fig-6 corridor (see
        :func:`~repro.solvers.batched.structured_batched_fista`).
    """

    def __init__(
        self,
        config: SystemConfig,
        codebook: Codebook | None = None,
        precision: str = "float64",
    ) -> None:
        if precision not in BACKENDS:
            raise ConfigurationError(
                f"precision must be 'float64', 'float32' or 'hybrid', "
                f"got {precision!r}"
            )
        self.config = config
        self.precision = precision
        self.payload = PacketPayloadDecoder(config, codebook=codebook)
        self.dc_offset = 1 << (config.adc_bits - 1)

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Drop stream state (the inter-packet reference vector)."""
        self.payload.reset()

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

    # stage 3's operator is shared, not owned: fetched from the
    # process-wide cache on use, so constructing a decoder builds
    # nothing and a fleet of per-stream decoders on one operator group
    # pays its precompute once
    @property
    def resources(self) -> SolveResources:
        """This decoder's (shared, cached) solver + synthesis pair:
        ``solver.operator`` is the dense ``A = Phi Psi`` in the
        decoder's precision, ``solver.lipschitz`` its gradient's
        precomputed Lipschitz constant."""
        return resources_for(self.config, self.precision)

    # ------------------------------------------------------------------
    def _decode_payload(self, packet: EncodedPacket) -> np.ndarray:
        """Stages 1-2: entropy decoding and redundancy re-insertion."""
        return self.payload.decode_payload(packet)

    def decode(self, packet: EncodedPacket) -> DecodedPacket:
        """Full decode of one packet into reconstructed adu samples."""
        resources = self.resources
        if resources.solver.structure is not None:
            # the structured backend is inherently batched; a serial
            # decode is a width-1 block through the same kernel
            return self.decode_batch([packet])[0]
        # the paper's serial reference (figs 6/7): scalar FISTA against
        # the same cached operator, private buffers (no lock needed)
        started = time.perf_counter()
        y_q = self._decode_payload(packet)
        operator = resources.solver.operator
        y = self.quantizer.dequantize(y_q).astype(operator.dtype)
        result = fista(
            operator,
            y,
            lam=lambda_from_fraction(operator, y, self.config.lam),
            max_iterations=self.config.max_iterations,
            tolerance=self.config.tolerance,
            lipschitz=resources.solver.lipschitz,
        )
        signal = resources.transform.inverse(result.coefficients)
        samples = np.asarray(signal, dtype=np.float64) + self.dc_offset
        return DecodedPacket(
            sequence=packet.sequence,
            samples_adu=samples,
            iterations=result.iterations,
            converged=result.converged,
            decode_seconds=time.perf_counter() - started,
        )

    def decode_batch(
        self, packets: Sequence[EncodedPacket]
    ) -> list[DecodedPacket]:
        """Decode many packets with one batched FISTA solve.

        Entropy decoding and redundancy re-insertion stay sequential
        (they are stateful and cheap); the measurement vectors are then
        stacked into an ``(m, B)`` matrix and reconstructed by
        :func:`solve_block` with per-column regularization weights and
        convergence masking.  Per-packet results match :meth:`decode`
        to solver floating-point noise (identical iteration counts,
        reconstructions equal to ~1e-9).
        """
        packets = list(packets)
        if not packets:
            return []
        started = time.perf_counter()
        measurements = self.payload.measurement_block(packets, np.float64)
        signals, result = solve_block(
            self.resources,
            measurements,
            self.config.lam,
            self.config.max_iterations,
            self.config.tolerance,
        )
        samples = signals + self.dc_offset
        per_packet_seconds = (time.perf_counter() - started) / len(packets)
        return [
            DecodedPacket(
                sequence=packet.sequence,
                samples_adu=samples[:, column].copy(),
                iterations=int(result.iterations[column]),
                converged=bool(result.converged[column]),
                decode_seconds=per_packet_seconds,
            )
            for column, packet in enumerate(packets)
        ]
