"""ARM Cortex-A8 (iPhone 3GS) decoder timing model.

Two build variants are priced, matching the paper's Section V:

- **scalar VFP** — the unoptimized build.  The Cortex-A8's "VFPLite"
  unit is not pipelined for single-precision arithmetic: a
  multiply-accumulate costs 18-21 cycles (the paper's own numbers; we
  use 20) and other float ops ~10 cycles;
- **NEON-optimized** — the build with the paper's Section IV-B
  transformations (outer-loop vectorization of the filter banks,
  if-converted soft threshold, padded/lane-handled leftovers).  NEON
  retires one 4-lane ``vmlaq.f32`` every 2 cycles — "two
  multiply-accumulate in 1 cycle".

Irregular sparse-matrix gathers cannot be vectorized (no NEON gather on
ARMv7): they are priced with per-lane loads on both pipelines, which is
exactly why the measured end-to-end speedup is ~2.4x and not ~10x.

Each pipeline carries one documented stall/memory overhead factor,
calibrated so the real-time iteration budgets match the paper's
published 800 (scalar) and 2000 (NEON) iterations within the 1-second
decode window.  The 2.43x speedup is then a *derived* quantity.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..config import SystemConfig
from ..errors import PlatformModelError
from .kernels import (
    KernelCounts,
    dwt_counts,
    huffman_decode_counts,
    idwt_counts,
    momentum_counts,
    packet_reconstruction_counts,
    prox_counts,
    sparse_matvec_float_counts,
)
from .neon import VECTOR_WIDTH, NeonCosts


class DecodePipeline(enum.Enum):
    """The two decoder builds compared in the paper."""

    SCALAR_VFP = "scalar-vfp"
    NEON_OPTIMIZED = "neon-optimized"


class AccessPattern(enum.Enum):
    """How a kernel touches memory (decides NEON efficiency)."""

    STREAMING = "streaming"  # unit-stride: fully vectorizable
    GATHER = "gather"  # data-dependent indices: lane loads only
    SERIAL = "serial"  # bit-serial integer work: no NEON benefit


@dataclass(frozen=True)
class CortexA8Model:
    """Cycle model of the iPhone 3GS application processor."""

    clock_hz: float = 600e6
    costs: NeonCosts = NeonCosts()
    #: integer-op cycles (same ALUs serve both builds)
    cycles_int_op: float = 1.0
    cycles_branch: float = 6.0
    cycles_table_lookup: float = 3.0
    cycles_bit_op: float = 3.0
    cycles_load: float = 2.0
    cycles_store: float = 2.0
    #: calibrated pipeline-stall factors (see module docstring)
    scalar_overhead: float = 1.1945
    neon_overhead: float = 1.5036

    def __post_init__(self) -> None:
        if self.clock_hz <= 0:
            raise PlatformModelError(f"clock_hz must be positive, got {self.clock_hz}")

    # ------------------------------------------------------------------
    def kernel_cycles(
        self,
        counts: KernelCounts,
        pipeline: DecodePipeline,
        pattern: AccessPattern,
        branchy: bool = False,
    ) -> float:
        """Price one kernel on one pipeline.

        ``branchy`` marks kernels whose scalar form contains a
        data-dependent branch per element (the Figure 4 loop); the NEON
        build removes those branches by if-conversion.
        """
        integer = (
            counts.int_ops * self.cycles_int_op
            + counts.table_lookups * self.cycles_table_lookup
            + counts.bit_ops * self.cycles_bit_op
        )
        if pipeline is DecodePipeline.SCALAR_VFP or pattern is AccessPattern.SERIAL:
            cycles = (
                integer
                + counts.float_macs * self.costs.scalar_mac
                + counts.float_ops * self.costs.scalar_op
                + counts.loads * self.cycles_load
                + counts.stores * self.cycles_store
                + counts.branches * (self.cycles_branch if branchy else 2.0)
            )
            overhead = (
                self.scalar_overhead
                if pipeline is DecodePipeline.SCALAR_VFP
                else self.neon_overhead
            )
            return cycles * overhead

        if pattern is AccessPattern.STREAMING:
            # fully vectorized: 4 lanes per instruction
            vector_elements = counts.float_macs + counts.float_ops
            vector_cycles = vector_elements / VECTOR_WIDTH * self.costs.vector_op
            memory_cycles = (
                (counts.loads + counts.stores) / VECTOR_WIDTH * self.costs.vector_load
            )
            cycles = integer + vector_cycles + memory_cycles
            # if-conversion removes per-element branches entirely
            cycles += 0.0 if branchy else counts.branches * 1.0
            return cycles * self.neon_overhead

        if pattern is AccessPattern.GATHER:
            # arithmetic vectorizes, but every operand needs a lane load
            vector_elements = counts.float_macs + counts.float_ops
            vector_cycles = vector_elements / VECTOR_WIDTH * self.costs.vector_op
            memory_cycles = counts.loads * self.costs.lane_load + (
                counts.stores * self.cycles_store
            )
            cycles = (
                integer + vector_cycles + memory_cycles + counts.branches * 1.0
            )
            return cycles * self.neon_overhead

        raise PlatformModelError(f"unknown pattern {pattern}")  # pragma: no cover

    # ------------------------------------------------------------------
    def iteration_cycles(
        self, config: SystemConfig, pipeline: DecodePipeline
    ) -> float:
        """Cycles of one FISTA iteration (the decode hot loop)."""
        total = 0.0
        total += self.kernel_cycles(idwt_counts(config), pipeline, AccessPattern.STREAMING)
        total += self.kernel_cycles(dwt_counts(config), pipeline, AccessPattern.STREAMING)
        total += 2 * self.kernel_cycles(
            sparse_matvec_float_counts(config), pipeline, AccessPattern.GATHER
        )
        total += self.kernel_cycles(
            prox_counts(config), pipeline, AccessPattern.STREAMING, branchy=True
        )
        total += self.kernel_cycles(
            momentum_counts(config), pipeline, AccessPattern.STREAMING
        )
        return total

    def packet_overhead_cycles(
        self, config: SystemConfig, mean_bits_per_symbol: float = 6.0
    ) -> float:
        """Per-packet scalar work: Huffman decode + packet reconstruction."""
        huffman = self.kernel_cycles(
            huffman_decode_counts(config, mean_bits_per_symbol),
            DecodePipeline.SCALAR_VFP,
            AccessPattern.SERIAL,
        )
        reconstruction = self.kernel_cycles(
            packet_reconstruction_counts(config),
            DecodePipeline.SCALAR_VFP,
            AccessPattern.SERIAL,
        )
        return huffman + reconstruction

    def decode_time_s(
        self,
        config: SystemConfig,
        iterations: float,
        pipeline: DecodePipeline = DecodePipeline.NEON_OPTIMIZED,
        mean_bits_per_symbol: float = 6.0,
    ) -> float:
        """Wall-clock decode time of one packet at a given iteration count."""
        if iterations < 0:
            raise PlatformModelError(f"iterations must be >= 0, got {iterations}")
        cycles = iterations * self.iteration_cycles(config, pipeline)
        cycles += self.packet_overhead_cycles(config, mean_bits_per_symbol)
        return cycles / self.clock_hz

    def max_realtime_iterations(
        self,
        config: SystemConfig,
        pipeline: DecodePipeline,
        decode_budget_s: float = 1.0,
    ) -> int:
        """Iteration cap within the real-time budget (1 s per 2 s packet).

        The paper reports 800 for the scalar build and 2000 for the
        NEON build.
        """
        per_iteration = self.iteration_cycles(config, pipeline)
        budget_cycles = decode_budget_s * self.clock_hz - self.packet_overhead_cycles(
            config
        )
        return max(0, int(budget_cycles / per_iteration))

    def speedup(self, config: SystemConfig, iterations: float = 1000.0) -> float:
        """End-to-end NEON speedup over the scalar build (the 2.43x claim)."""
        scalar = self.decode_time_s(config, iterations, DecodePipeline.SCALAR_VFP)
        neon = self.decode_time_s(config, iterations, DecodePipeline.NEON_OPTIMIZED)
        return scalar / neon
