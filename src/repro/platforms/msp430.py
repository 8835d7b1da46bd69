"""MSP430F1611 cycle and energy model (the Shimmer's MCU).

Cycle table grounded in the MSP430x1xx family datasheet orders of
magnitude: register-to-memory instructions cost 3-4 cycles, the hardware
multiplier completes a 16x16 MAC in ~8 cycles including operand moves,
and a 32-bit add on the 16-bit ALU is an ``add``/``addc`` pair plus
loads/stores.  Compiled C (the paper used GCC 3.2.3 for the MSP430) is
substantially slower than hand assembly; a single documented
``compiler_overhead`` factor is calibrated so that sparse binary sensing
of one 2-second packet costs the paper's measured **82 ms** — all other
encoder numbers (CPU load, rejected-approach times) then follow.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from ..config import SystemConfig
from ..errors import PlatformModelError
from .kernels import (
    KernelCounts,
    KernelReport,
    dense_matvec_counts,
    encoder_packet_counts,
    gaussian_generation_counts,
    sparse_sensing_counts,
)


class SensingApproach(Enum):
    """The paper's three candidate Phi implementations (Section IV-A2)."""

    ONBOARD_GAUSSIAN = "onboard-gaussian"  # approach 1: generate + multiply
    STORED_GAUSSIAN = "stored-gaussian"  # approach 2: stored dense matrix
    SPARSE_BINARY = "sparse-binary"  # approach 3: adopted


@dataclass(frozen=True)
class Msp430Model:
    """Cycle/energy model of the MSP430F1611 at a given clock.

    The per-op cycle table is hand-assembly cost; ``compiler_overhead``
    models GCC 3.2.3 output (register pressure, 32-bit emulation calls,
    missed addressing modes) and is calibrated once against the paper's
    82 ms sensing anchor.
    """

    clock_hz: float = 8e6
    #: active-mode power at 3 V (datasheet-order ~500 uA/MHz at 3 V)
    active_power_mw: float = 6.0
    sleep_power_mw: float = 0.02
    # --- hand-assembly cycle table ---
    cycles_int_op: float = 2.0
    cycles_int32_add: float = 8.0  # add/addc pair + memory operands
    cycles_int_mul: float = 8.0  # hardware multiplier incl. operand moves
    cycles_prng_draw: float = 12.0  # xorshift16 step + rejection average
    cycles_load: float = 3.0
    cycles_store: float = 3.0
    cycles_table_lookup: float = 5.0  # flash read + index arithmetic
    cycles_branch: float = 2.0
    cycles_bit_op: float = 4.0
    #: calibrated once: 82 ms / hand-assembly prediction for the
    #: N=512, d=12 sensing kernel (see ``calibration_report``)
    compiler_overhead: float = 3.5103

    def __post_init__(self) -> None:
        if self.clock_hz <= 0:
            raise PlatformModelError(f"clock_hz must be positive, got {self.clock_hz}")
        if self.compiler_overhead < 1.0:
            raise PlatformModelError(
                f"compiler_overhead must be >= 1, got {self.compiler_overhead}"
            )

    # ------------------------------------------------------------------
    def hand_assembly_cycles(self, counts: KernelCounts) -> float:
        """Price a kernel with the raw (uncalibrated) cycle table."""
        return (
            counts.int_ops * self.cycles_int_op
            + counts.int32_adds * self.cycles_int32_add
            + counts.int_muls * self.cycles_int_mul
            + counts.prng_draws * self.cycles_prng_draw
            + counts.loads * self.cycles_load
            + counts.stores * self.cycles_store
            + counts.table_lookups * self.cycles_table_lookup
            + counts.branches * self.cycles_branch
            + counts.bit_ops * self.cycles_bit_op
            # float ops never appear on this FPU-less core; sanity guard:
            + (counts.float_macs + counts.float_ops) * 1e9
        )

    def cycles(self, counts: KernelCounts) -> float:
        """Compiled-code cycles (hand assembly x compiler overhead)."""
        return self.hand_assembly_cycles(counts) * self.compiler_overhead

    def report(self, counts: KernelCounts) -> KernelReport:
        """Cycles and wall-clock seconds for a kernel."""
        cycles = self.cycles(counts)
        return KernelReport(
            name=counts.name, cycles=cycles, seconds=cycles / self.clock_hz
        )

    # ------------------------------------------------------------------
    def sensing_time_s(self, config: SystemConfig) -> float:
        """Time to CS-sample one packet (the 82 ms anchor at defaults)."""
        return self.report(sparse_sensing_counts(config)).seconds

    def encode_packet_time_s(
        self, config: SystemConfig, mean_bits_per_symbol: float = 6.0
    ) -> float:
        """Time for the full three-stage encoder on one packet."""
        counts = encoder_packet_counts(config, mean_bits_per_symbol)
        return self.report(counts).seconds

    def cpu_usage_fraction(
        self, config: SystemConfig, mean_bits_per_symbol: float = 6.0
    ) -> float:
        """Encoder duty cycle: busy time per packet period (< 5 % claim)."""
        return self.encode_packet_time_s(config, mean_bits_per_symbol) / (
            config.packet_seconds
        )

    # ------------------------------------------------------------------
    def approach_time_s(
        self, config: SystemConfig, approach: SensingApproach
    ) -> float:
        """Per-packet sensing time of each candidate Phi implementation.

        Approach 1 regenerates the full Gaussian matrix every packet (no
        room to store it) then multiplies; approach 2 only multiplies
        (matrix assumed stored — see the memory model for why it cannot
        be); approach 3 is the adopted sparse binary kernel.
        """
        if approach is SensingApproach.ONBOARD_GAUSSIAN:
            counts = gaussian_generation_counts(config) + dense_matvec_counts(config)
        elif approach is SensingApproach.STORED_GAUSSIAN:
            counts = dense_matvec_counts(config)
        elif approach is SensingApproach.SPARSE_BINARY:
            counts = sparse_sensing_counts(config)
        else:  # pragma: no cover - exhaustive enum
            raise PlatformModelError(f"unknown approach {approach}")
        return self.report(counts).seconds

    def is_real_time(self, config: SystemConfig, approach: SensingApproach) -> bool:
        """Whether sensing finishes within one packet period."""
        return self.approach_time_s(config, approach) < config.packet_seconds

    def calibration_report(self, config: SystemConfig | None = None) -> dict[str, float]:
        """Show the anchor calibration: hand-assembly vs calibrated 82 ms."""
        config = config if config is not None else SystemConfig()
        counts = sparse_sensing_counts(config)
        raw = self.hand_assembly_cycles(counts)
        return {
            "hand_assembly_cycles": raw,
            "compiler_overhead": self.compiler_overhead,
            "calibrated_cycles": raw * self.compiler_overhead,
            "calibrated_ms": raw * self.compiler_overhead / self.clock_hz * 1e3,
            "paper_anchor_ms": 82.0,
        }
