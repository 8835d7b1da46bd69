"""Tests for the Cortex-A8 model and the NEON strategy models."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import SystemConfig
from repro.errors import PlatformModelError
from repro.platforms import (
    CortexA8Model,
    DecodePipeline,
    LeftoverStrategy,
    if_conversion_cycles,
    leftover_strategy_cycles,
    loop_nest_instruction_counts,
    simulate_leftover_strategies,
)
from repro.platforms.cortexa8 import AccessPattern
from repro.platforms.kernels import idwt_counts, prox_counts


class TestRealTimeAnchors:
    """Section V's published iteration budgets and speedup."""

    def test_scalar_budget_800_iterations(self, paper_config):
        cpu = CortexA8Model()
        assert cpu.max_realtime_iterations(
            paper_config, DecodePipeline.SCALAR_VFP
        ) == pytest.approx(800, abs=8)

    def test_neon_budget_2000_iterations(self, paper_config):
        cpu = CortexA8Model()
        assert cpu.max_realtime_iterations(
            paper_config, DecodePipeline.NEON_OPTIMIZED
        ) == pytest.approx(2000, abs=20)

    def test_speedup_near_2_43(self, paper_config):
        """Derived speedup must land close to the measured 2.43x."""
        cpu = CortexA8Model()
        assert cpu.speedup(paper_config, 1000.0) == pytest.approx(2.43, abs=0.15)

    def test_decode_time_at_cr50_realistic(self, paper_config):
        """~700 iterations at CR 50 -> ~0.35 s (Fig 7's mid-range)."""
        cpu = CortexA8Model()
        time = cpu.decode_time_s(paper_config, 700)
        assert 0.30 < time < 0.42

    def test_neon_iteration_near_half_ms(self, paper_config):
        cpu = CortexA8Model()
        per_iteration = cpu.iteration_cycles(
            paper_config, DecodePipeline.NEON_OPTIMIZED
        ) / cpu.clock_hz
        assert per_iteration == pytest.approx(0.0005, rel=0.05)


class TestModelMechanics:
    def test_scalar_slower_than_neon_everywhere(self, paper_config):
        cpu = CortexA8Model()
        for counts, pattern in (
            (idwt_counts(paper_config), AccessPattern.STREAMING),
            (prox_counts(paper_config), AccessPattern.STREAMING),
        ):
            scalar = cpu.kernel_cycles(counts, DecodePipeline.SCALAR_VFP, pattern)
            neon = cpu.kernel_cycles(counts, DecodePipeline.NEON_OPTIMIZED, pattern)
            assert scalar > neon

    def test_serial_kernels_identical_cost_structure(self, paper_config):
        """Huffman decoding gains nothing from NEON."""
        from repro.platforms.kernels import huffman_decode_counts

        cpu = CortexA8Model()
        counts = huffman_decode_counts(paper_config)
        scalar = cpu.kernel_cycles(
            counts, DecodePipeline.SCALAR_VFP, AccessPattern.SERIAL
        )
        neon = cpu.kernel_cycles(
            counts, DecodePipeline.NEON_OPTIMIZED, AccessPattern.SERIAL
        )
        # only the calibrated overhead factors differ
        assert neon / scalar == pytest.approx(
            cpu.neon_overhead / cpu.scalar_overhead, rel=1e-9
        )

    def test_gather_gains_less_than_streaming(self, paper_config):
        from repro.platforms.kernels import sparse_matvec_float_counts

        cpu = CortexA8Model()
        gather = sparse_matvec_float_counts(paper_config)
        stream = idwt_counts(paper_config)
        gather_speedup = cpu.kernel_cycles(
            gather, DecodePipeline.SCALAR_VFP, AccessPattern.GATHER
        ) / cpu.kernel_cycles(
            gather, DecodePipeline.NEON_OPTIMIZED, AccessPattern.GATHER
        )
        stream_speedup = cpu.kernel_cycles(
            stream, DecodePipeline.SCALAR_VFP, AccessPattern.STREAMING
        ) / cpu.kernel_cycles(
            stream, DecodePipeline.NEON_OPTIMIZED, AccessPattern.STREAMING
        )
        assert stream_speedup > 3.0 * gather_speedup

    def test_invalid_clock(self):
        with pytest.raises(PlatformModelError):
            CortexA8Model(clock_hz=0.0)

    def test_negative_iterations_rejected(self, paper_config):
        with pytest.raises(PlatformModelError):
            CortexA8Model().decode_time_s(paper_config, -1)


class TestLeftoverStrategies:
    """Figure 3: padding <= lane-by-lane <= scalar epilogue."""

    @pytest.mark.parametrize("total", [5, 17, 511, 513, 1023])
    def test_ranking_matches_paper(self, total):
        padding = leftover_strategy_cycles(total, LeftoverStrategy.ARRAY_PADDING)
        lane = leftover_strategy_cycles(total, LeftoverStrategy.LANE_BY_LANE)
        scalar = leftover_strategy_cycles(total, LeftoverStrategy.SCALAR_EPILOGUE)
        assert padding <= lane <= scalar

    def test_no_leftover_all_equal(self):
        cycles = {
            strategy: leftover_strategy_cycles(512, strategy)
            for strategy in LeftoverStrategy
        }
        assert len(set(cycles.values())) == 1

    def test_negative_total_rejected(self):
        with pytest.raises(PlatformModelError):
            leftover_strategy_cycles(-1, LeftoverStrategy.ARRAY_PADDING)

    def test_functional_equivalence(self, rng):
        a = rng.standard_normal(515).astype(np.float32)
        b = rng.standard_normal(515).astype(np.float32)
        c = rng.standard_normal(515).astype(np.float32)
        outputs = simulate_leftover_strategies(a, b, c)
        reference = a + b * c
        for strategy, values in outputs.items():
            assert np.allclose(values, reference, atol=1e-6), strategy

    def test_simulation_rejects_mismatched_inputs(self):
        with pytest.raises(PlatformModelError):
            simulate_leftover_strategies(
                np.zeros(4), np.zeros(5), np.zeros(4)
            )


class TestIfConversion:
    """Figure 4: masked arithmetic beats the branchy loop."""

    def test_vectorized_faster(self):
        assert if_conversion_cycles(512, True) < if_conversion_cycles(512, False)

    def test_speedup_meaningful(self):
        speedup = if_conversion_cycles(512, False) / if_conversion_cycles(512, True)
        assert speedup > 4.0

    def test_zero_elements(self):
        assert if_conversion_cycles(0, True) == 0.0
        assert if_conversion_cycles(0, False) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(PlatformModelError):
            if_conversion_cycles(-1, True)


class TestLoopNest:
    """Figure 5: outer-loop vectorization of the two-filter bank."""

    def test_paper_example_counts(self):
        # I=4, m=8, L=4: outer -> 2*(4/4)*8 = 16 vector MACs
        counts = loop_nest_instruction_counts(4, 8)
        assert counts["outer"].vector_macs == 16
        # inner -> same MAC count but 2*I*(L-1) = 24 extra adds
        assert counts["inner"].vector_macs == 16
        assert counts["inner"].extra_adds == 24

    def test_outer_always_wins(self):
        for outer, taps in ((4, 8), (16, 8), (256, 16)):
            counts = loop_nest_instruction_counts(outer, taps)
            assert counts["outer"].cycles() <= counts["inner"].cycles()

    def test_fused_variant_for_small_outer(self):
        # the paper's l1 loops: I < L -> fused X/Y vector, I*m MACs
        counts = loop_nest_instruction_counts(2, 8, fused=True)
        assert counts["fused"].vector_macs == 16
        assert counts["fused"].vector_macs < 2 * 8 * 2  # beats duplicating

    def test_invalid_sizes(self):
        with pytest.raises(PlatformModelError):
            loop_nest_instruction_counts(0, 8)
