"""Cross-stack equivalence harness for the raw-speed solver pass.

The sparse ``Phi`` gather kernel and the float32/float64
hybrid pipeline are *performance* levers — this module is the property
harness that pins them to the dense-GEMM float64 reference at every
layer they thread through:

- **kernel level** (seed sweep): ``SparsePhiApply.apply`` against
  the materialized pattern GEMM, across
  >= 8 sensing seeds x 4 shapes x widths including ``B = 1`` and
  ragged tails.  For integer-valued float64 inputs the agreement is
  **bit-identical** — both sides sum the exact 0/1 pattern and apply
  the common ``1/sqrt(d)`` scale as one final multiply (the
  pattern-sum-then-scale contract of
  :mod:`repro.solvers.sparse_apply`); for general float inputs the
  float64 path is ulp-tight and the float32 path atol-bounded.
- **solver level**: the hybrid (float32 + polish) result of
  ``structured_batched_fista`` stays inside the fig-6 PRD corridor of
  a direct float64 ``batched_fista`` on the fused dense operator; a
  synthetically
  hard column (float32-overflowing measurements) must trip the
  residual gate, fall back to float64, and land inside the corridor.
- **fleet level**: ``solve_measurement_block`` with
  ``precision="hybrid"`` reconstructs real encoded windows within the
  corridor of the float64 block solve and reports the new telemetry
  counters.
- **CLI level**: ``repro-ecg fleet --precision hybrid`` runs the whole
  encode->schedule->decode path green.

The live-gateway layer of the same contract lives in
``tests/ingest/test_gateway_hybrid.py`` (bit-identity of the wire path
against the offline replay, fec on and off).
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.config import SystemConfig
from repro.core import EcgMonitorSystem
from repro.errors import SolverError
from repro.fleet import FleetDecoder, StreamTask
from repro.fleet.engine import solve_measurement_block
from repro.sensing import SparseBinaryMatrix
from repro.solvers import (
    DEFAULT_POLISH_CORRIDOR,
    SparsePhiApply,
    StructuredOperator,
    batched_fista,
    batched_lambda_from_fraction,
    structured_batched_fista,
)
from repro.wavelet import WaveletTransform

#: the property sweep: every (seed, shape) pair builds a fresh sensing
#: matrix; widths cover the single-column path and ragged tails
SEEDS = tuple(range(8))
#: (m, n, d) — the last shape is square with d=1, so some CSR rows
#: come out empty (the reduceat clamp path; pinned deterministically
#: in TestSparseApplyChecks.test_empty_rows_covered_by_sweep)
SHAPES = ((64, 128, 8), (96, 192, 12), (32, 80, 6), (64, 64, 1))
WIDTHS = (1, 3, 8)


def _pattern(matrix: SparseBinaryMatrix) -> np.ndarray:
    """The dense unscaled 0/1 pattern of ``Phi``."""
    return (matrix.sparse().toarray() != 0).astype(np.float64)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"m{s[0]}n{s[1]}")
class TestSparseApplyKernels:
    """Seed-swept agreement of the gather kernels with the dense GEMM."""

    def test_apply_bit_identical_on_integer_float64(self, seed, shape):
        """Integer-valued float64 inputs: pattern sums are exact in any
        association order, so gather == GEMM bit for bit."""
        m, n, d = shape
        matrix = SparseBinaryMatrix(m, n, d=d, seed=seed)
        phi = SparsePhiApply(matrix)
        pattern = _pattern(matrix)
        rng = np.random.default_rng(1000 + seed)
        for width in WIDTHS:
            signals = rng.integers(
                -2048, 2048, size=(n, width)
            ).astype(np.float64)
            reference = (pattern @ signals) * matrix.scale
            assert np.array_equal(phi.apply(signals), reference)

    def test_residual_bit_identical_on_integer_float64(self, seed, shape):
        """The polish gate's input ``Phi @ S - Y``: on integer-valued
        float64 inputs, bit for bit the dense pattern GEMM, scaled,
        minus ``Y``."""
        m, n, d = shape
        matrix = SparseBinaryMatrix(m, n, d=d, seed=seed)
        phi = SparsePhiApply(matrix)
        pattern = _pattern(matrix)
        rng = np.random.default_rng(2000 + seed)
        for width in WIDTHS:
            signals = rng.integers(-2048, 2048, size=(n, width))
            ys = rng.integers(-2048, 2048, size=(m, width)).astype(np.float64)
            signals = signals.astype(np.float64)
            got = phi.residual(signals, ys)
            reference = (pattern @ signals) * matrix.scale - ys
            assert np.array_equal(got, reference)

    def test_apply_float64_real_inputs_ulp_tight(self, seed, shape):
        """General float inputs: every output is a d-term sum, so the
        two association orders agree to a few ulps."""
        m, n, d = shape
        matrix = SparseBinaryMatrix(m, n, d=d, seed=seed)
        phi = SparsePhiApply(matrix)
        csr = matrix.sparse()
        rng = np.random.default_rng(3000 + seed)
        signals = rng.standard_normal((n, 5))
        np.testing.assert_allclose(
            phi.apply(signals), csr @ signals, rtol=0, atol=1e-12
        )

    def test_apply_float32_atol_bounded(self, seed, shape):
        """float32 gather vs the float64 GEMM reference: single
        precision noise only."""
        m, n, d = shape
        matrix = SparseBinaryMatrix(m, n, d=d, seed=seed)
        phi = SparsePhiApply(matrix)
        pattern = _pattern(matrix)
        rng = np.random.default_rng(4000 + seed)
        signals32 = rng.standard_normal((n, 4)).astype(np.float32)
        out = phi.apply(signals32)
        assert out.dtype == np.float32
        reference = (pattern @ signals32.astype(np.float64)) * matrix.scale
        np.testing.assert_allclose(out, reference, rtol=0, atol=1e-4)


class TestSparseApplyChecks:
    """The residual convenience, empty rows and shape checks."""

    def test_residual_is_apply_minus_ys(self):
        matrix = SparseBinaryMatrix(64, 128, d=8, seed=3)
        phi = SparsePhiApply(matrix)
        rng = np.random.default_rng(11)
        signals = rng.standard_normal((128, 4))
        ys = rng.standard_normal((64, 4))
        np.testing.assert_array_equal(
            phi.residual(signals, ys), phi.apply(signals) - ys
        )

    def test_each_call_returns_arrays_of_its_own(self):
        """``apply`` and ``residual`` hand back fresh arrays: a later
        call writes none of an earlier call's results."""
        matrix = SparseBinaryMatrix(64, 128, d=8, seed=3)
        phi = SparsePhiApply(matrix)
        rng = np.random.default_rng(13)
        signals = rng.standard_normal((128, 4))
        ys = rng.standard_normal((64, 4))
        applied = phi.apply(signals)
        residual = phi.residual(signals, ys)
        kept = (applied.copy(), residual.copy())
        phi.apply(-signals)
        phi.residual(-signals, -ys)
        assert applied is not residual
        np.testing.assert_array_equal(applied, kept[0])
        np.testing.assert_array_equal(residual, kept[1])

    def test_empty_rows_covered_by_sweep(self):
        """The d=1 square shape of the seed sweep really exercises the
        empty-row clamp: at least one swept matrix has empty rows."""
        m, n, d = SHAPES[-1]
        sizes = [
            SparsePhiApply(
                SparseBinaryMatrix(m, n, d=d, seed=seed)
            ).empty_rows.size
            for seed in SEEDS
        ]
        assert max(sizes) > 0

    def test_shape_mismatch_raises(self):
        matrix = SparseBinaryMatrix(64, 128, d=8, seed=3)
        phi = SparsePhiApply(matrix)
        with pytest.raises(SolverError):
            phi.apply(np.zeros((64, 2)))


# ----------------------------------------------------------------------
# solver level: structured pipeline vs the dense float64 reference
# ----------------------------------------------------------------------

MAX_ITERATIONS = 400
TOLERANCE = 1e-4
FRACTION = 0.05


@pytest.fixture(scope="module")
def structured_problem():
    """A real CS problem factored for the structured solver: sparse
    ``Phi``, db4 synthesis, a 6-column measurement block."""
    rng = np.random.default_rng(42)
    n, m = 256, 128
    transform = WaveletTransform(n, "db4", 4)
    matrix = SparseBinaryMatrix(m, n, d=8, seed=7)
    structure = StructuredOperator(matrix, transform.synthesis_matrix())
    columns = []
    for _ in range(6):
        alpha = np.zeros(n)
        support = rng.choice(n, 20, replace=False)
        alpha[support] = rng.standard_normal(20) * 5.0
        columns.append(matrix.measure(transform.inverse(alpha)))
    ys = np.stack(columns, axis=1)
    ys += 0.01 * rng.standard_normal(ys.shape)
    return {
        "structure": structure,
        "transform": transform,
        "ys": ys,
    }


def relative_residuals(structure, signals, ys):
    """``||Phi s_b - y_b|| / ||y_b||`` per column, the gate's statistic."""
    residuals = structure.phi.residual(signals, ys)
    return np.linalg.norm(residuals, axis=0) / np.linalg.norm(ys, axis=0)


def float64_reference(structure, ys):
    """The dense float64 FISTA solve the hybrid path is held against:
    its synthesized signals and relative residuals."""
    lams = batched_lambda_from_fraction(structure.dense64, ys, FRACTION)
    reference = batched_fista(
        structure.dense64,
        ys,
        lams,
        max_iterations=MAX_ITERATIONS,
        tolerance=TOLERANCE,
        lipschitz=structure.lipschitz,
        operator_t=structure.dense64_t,
    )
    signals = structure.psi64 @ reference.coefficients
    return signals, relative_residuals(structure, signals, ys)


class TestStructuredSolver:
    def test_dense_synthesis_matches_the_transform(self, structured_problem):
        """The float64 reference and the polish leg synthesize with the
        dense ``Psi`` GEMM: it is the wavelet transform's inverse."""
        structure = structured_problem["structure"]
        alpha = np.random.default_rng(3).standard_normal(
            (structure.psi64.shape[1], 4)
        )
        np.testing.assert_allclose(
            structure.psi64 @ alpha,
            structured_problem["transform"].inverse_batch(alpha),
            rtol=0,
            atol=1e-10,
        )

    def test_hybrid_stays_inside_float64_corridor(self, structured_problem):
        """The float32 fast path lands within a whisker of the float64
        solve: same residual quality, near-identical signals, and no
        polish fired on a well-behaved block."""
        structure = structured_problem["structure"]
        ys = structured_problem["ys"]
        hybrid = structured_batched_fista(
            structure,
            ys,
            FRACTION,
            max_iterations=MAX_ITERATIONS,
            tolerance=TOLERANCE,
        )
        pure_signals, pure_rel_residuals = float64_reference(structure, ys)
        assert hybrid.signals.dtype == np.float64
        assert not hybrid.polished.any()
        rel = relative_residuals(structure, hybrid.signals, ys)
        assert np.all(rel <= DEFAULT_POLISH_CORRIDOR)
        # residual quality within 5% of the float64 reference
        floor = np.maximum(pure_rel_residuals, 1e-12)
        assert np.all(rel <= 1.05 * floor + 1e-6)
        scale = np.linalg.norm(pure_signals)
        assert (
            np.linalg.norm(hybrid.signals - pure_signals) / scale < 1e-2
        )

    def test_single_column_block(self, structured_problem):
        """B=1 — the serial decode() route through the hybrid path."""
        structure = structured_problem["structure"]
        ys = structured_problem["ys"][:, :1]
        result = structured_batched_fista(
            structure,
            ys,
            FRACTION,
            max_iterations=MAX_ITERATIONS,
            tolerance=TOLERANCE,
        )
        assert result.signals.shape == (structure.n_samples, 1)
        assert result.iterations.shape == (1,)
        assert result.iterations[0] > 0

    def test_hard_column_triggers_polish_and_lands_in_corridor(
        self, structured_problem
    ):
        """A column whose measurements overflow float32 (|y| ~ 1e39)
        goes non-finite on the fast path; the residual gate must catch
        exactly that column, re-solve it in float64, and bring it back
        inside the corridor without touching its neighbours."""
        structure = structured_problem["structure"]
        ys = structured_problem["ys"].copy()
        hard = 2
        ys[:, hard] *= 1e39  # finite in float64, inf as float32
        result = structured_batched_fista(
            structure,
            ys,
            FRACTION,
            max_iterations=MAX_ITERATIONS,
            tolerance=TOLERANCE,
        )
        assert result.polished[hard]
        others = np.delete(np.arange(ys.shape[1]), hard)
        assert not result.polished[others].any()
        rel = relative_residuals(structure, result.signals, ys)
        assert np.all(np.isfinite(rel))
        assert rel[hard] <= DEFAULT_POLISH_CORRIDOR
        # the polished column is the float64 solve of the scaled column
        pure_signals, _ = float64_reference(structure, ys[:, hard : hard + 1])
        np.testing.assert_allclose(
            result.signals[:, hard],
            pure_signals[:, 0],
            rtol=1e-10,
            atol=1e-6 * float(np.abs(pure_signals).max()),
        )

    def test_repeated_structured_solves_give_the_same_bits(
        self, structured_problem
    ):
        """Two solves through one bound solver give the same bits, each
        in arrays of its own."""
        from repro.solvers import BatchedFista

        structure = structured_problem["structure"]
        ys = structured_problem["ys"]
        solver = BatchedFista(
            structure.dense64,
            lipschitz=structure.lipschitz,
            structure=structure,
        )
        first, second = (
            solver.solve_structured(
                ys, FRACTION, max_iterations=MAX_ITERATIONS,
                tolerance=TOLERANCE,
            )
            for _ in range(2)
        )
        assert first.signals is not second.signals
        np.testing.assert_array_equal(first.signals, second.signals)
        np.testing.assert_array_equal(first.iterations, second.iterations)
        np.testing.assert_array_equal(first.polished, second.polished)


# ----------------------------------------------------------------------
# fleet + CLI level: the levers through the production decode paths
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def encoded_block(database):
    """Real encoded windows of record 100 at the fast test point,
    dequantized into one measurement block (the fleet/gateway input)."""
    config = SystemConfig(
        n=256, m=128, d=8, levels=4, max_iterations=400, tolerance=1e-4
    )
    record = database.load("100")
    system = EcgMonitorSystem(config)
    system.calibrate(record)
    packets = []
    samples = system._prepare_samples(record, 0)
    system.encoder.reset()
    for index in range(4):
        window = samples[index * config.n : (index + 1) * config.n]
        packets.append(system.encoder.encode(window))
    block = system.decoder.payload.measurement_block(packets, np.float64)
    return {"config": config, "record": record, "block": block}


class TestFleetEquivalence:
    def _task(self, encoded_block, precision):
        config = encoded_block["config"]
        block = encoded_block["block"]
        return {
            "config": dataclasses.asdict(config),
            "precision": precision,
            "block": block,
            "fractions": np.full(
                block.shape[1], config.lam, dtype=np.float64
            ),
            "batch_size": block.shape[1],
            "max_iterations": config.max_iterations,
            "tolerance": config.tolerance,
        }

    def test_solve_measurement_block_hybrid_matches_float64(
        self, encoded_block
    ):
        hybrid = solve_measurement_block(
            self._task(encoded_block, "hybrid")
        )
        pure = solve_measurement_block(
            self._task(encoded_block, "float64")
        )
        scale = np.linalg.norm(pure["signals"])
        assert (
            np.linalg.norm(hybrid["signals"] - pure["signals"]) / scale
            < 1e-2
        )

    def test_hybrid_block_reports_telemetry_counters(self, encoded_block):
        out = solve_measurement_block(self._task(encoded_block, "hybrid"))
        by_name = {
            series["name"]: series["value"]
            for series in out["telemetry"]["counters"]
        }
        windows = encoded_block["block"].shape[1]
        assert by_name["fleet_hybrid_windows"] == windows
        assert "fleet_polish_windows" in by_name
        (budget,) = [
            series
            for series in out["telemetry"]["histograms"]
            if series["name"] == "fleet_solve_iterations"
        ]
        assert budget["total"] == windows
        assert budget["sum"] == out["iterations"].sum()

    def test_fleet_hybrid_prd_matches_float64(self, database):
        config = SystemConfig(
            n=256, m=128, d=8, levels=4, max_iterations=400, tolerance=1e-4
        )
        record = database.load("100")
        results = {}
        for precision in ("float64", "hybrid"):
            system = EcgMonitorSystem(config, precision=precision)
            system.calibrate(record)
            (results[precision],) = FleetDecoder(batch_size=4).run(
                [
                    StreamTask(
                        system, record, max_packets=4, keep_signals=True
                    )
                ]
            )
        pure, hybrid = results["float64"], results["hybrid"]
        assert [p.sequence for p in pure.packets] == [
            p.sequence for p in hybrid.packets
        ]
        for a, b in zip(pure.packets, hybrid.packets):
            assert a.packet_bits == b.packet_bits  # decode-side lever only
            assert abs(a.prd_percent - b.prd_percent) < 0.5
        np.testing.assert_allclose(
            hybrid.reconstructed_adu,
            pure.reconstructed_adu,
            atol=1.0,  # ADU counts; float32 noise is far below 1 LSB
        )


class TestCliEquivalence:
    @pytest.mark.parametrize("precision", ["hybrid", "float32"])
    def test_fleet_cli_precision_flag(self, capsys, precision):
        from repro.cli import main

        code = main(
            [
                "fleet",
                "--streams", "1",
                "--packets", "2",
                "--duration", "12",
                "--batch-size", "4",
                "--precision", precision,
            ]
        )
        captured = capsys.readouterr().out
        assert code == 0
        assert "windows/s" in captured

    def test_fleet_cli_rejects_unknown_precision(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["fleet", "--precision", "float16"])
