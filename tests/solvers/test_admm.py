"""The hybrid backend's float32 fast leg: over-relaxed ADMM.

``batched_admm`` must land on the lasso minimiser ``batched_fista``
defines — over compression ratios, ``lam`` fractions and records, in
a quarter of the iterations — and stay clear of the three ways its
prototype went wrong (stopping on the sparse iterate alone, the
float32 noise floor of the textbook update, a too-small ``rho``).
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.config import SystemConfig
from repro.core import EcgMonitorSystem
from repro.core.batch import encode_record_windows
from repro.ecg import SyntheticMitBih
from repro.errors import SolverError
from repro.metrics import prd
from repro.sensing import SparseBinaryMatrix
from repro.solvers import (
    BatchedFista,
    StructuredOperator,
    admm_rho,
    batched_admm,
    batched_fista,
    batched_lambda_from_fraction,
    structured_batched_fista,
)
from repro.solvers import batched as batched_module
from repro.solvers.batched import (
    ADMM_CHECK_EVERY,
    ADMM_RELAXATION,
    ADMM_RHO_SCALE,
    BatchedSolverResult,
)
from repro.solvers.sparse_apply import ADMM_PAIR_CACHE_SIZE
from repro.wavelet import WaveletTransform

BENCH_RECORDS = ("100", "119", "201", "209")


def _case(database, config, names, windows):
    """Real encoded windows of ``names`` under ``config``, one block."""
    blocks, truths = [], []
    for name in names:
        record = database.load(name)
        system = EcgMonitorSystem(config, precision="hybrid")
        system.calibrate(record)
        originals, packets = encode_record_windows(
            system, record, max_packets=windows
        )
        decoder = system.decoder
        blocks.append(decoder.payload.measurement_block(packets, np.float64))
        truths.extend(originals - decoder.dc_offset)
    return {
        "structure": decoder.resources.solver.structure,
        "block": np.concatenate(blocks, axis=1),
        "windows": truths,
    }


@pytest.fixture(scope="module")
def saturate_block(paper_config, database):
    """The first full batch of the e2e ``saturate`` workload: eight
    paper-point windows each of records 100 and 119."""
    return _case(database, paper_config, ("100", "119"), 8)


@pytest.fixture(scope="module")
def compaction_case(saturate_block):
    """An all-zero column, an easy synthetic sparse column and six real
    windows: freezes spread over the solve and compact it repeatedly."""
    structure = saturate_block["structure"]
    rng = np.random.default_rng(5)
    sparse = np.zeros(structure.n_coefficients)
    sparse[rng.choice(sparse.size, 12, replace=False)] = (
        rng.standard_normal(12) * 200.0
    )
    real = saturate_block["block"][:, 8:14]
    return {
        "structure": structure,
        "block": np.concatenate(
            [
                np.zeros((real.shape[0], 1)),
                (structure.dense64 @ sparse)[:, None],
                real,
            ],
            axis=1,
        ),
        "windows": [None, None, *saturate_block["windows"][8:14]],
    }


def _objective(structure, block, lams, coefficients):
    """Per-column lasso objective, evaluated in float64."""
    alpha = np.asarray(coefficients, dtype=np.float64)
    resid = structure.dense64 @ alpha - block
    return np.einsum("ij,ij->j", resid, resid) + lams * np.abs(alpha).sum(
        axis=0
    )


def _minimum(structure, block, lams, start):
    """The lasso minimum by float64 FISTA run to 1e-9, warm-started at
    the candidate (a cold start lands on the same objective to 2e-11
    but needs > 50000 iterations at CR 70): if the candidate were not
    the minimiser, FISTA would walk away from it and the gap show."""
    reference = batched_fista(
        structure.dense64,
        block,
        lams,
        max_iterations=50000,
        tolerance=1e-9,
        lipschitz=structure.lipschitz,
        operator_t=structure.dense64_t,
        x0=start,
    )
    assert reference.converged.all()
    return _objective(structure, block, lams, reference.coefficients)


def _gap(case, fractions, result):
    """Relative objective excess of ``result`` over the minimum."""
    structure, block = case["structure"], case["block"]
    lams = batched_lambda_from_fraction(structure.dense64, block, fractions)
    minimum = _minimum(structure, block, lams, result.coefficients)
    return (
        _objective(structure, block, lams, result.coefficients) - minimum
    ) / minimum


def _fast(case, config, columns=slice(None), rho=None, fractions=None):
    """The fast leg alone on (a column subset of) a block; on a column
    the hybrid solve does not polish, its coefficients are these."""
    structure = case["structure"]
    block = np.ascontiguousarray(case["block"][:, columns])
    if fractions is None:
        fractions = config.lam
    return batched_admm(
        structure,
        block,
        batched_lambda_from_fraction(structure.dense64, block, fractions),
        admm_rho(fractions) if rho is None else rho,
        max_iterations=config.max_iterations,
        tolerance=config.tolerance,
    )


def _assert_carries_fast_leg(structure, hybrid, fast):
    """An unpolished hybrid solve hands back the fast leg's iterations
    and its float32 synthesis, bit for bit."""
    np.testing.assert_array_equal(hybrid.iterations, fast.iterations)
    np.testing.assert_array_equal(
        hybrid.signals,
        np.matmul(structure.psi32, fast.coefficients).astype(np.float64),
    )


class TestSameMinimiser:
    @pytest.mark.parametrize("cr", [30, 50, 70])
    @pytest.mark.parametrize("lam", [0.0005, 0.002, 0.01, 0.05])
    def test_objective_matches_float64_fista(self, database, cr, lam):
        config = SystemConfig(lam=lam).with_target_cr(cr)
        case = _case(database, config, BENCH_RECORDS, 2)
        hybrid = structured_batched_fista(
            case["structure"],
            case["block"],
            lam,
            max_iterations=config.max_iterations,
            tolerance=config.tolerance,
        )
        assert hybrid.converged.all()  # nobody rides the cap
        assert not hybrid.polished.any()
        fast = _fast(case, config)
        _assert_carries_fast_leg(case["structure"], hybrid, fast)
        assert _gap(case, lam, fast).max() < 1e-6

    def test_mixed_fractions_reach_both_minimisers(
        self, saturate_block, paper_config
    ):
        """Two ``lam`` values in one solve share the block median's
        ``rho``; each column still lands on its own minimiser."""
        fractions = np.repeat([0.0005, 0.01], 8)
        hybrid = structured_batched_fista(
            saturate_block["structure"],
            saturate_block["block"],
            fractions,
            max_iterations=paper_config.max_iterations,
            tolerance=paper_config.tolerance,
        )
        assert hybrid.converged.all() and not hybrid.polished.any()
        fast = _fast(saturate_block, paper_config, fractions=fractions)
        _assert_carries_fast_leg(saturate_block["structure"], hybrid, fast)
        assert _gap(saturate_block, fractions, fast).max() < 1e-6

    @pytest.mark.parametrize("record", [0, 1])
    def test_paper_point_iteration_budget(
        self, saturate_block, paper_config, record
    ):
        """PR 15's restarted FISTA took ~250-270 iterations per window
        here; the pin is 0.4x of that (measured: ~74)."""
        columns = slice(8 * record, 8 * record + 8)
        fast = _fast(saturate_block, paper_config, columns)
        assert fast.converged.all()
        assert fast.iterations.mean() <= 100, fast.iterations
        assert fast.iterations.max() <= 130, fast.iterations


class TestPrototypeTraps:
    def test_large_lam_does_not_stop_on_the_sparse_iterate_alone(
        self, database
    ):
        """Trap 1: at ``lam = 0.05`` the sparse iterate sits at zero
        while ``lam / rho`` exceeds ``|v|`` — a stop rule reading its
        change alone "converges" at iteration ~1 with all-zero
        coefficients (PRD 76 vs 39, objective 11x the minimum)."""
        config = SystemConfig(lam=0.05)
        case = _case(database, config, ("100", "119"), 4)
        fast = _fast(case, config)
        assert fast.converged.all()
        assert fast.iterations.min() > 10, fast.iterations
        assert np.count_nonzero(fast.coefficients, axis=0).min() > 0
        assert _gap(case, config.lam, fast).max() < 1e-6

    @pytest.mark.parametrize("width", [1, 2, 16])
    def test_float32_noise_floor_is_under_the_tolerance(
        self, saturate_block, paper_config, width
    ):
        """Trap 2: the textbook update ``M (2 A^T y + rho (z - u))``
        jitters at 4e-6 .. 1.1e-5 of the iterate in float32 (worst on
        OpenBLAS' narrow-N path) against ``tolerance = 1e-5``, and two
        columns of this very block rode the cap.  In the increment
        form every column stops in the iteration band of its
        neighbours, at every working width."""
        for start in range(0, 16, width):
            fast = _fast(
                saturate_block, paper_config, slice(start, start + width)
            )
            assert fast.converged.all(), (start, fast.iterations)
            assert fast.iterations.max() <= 130, (start, fast.iterations)

    def test_rho_rule_stays_clear_of_the_small_rho_stall(
        self, saturate_block, paper_config
    ):
        """Trap 3: iterations grow like ``1 / rho`` below the rule and
        a thirtieth of it rides the cap — why ``rho`` is derived from
        ``lam`` and never a knob."""
        assert admm_rho(paper_config.lam) == pytest.approx(0.30, abs=0.005)
        assert admm_rho(np.array([0.002, 0.002, 0.05])) == admm_rho(0.002)
        columns = slice(0, 4)
        ruled = _fast(saturate_block, paper_config, columns)
        small = _fast(saturate_block, paper_config, columns, rho=0.1)
        stalled = _fast(saturate_block, paper_config, columns, rho=0.01)
        assert small.iterations.mean() > 2 * ruled.iterations.mean()
        assert not stalled.converged.all()

    @pytest.mark.parametrize("size", [1, 2, 3, 4, 7, 16])
    def test_rho_median_is_np_median(self, size):
        """``admm_rho`` sorts for its median (``np.median`` would import
        ``numpy.ma`` on a gateway's first solve); the value is
        ``np.median``'s, odd and even counts alike."""
        fractions = np.random.default_rng(size).uniform(1e-4, 0.1, size)
        expected = ADMM_RHO_SCALE * math.sqrt(float(np.median(fractions)))
        assert admm_rho(fractions) == expected


def _rel_l2(a, b):
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


def _assert_columns_independent(case, config, wide):
    """Every column of ``wide`` agrees with its own B=1 solve."""
    psi = case["structure"].psi64
    for column in range(case["block"].shape[1]):
        if not case["block"][:, column].any():
            assert not wide.coefficients[:, column].any()
            continue
        alone = _fast(case, config, slice(column, column + 1))
        signal = psi @ wide.coefficients[:, column].astype(np.float64)
        signal_alone = psi @ alone.coefficients[:, 0].astype(np.float64)
        assert _rel_l2(signal, signal_alone) < 1e-2, column
        assert (
            abs(int(wide.iterations[column]) - int(alone.iterations[0]))
            <= 0.15 * alone.iterations[0]
        ), column
        truth = case["windows"][column]
        if truth is not None:
            assert abs(
                prd(truth, signal) - prd(truth, signal_alone)
            ) < 0.05, column


class TestColumnIndependence:
    def test_each_column_matches_its_own_single_solve(
        self, saturate_block, paper_config
    ):
        """No step of the iteration mixes columns: a B=16 solve and
        sixteen B=1 solves agree up to float32 GEMM rounding."""
        wide = _fast(saturate_block, paper_config)
        _assert_columns_independent(saturate_block, paper_config, wide)

        again = _fast(saturate_block, paper_config)
        np.testing.assert_array_equal(wide.coefficients, again.coefficients)
        np.testing.assert_array_equal(wide.iterations, again.iterations)

    def test_compaction_carries_every_column_array(
        self, compaction_case, paper_config
    ):
        """An all-zero column (done at iteration 1), an easy synthetic
        sparse column and real hard windows in one block: the working
        set compacts several times mid-solve, and every survivor must
        keep *its* ridge term, threshold and dual."""
        wide = _fast(compaction_case, paper_config)
        # freezes spread out enough to compact more than once
        assert len(set(wide.iterations.tolist())) >= 4
        assert wide.iterations[0] == 1
        _assert_columns_independent(compaction_case, paper_config, wide)
        structure, block = (
            compaction_case["structure"],
            compaction_case["block"],
        )
        _assert_matches_reference(
            structure,
            block,
            batched_lambda_from_fraction(
                structure.dense64, block, paper_config.lam
            ),
            admm_rho(paper_config.lam),
            max_iterations=paper_config.max_iterations,
            tolerance=paper_config.tolerance,
        )


def _structure(n=128, levels=3):
    return StructuredOperator(
        SparseBinaryMatrix(n // 2, n, d=8, seed=3),
        WaveletTransform(n, "db4", levels).synthesis_matrix(),
    )


class TestResolventPair:
    def test_pair_is_the_ridge_resolvent(self):
        structure = _structure()
        rho = 0.3
        p32, ridge_t64 = structure.admm_pair(rho)
        assert p32.dtype == np.float32 and ridge_t64.dtype == np.float64
        a = structure.dense64
        inverse = np.linalg.inv(2.0 * a.T @ a + rho * np.eye(a.shape[1]))
        np.testing.assert_allclose(p32, rho * inverse, atol=1e-6)
        np.testing.assert_allclose(
            ridge_t64.T, 2.0 * inverse @ a.T, atol=1e-12
        )
        spectrum = np.linalg.eigvalsh(rho * inverse)
        assert 0 < spectrum.min() and spectrum.max() <= 1 + 1e-12

    def test_cache_is_bounded_and_a_rebuilt_pair_is_bit_equal(self, rng):
        structure = _structure()
        ys = structure.dense64 @ rng.standard_normal((128, 3))
        kwargs = dict(max_iterations=400, tolerance=1e-5)
        first = structured_batched_fista(structure, ys, 0.01, **kwargs)
        kept = structure.admm_pair(admm_rho(0.01))
        assert structure.admm_pair(admm_rho(0.01))[0] is kept[0]
        for lam in (0.02, 0.03, 0.04, 0.05, 0.06):
            structured_batched_fista(structure, ys, lam, **kwargs)
        assert len(structure._admm_pairs) == ADMM_PAIR_CACHE_SIZE
        assert admm_rho(0.01) not in structure._admm_pairs
        again = structured_batched_fista(structure, ys, 0.01, **kwargs)
        assert structure.admm_pair(admm_rho(0.01))[0] is not kept[0]
        rebuilt = structure.admm_pair(admm_rho(0.01))
        for built, original in zip(rebuilt, kept):
            np.testing.assert_array_equal(built, original)
        np.testing.assert_array_equal(first.iterations, again.iterations)
        np.testing.assert_array_equal(first.signals, again.signals)


def reference_admm(structure, ys, lams, rho, max_iterations, tolerance):
    """``batched_admm`` as it was before the chunked stop check: the
    stop rule evaluated after every iteration, a converged column
    snapshotted at once, 1-in-8 compaction.  The oracle the chunked
    loop must match bit for bit."""
    ys64 = np.asarray(ys, dtype=np.float64)
    n = structure.n_coefficients
    batch = ys64.shape[1]
    lams = np.broadcast_to(np.asarray(lams, dtype=np.float64), (batch,))
    p32, ridge_t64 = structure.admm_pair(rho)
    work_ridge = (ridge_t64.T @ ys64).astype(np.float32)
    work_cut = np.empty((n, batch), dtype=np.float32)
    work_cut[...] = (lams / rho).astype(np.float32)
    work_floor = -work_cut
    work_z = np.zeros((n, batch), dtype=np.float32)
    work_u = np.zeros((n, batch), dtype=np.float32)
    buf_v = np.empty_like(work_z)
    buf_u = np.empty_like(work_z)
    buf_diff = np.empty_like(work_z)
    relax = np.float32(ADMM_RELAXATION)
    carry = np.float32(ADMM_RELAXATION - 1.0)
    alpha = np.zeros((n, batch), dtype=np.float32)
    order = np.arange(batch)
    live = np.ones(batch, dtype=bool)
    z_norms = np.zeros(batch, dtype=np.float64)
    iterations = np.zeros(batch, dtype=np.int64)
    converged = np.zeros(batch, dtype=bool)
    total_iterations = 0
    for iteration in range(1, max_iterations + 1):
        total_iterations = iteration
        np.subtract(work_z, work_u, out=buf_diff)
        np.matmul(p32, buf_diff, out=buf_v)
        buf_v += work_ridge
        buf_v *= relax
        np.multiply(work_z, carry, out=buf_diff)
        buf_v -= buf_diff
        buf_v += work_u
        np.minimum(buf_v, work_cut, out=buf_u)
        np.maximum(buf_u, work_floor, out=buf_u)
        buf_v -= buf_u
        np.subtract(buf_v, work_z, out=buf_diff)
        primal = np.sqrt(
            np.einsum("ij,ij->j", buf_diff, buf_diff)
        ).astype(np.float64)
        np.subtract(buf_u, work_u, out=buf_diff)
        dual = np.sqrt(
            np.einsum("ij,ij->j", buf_diff, buf_diff)
        ).astype(np.float64)
        bound = tolerance * np.maximum(z_norms, 1.0)
        finished = live & (primal < bound) & (dual < bound)
        work_z, buf_v = buf_v, work_z
        work_u, buf_u = buf_u, work_u
        z_norms = np.sqrt(
            np.einsum("ij,ij->j", work_z, work_z)
        ).astype(np.float64)
        if finished.any():
            done = order[finished]
            alpha[:, done] = work_z[:, finished]
            iterations[done] = iteration
            converged[done] = True
            live[finished] = False
            frozen = live.size - int(np.count_nonzero(live))
            if frozen == live.size:
                break
            if frozen >= (live.size + 7) // 8:
                work_ridge = np.ascontiguousarray(work_ridge[:, live])
                work_cut = np.ascontiguousarray(work_cut[:, live])
                work_floor = np.ascontiguousarray(work_floor[:, live])
                work_z = np.ascontiguousarray(work_z[:, live])
                work_u = np.ascontiguousarray(work_u[:, live])
                z_norms = z_norms[live].copy()
                order = order[live]
                live = np.ones(order.size, dtype=bool)
                buf_v = np.empty_like(work_z)
                buf_u = np.empty_like(work_z)
                buf_diff = np.empty_like(work_z)
    still_running = order[live]
    alpha[:, still_running] = work_z[:, live]
    iterations[still_running] = total_iterations
    return alpha, iterations, converged


def _assert_matches_reference(structure, ys, lams, rho, **kwargs):
    """``batched_admm`` returns exactly what :func:`reference_admm`
    does on this block; the chunked result for further checks."""
    result = batched_admm(structure, ys, lams, rho, **kwargs)
    alpha, iterations, converged = reference_admm(
        structure, ys, lams, rho, **kwargs
    )
    np.testing.assert_array_equal(result.coefficients, alpha)
    np.testing.assert_array_equal(result.iterations, iterations)
    np.testing.assert_array_equal(result.converged, converged)
    return result


@pytest.fixture(scope="module", params=[2011, 7])
def bench_block(request, paper_config):
    """Four paper-point windows of each bench record, one block, from
    two synthetic corpora."""
    database = SyntheticMitBih(duration_s=20.0, seed=request.param)
    case = _case(database, paper_config, BENCH_RECORDS, 4)
    structure, block = case["structure"], case["block"]
    lams = batched_lambda_from_fraction(
        structure.dense64, block, paper_config.lam
    )
    return structure, block, lams


class TestChunkedStopCheck:
    """The stop rule is read once per ``ADMM_CHECK_EVERY`` iterations
    from an iterate history; every column still stops at the iteration
    and on the iterate the per-iteration check picked."""

    @pytest.mark.parametrize("width", [1, 2, 3, 4, 8, 16])
    def test_bit_identical_to_the_per_iteration_loop(
        self, bench_block, paper_config, width
    ):
        structure, block, lams = bench_block
        for start in range(0, block.shape[1], width):
            columns = slice(start, start + width)
            _assert_matches_reference(
                structure,
                np.ascontiguousarray(block[:, columns]),
                lams[columns],
                admm_rho(paper_config.lam),
                max_iterations=paper_config.max_iterations,
                tolerance=paper_config.tolerance,
            )

    @pytest.mark.parametrize("width", [1, 4, 16])
    def test_structured_solve_unchanged(
        self, bench_block, paper_config, width, monkeypatch
    ):
        """The hybrid pipeline (gate, polish, synthesis) returns the
        same bits on the chunked loop as on the per-iteration one."""
        structure, block, _ = bench_block
        kwargs = dict(
            max_iterations=paper_config.max_iterations,
            tolerance=paper_config.tolerance,
        )
        blocks = [
            np.ascontiguousarray(block[:, start : start + width])
            for start in range(0, block.shape[1], width)
        ]
        chunked = [
            structured_batched_fista(structure, ys, paper_config.lam, **kwargs)
            for ys in blocks
        ]

        def per_iteration(structure, ys, lams, rho, **kw):
            return BatchedSolverResult(
                *reference_admm(structure, ys, lams, rho, **kw)
            )

        monkeypatch.setattr(batched_module, "batched_admm", per_iteration)
        for ys, result in zip(blocks, chunked):
            oracle = structured_batched_fista(
                structure, ys, paper_config.lam, **kwargs
            )
            for name in ("signals", "iterations", "converged", "polished"):
                np.testing.assert_array_equal(
                    getattr(result, name), getattr(oracle, name)
                )

    @pytest.mark.parametrize("cap", [1, 7, 9, 13])
    def test_a_cap_inside_a_chunk(self, compaction_case, paper_config, cap):
        """A cap that is not a multiple of the chunk: every column the
        rule did not stop reports exactly the cap."""
        structure, block = compaction_case["structure"], compaction_case["block"]
        lams = batched_lambda_from_fraction(
            structure.dense64, block, paper_config.lam
        )
        result = _assert_matches_reference(
            structure,
            block,
            lams,
            admm_rho(paper_config.lam),
            max_iterations=cap,
            tolerance=paper_config.tolerance,
        )
        assert result.converged[0] and result.iterations[0] == 1
        assert (result.iterations[~result.converged] == cap).all()
        assert not result.converged.all()

    def test_stops_on_the_first_and_last_step_of_a_chunk(
        self, saturate_block, paper_config
    ):
        """Width-1 solves whose stop falls on a chunk's first step and
        on its last step (found by sweeping the tolerance)."""
        structure = saturate_block["structure"]
        ys = np.ascontiguousarray(saturate_block["block"][:, :1])
        lams = batched_lambda_from_fraction(
            structure.dense64, ys, paper_config.lam
        )
        rho = admm_rho(paper_config.lam)
        wanted = {1, 0}
        for tolerance in paper_config.tolerance * 1.07 ** np.arange(40):
            result = _assert_matches_reference(
                structure,
                ys,
                lams,
                rho,
                max_iterations=paper_config.max_iterations,
                tolerance=float(tolerance),
            )
            assert result.converged[0]
            wanted.discard(int(result.iterations[0]) % ADMM_CHECK_EVERY)
            if not wanted:
                break
        assert not wanted, f"no stop on step(s) {wanted} of a chunk"

    def test_repeated_same_width_solve_gives_the_same_bits(
        self, saturate_block, paper_config
    ):
        structure = saturate_block["structure"]
        ys = saturate_block["block"]
        lams = batched_lambda_from_fraction(
            structure.dense64, ys, paper_config.lam
        )
        first, second = (
            batched_admm(
                structure,
                ys,
                lams,
                admm_rho(paper_config.lam),
                max_iterations=paper_config.max_iterations,
                tolerance=paper_config.tolerance,
            )
            for _ in range(2)
        )
        np.testing.assert_array_equal(first.coefficients, second.coefficients)
        np.testing.assert_array_equal(first.iterations, second.iterations)
        assert first.coefficients is not second.coefficients

    def test_fast_leg_synthesizes_in_float32(
        self, saturate_block, paper_config
    ):
        """The hybrid solve's ``Psi`` synthesis runs in float32: an
        unpolished column's signal is the float32 product of ``psi32``
        and the fast leg's coefficients, widened to float64, bit for
        bit."""
        structure = saturate_block["structure"]
        ys = saturate_block["block"]
        kwargs = dict(
            max_iterations=paper_config.max_iterations,
            tolerance=paper_config.tolerance,
        )
        result = structured_batched_fista(
            structure, ys, paper_config.lam, **kwargs
        )
        lams = batched_lambda_from_fraction(
            structure.dense64, ys, paper_config.lam
        )
        fast = batched_admm(
            structure, ys, lams, admm_rho(paper_config.lam), **kwargs
        )
        synth = (structure.psi32 @ fast.coefficients).astype(np.float64)
        kept = ~result.polished
        assert kept.any()
        np.testing.assert_array_equal(
            synth[:, kept], result.signals[:, kept]
        )


class TestValidation:
    @pytest.mark.parametrize("rho", [0.0, -1.0, np.nan, np.inf])
    def test_bad_rho_rejected(self, rho):
        with pytest.raises(SolverError, match="rho"):
            batched_admm(_structure(), np.ones((64, 2)), 0.1, rho)

    @pytest.mark.parametrize("lam", [np.nan, np.inf, 0.0, -0.1])
    def test_bad_lams_rejected(self, lam):
        """A NaN weight passed ``lams <= 0`` and ran its column to the
        cap, returning NaN coefficients (and, on the hybrid path, a
        second full float64 solve in the polish)."""
        structure = _structure()
        lams = np.array([0.1, lam])
        with pytest.raises(SolverError, match="lams"):
            batched_admm(structure, np.ones((64, 2)), lams, 0.3)
        with pytest.raises(SolverError, match="lams"):
            batched_fista(structure.dense64, np.ones((64, 2)), lams)

    @pytest.mark.parametrize("tolerance", [np.nan, np.inf, 0.0, -1e-5])
    def test_bad_tolerance_rejected(self, tolerance):
        """A NaN tolerance passed ``tolerance <= 0``; no column ever
        met the stop rule."""
        structure = _structure()
        with pytest.raises(SolverError, match="tolerance"):
            batched_admm(
                structure, np.ones((64, 2)), 0.1, 0.3, tolerance=tolerance
            )
        with pytest.raises(SolverError, match="tolerance"):
            batched_fista(
                structure.dense64, np.ones((64, 2)), 0.1, tolerance=tolerance
            )

    @pytest.mark.parametrize("lipschitz", [np.nan, np.inf])
    def test_non_finite_lipschitz_rejected(self, lipschitz):
        """Both passed ``lipschitz <= 0``: at inf the step is 0 and every
        column "converged" at iteration 1 on all-zero coefficients; at
        NaN every column ran to the cap and returned NaN."""
        structure = _structure()
        with pytest.raises(SolverError, match="lipschitz"):
            batched_fista(
                structure.dense64, np.ones((64, 2)), 0.1, lipschitz=lipschitz
            )
        with pytest.raises(SolverError, match="lipschitz"):
            BatchedFista(structure.dense64, lipschitz=lipschitz)
        with pytest.raises(SolverError, match="lipschitz"):
            StructuredOperator(
                SparseBinaryMatrix(64, 128, d=8, seed=3),
                structure.psi64,
                lipschitz=lipschitz,
            )

    @pytest.mark.parametrize("fraction", [np.nan, np.inf, 0.0])
    def test_non_finite_fraction_rejected(self, fraction):
        structure = _structure()
        with pytest.raises(SolverError, match="fraction"):
            batched_lambda_from_fraction(
                structure.dense64,
                np.ones((64, 2)),
                np.array([0.002, fraction]),
            )
