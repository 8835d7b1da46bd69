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
from repro.errors import SolverError
from repro.metrics import prd
from repro.sensing import SparseBinaryMatrix
from repro.solvers import (
    StructuredOperator,
    admm_rho,
    batched_admm,
    batched_fista,
    batched_lambda_from_fraction,
    structured_batched_fista,
)
from repro.solvers.batched import ADMM_RHO_SCALE
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


def _fast(case, config, columns=slice(None), rho=None):
    """The fast leg alone on (a column subset of) a block."""
    structure = case["structure"]
    block = np.ascontiguousarray(case["block"][:, columns])
    return batched_admm(
        structure,
        block,
        batched_lambda_from_fraction(structure.dense64, block, config.lam),
        admm_rho(config.lam) if rho is None else rho,
        max_iterations=config.max_iterations,
        tolerance=config.tolerance,
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
        assert _gap(case, lam, hybrid).max() < 1e-6

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
        assert _gap(saturate_block, fractions, hybrid).max() < 1e-6

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
        self, saturate_block, paper_config
    ):
        """An all-zero column (done at iteration 1), an easy synthetic
        sparse column and real hard windows in one block: the working
        set compacts several times mid-solve, and every survivor must
        keep *its* ridge term, threshold and dual."""
        structure = saturate_block["structure"]
        rng = np.random.default_rng(5)
        sparse = np.zeros(structure.n_coefficients)
        sparse[rng.choice(sparse.size, 12, replace=False)] = (
            rng.standard_normal(12) * 200.0
        )
        real = saturate_block["block"][:, 8:14]
        case = {
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
        wide = _fast(case, paper_config)
        # freezes spread out enough to compact more than once
        assert len(set(wide.iterations.tolist())) >= 4
        assert wide.iterations[0] == 1
        _assert_columns_independent(case, paper_config, wide)


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
        np.testing.assert_array_equal(first.coefficients, again.coefficients)
        np.testing.assert_array_equal(first.iterations, again.iterations)
        np.testing.assert_array_equal(first.signals, again.signals)


class TestValidation:
    @pytest.mark.parametrize("rho", [0.0, -1.0, np.nan, np.inf])
    def test_bad_rho_rejected(self, rho):
        with pytest.raises(SolverError, match="rho"):
            batched_admm(_structure(), np.ones((64, 2)), 0.1, rho)

    @pytest.mark.parametrize("fraction", [np.nan, np.inf, 0.0])
    def test_non_finite_fraction_rejected(self, fraction):
        structure = _structure()
        with pytest.raises(SolverError, match="fraction"):
            batched_lambda_from_fraction(
                structure.dense64,
                np.ones((64, 2)),
                np.array([0.002, fraction]),
            )
