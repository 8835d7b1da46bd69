"""Tests for the spectral-norm estimate and its per-coefficient split."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import SolverError
from repro.sensing import SparseBinaryMatrix
from repro.solvers import (
    StructuredOperator,
    batched_fista,
    coefficient_lipschitz,
    lipschitz_constant,
    power_iteration_norm,
)
from repro.wavelet import DenseOperator, WaveletTransform


class TestPowerIteration:
    def test_diagonal_matrix(self):
        matrix = np.diag([1.0, 5.0, 3.0])
        assert power_iteration_norm(matrix) == pytest.approx(5.0, rel=1e-5)

    def test_matches_svd(self, rng):
        matrix = rng.standard_normal((20, 40))
        expected = np.linalg.svd(matrix, compute_uv=False)[0]
        assert power_iteration_norm(matrix) == pytest.approx(expected, rel=1e-4)

    def test_operator_input(self, rng):
        matrix = rng.standard_normal((10, 15))
        assert power_iteration_norm(DenseOperator(matrix)) == pytest.approx(
            power_iteration_norm(matrix), rel=1e-6
        )

    def test_zero_matrix(self):
        assert power_iteration_norm(np.zeros((4, 4))) == 0.0

    def test_invalid_iterations(self):
        with pytest.raises(SolverError):
            power_iteration_norm(np.eye(3), iterations=0)

    def test_non_2d_rejected(self):
        with pytest.raises(SolverError):
            power_iteration_norm(np.zeros(3))

    def test_deterministic(self, rng):
        matrix = rng.standard_normal((12, 12))
        assert power_iteration_norm(matrix) == power_iteration_norm(matrix)


class TestLipschitzConstant:
    def test_value_is_2_sigma_squared_with_margin(self, rng):
        matrix = rng.standard_normal((16, 32))
        sigma = np.linalg.svd(matrix, compute_uv=False)[0]
        constant = lipschitz_constant(matrix, safety=1.02)
        assert constant == pytest.approx(2.0 * 1.02 * sigma**2, rel=1e-3)

    def test_never_underestimates(self, rng):
        """The safety margin must keep L >= 2 sigma_max^2."""
        for seed in range(5):
            matrix = np.random.default_rng(seed).standard_normal((10, 20))
            sigma = np.linalg.svd(matrix, compute_uv=False)[0]
            assert lipschitz_constant(matrix) >= 2.0 * sigma**2 - 1e-9

    def test_invalid_safety(self):
        with pytest.raises(SolverError):
            lipschitz_constant(np.eye(3), safety=0.9)


def _structure(n, levels, wavelet="db4", d=8, seed=3):
    return StructuredOperator(
        SparseBinaryMatrix(n // 2, n, d=d, seed=seed),
        WaveletTransform(n, wavelet, levels).synthesis_matrix(),
    )


class TestCoefficientLipschitz:
    @pytest.mark.parametrize("n", [128, 256, 512])
    @pytest.mark.parametrize("levels", [3, 4, 5])
    @pytest.mark.parametrize("wavelet", ["db4", "haar", "sym4"])
    def test_diagonal_majorizes_the_gram(self, n, levels, wavelet):
        for d in (4, 8, 12):
            for seed in (3, 11):
                structure = _structure(n, levels, wavelet, d, seed)
                rows = structure.coefficient_lipschitz
                gram = 2.0 * structure.dense64.T @ structure.dense64
                slack = np.linalg.eigvalsh(np.diag(rows) - gram).min()
                assert slack >= 0, (d, seed, slack)
                # sparse binary Phi: DC is the outlier, so the split holds
                # and the band is the approximation sub-band
                band = rows > rows.min()
                assert np.count_nonzero(band) == n >> levels
                assert rows.min() < 0.75 * structure.lipschitz
                np.testing.assert_array_equal(
                    rows[band], rows.min() + structure.lipschitz
                )

    def test_deterministic(self):
        np.testing.assert_array_equal(
            _structure(256, 4).coefficient_lipschitz,
            _structure(256, 4).coefficient_lipschitz,
        )

    def test_wide_band_keeps_the_uniform_step(self, rng):
        """One decomposition level puts DC on half the coefficients:
        no split, and a solve with the constant vector *is* the
        scalar-``L`` solve."""
        structure = _structure(128, 1)
        rows = structure.coefficient_lipschitz
        np.testing.assert_array_equal(
            rows, np.full(128, structure.lipschitz)
        )

        alpha = np.zeros((128, 4))
        alpha[rng.choice(128, 10, replace=False)] = rng.standard_normal(
            (10, 4)
        )
        ys = (structure.dense64 @ alpha).astype(np.float32)
        solves = [
            batched_fista(
                structure.dense32,
                ys,
                np.array([0.05, 0.1, 0.2, 0.4]),
                max_iterations=300,
                lipschitz=lipschitz,
                restart=True,
            )
            for lipschitz in (structure.lipschitz, rows)
        ]
        np.testing.assert_array_equal(
            solves[0].coefficients, solves[1].coefficients
        )
        np.testing.assert_array_equal(
            solves[0].iterations, solves[1].iterations
        )
        np.testing.assert_array_equal(solves[0].restarts, solves[1].restarts)
        # columns froze at different iterations: compaction ran on both
        # the (B,) and the (n, B) threshold layouts
        assert len(set(solves[0].iterations.tolist())) > 1

    def test_flat_spectrum_keeps_the_uniform_step(self):
        """No outlier to deflate: with ``2 A^T A`` flat at 2, removing
        one direction leaves ``lambda_max`` where it was, so the
        safety-inflated bulk bound is not below ``L``."""
        dense = np.eye(64, 128)
        synthesis = WaveletTransform(128, "db4", 3).synthesis_matrix()
        rows = coefficient_lipschitz(
            dense, np.ascontiguousarray(dense.T), synthesis, 2.0
        )
        np.testing.assert_array_equal(rows, np.full(128, 2.0))

    def test_wrong_length_vector_rejected(self):
        structure = _structure(128, 3)
        with pytest.raises(SolverError, match="lipschitz shape"):
            batched_fista(
                structure.dense64,
                np.ones((64, 2)),
                0.1,
                lipschitz=np.ones(64),
            )
        with pytest.raises(SolverError, match="must be positive"):
            batched_fista(
                structure.dense64,
                np.ones((64, 2)),
                0.1,
                lipschitz=np.zeros(128),
            )
