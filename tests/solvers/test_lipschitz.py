"""Tests for the spectral-norm estimate behind FISTA's step size."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import SolverError
from repro.solvers import lipschitz_constant, power_iteration_norm


class TestPowerIteration:
    def test_diagonal_matrix(self):
        matrix = np.diag([1.0, 5.0, 3.0])
        assert power_iteration_norm(matrix) == pytest.approx(5.0, rel=1e-5)

    def test_matches_svd(self, rng):
        matrix = rng.standard_normal((20, 40))
        expected = np.linalg.svd(matrix, compute_uv=False)[0]
        assert power_iteration_norm(matrix) == pytest.approx(expected, rel=1e-4)

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
