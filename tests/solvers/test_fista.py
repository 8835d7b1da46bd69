"""Tests for FISTA — the paper's reconstruction solver."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import SolverError
from repro.solvers import fista, ista, lambda_from_fraction, soft_threshold


class TestInterface:
    def test_rejects_bad_lambda(self, sparse_problem):
        with pytest.raises(SolverError):
            fista(sparse_problem["system"], sparse_problem["y"], lam=0.0)

    def test_rejects_bad_iterations(self, sparse_problem):
        with pytest.raises(SolverError):
            fista(
                sparse_problem["system"], sparse_problem["y"], lam=1.0,
                max_iterations=0,
            )

    def test_rejects_bad_tolerance(self, sparse_problem):
        with pytest.raises(SolverError):
            fista(
                sparse_problem["system"], sparse_problem["y"], lam=1.0,
                tolerance=0.0,
            )

    def test_rejects_mismatched_y(self, sparse_problem):
        with pytest.raises(SolverError):
            fista(sparse_problem["system"], np.zeros(5), lam=1.0)

    def test_rejects_bad_x0(self, sparse_problem):
        with pytest.raises(SolverError):
            fista(
                sparse_problem["system"], sparse_problem["y"], lam=1.0,
                x0=np.zeros(3),
            )

    def test_rejects_bad_lipschitz(self, sparse_problem):
        with pytest.raises(SolverError):
            fista(
                sparse_problem["system"], sparse_problem["y"], lam=1.0,
                lipschitz=-1.0,
            )

    @pytest.mark.parametrize(
        "name, value",
        [("lam", np.nan), ("lam", np.inf), ("tolerance", np.nan),
         ("lipschitz", np.nan), ("lipschitz", np.inf)],
    )
    def test_rejects_non_finite_values(self, sparse_problem, name, value):
        """Each of these passed its ``<= 0`` test: an infinite
        ``lipschitz`` made the step 0 and "converged" at iteration 1 on
        zeros, a NaN ``lam`` or ``lipschitz`` ran to the cap and
        returned NaN, and a NaN ``tolerance`` never stopped."""
        kwargs = {"lam": 1.0, name: value}
        with pytest.raises(SolverError, match=name):
            fista(sparse_problem["system"], sparse_problem["y"], **kwargs)


class TestRecovery:
    def test_recovers_sparse_signal(self, sparse_problem):
        a, y = sparse_problem["system"], sparse_problem["y"]
        lam = lambda_from_fraction(a, y, 0.001)
        result = fista(a, y, lam, max_iterations=3000, tolerance=1e-7)
        x_hat = sparse_problem["transform"].inverse(result.coefficients)
        prd = np.linalg.norm(x_hat - sparse_problem["x_true"]) / np.linalg.norm(
            sparse_problem["x_true"]
        )
        assert prd < 0.05

    def test_converged_flag(self, sparse_problem):
        a, y = sparse_problem["system"], sparse_problem["y"]
        lam = lambda_from_fraction(a, y, 0.01)
        result = fista(a, y, lam, max_iterations=3000, tolerance=1e-6)
        assert result.converged
        assert result.stop_reason == "tolerance"
        assert result.iterations < 3000

    def test_budget_exhaustion_reported(self, sparse_problem):
        a, y = sparse_problem["system"], sparse_problem["y"]
        lam = lambda_from_fraction(a, y, 0.001)
        result = fista(a, y, lam, max_iterations=3, tolerance=1e-12)
        assert not result.converged
        assert result.stop_reason == "max_iterations"
        assert result.iterations == 3

    def test_objective_decreases_overall(self, sparse_problem):
        a, y = sparse_problem["system"], sparse_problem["y"]
        lam = lambda_from_fraction(a, y, 0.01)
        result = fista(
            a, y, lam, max_iterations=300, tolerance=1e-10,
            track_objective=True,
        )
        history = result.objective_history
        # FISTA is not monotone per-step, but start -> end must descend
        assert history[-1] < history[0]
        assert result.objective == history[-1]

    def test_large_lambda_gives_zero(self, sparse_problem):
        """lambda >= 2||A^T y||_inf makes 0 the optimum."""
        a, y = sparse_problem["system"], sparse_problem["y"]
        lam = 2.5 * float(np.max(np.abs(a.T @ y)))
        result = fista(a, y, lam, max_iterations=500, tolerance=1e-10)
        assert np.allclose(result.coefficients, 0.0, atol=1e-8)

    def test_solution_is_fixed_point(self, sparse_problem):
        """x* = prox(x* - (1/L) grad f(x*)) at convergence."""
        from repro.solvers import soft_threshold
        from repro.solvers.lipschitz import lipschitz_constant

        a, y = sparse_problem["system"], sparse_problem["y"]
        lam = lambda_from_fraction(a, y, 0.01)
        lipschitz = lipschitz_constant(a)
        result = fista(
            a, y, lam, max_iterations=6000, tolerance=1e-10,
            lipschitz=lipschitz,
        )
        alpha = result.coefficients
        gradient = 2.0 * a.T @ (a @ alpha - y)
        step = soft_threshold(alpha - gradient / lipschitz, lam / lipschitz)
        assert np.allclose(step, alpha, atol=1e-5)

    def test_warm_start_converges_faster(self, sparse_problem):
        a, y = sparse_problem["system"], sparse_problem["y"]
        lam = lambda_from_fraction(a, y, 0.01)
        cold = fista(a, y, lam, max_iterations=4000, tolerance=1e-6)
        warm = fista(
            a, y, lam, max_iterations=4000, tolerance=1e-6,
            x0=cold.coefficients,
        )
        assert warm.iterations <= cold.iterations

    def test_faster_than_ista(self, sparse_problem):
        """The paper's motivation: O(1/k^2) vs O(1/k)."""
        a, y = sparse_problem["system"], sparse_problem["y"]
        lam = lambda_from_fraction(a, y, 0.005)
        fista_result = fista(a, y, lam, max_iterations=5000, tolerance=1e-6)
        ista_result = ista(a, y, lam, max_iterations=5000, tolerance=1e-6)
        assert fista_result.iterations < ista_result.iterations


class TestPrecision:
    def test_float32_pipeline(self, sparse_problem):
        a = sparse_problem["system"].astype(np.float32)
        y = sparse_problem["y"].astype(np.float32)
        lam = lambda_from_fraction(a, y, 0.01)
        result = fista(a, y, lam, max_iterations=1000, tolerance=1e-5)
        assert result.coefficients.dtype == np.float32

    def test_float64_operator_cast_to_match_float32_y(self, sparse_problem):
        """A float64 dense A with float32 y is rounded to float32 first:
        the solve is bit-identical to passing a float32 A."""
        a64 = sparse_problem["system"]
        y32 = sparse_problem["y"].astype(np.float32)
        lam = lambda_from_fraction(a64, y32, 0.01)
        mixed = fista(a64, y32, lam, max_iterations=200, tolerance=1e-5)
        pure = fista(
            a64.astype(np.float32), y32, lam,
            max_iterations=200, tolerance=1e-5,
        )
        assert mixed.coefficients.dtype == np.float32
        assert mixed.iterations == pure.iterations
        assert np.array_equal(mixed.coefficients, pure.coefficients)

    def test_float32_leg_products_run_in_float64(self, sparse_problem):
        """The float32 leg holds the float32-rounded A in float64 and
        rounds each product back to float32 (the arithmetic figs 6-8
        were measured with), not a float32 GEMV."""
        a32 = sparse_problem["system"].astype(np.float32)
        y32 = sparse_problem["y"].astype(np.float32)
        lam = lambda_from_fraction(a32, y32, 0.01)
        lipschitz = 2.0 * np.linalg.norm(a32.astype(np.float64), 2) ** 2
        result = fista(a32, y32, lam, max_iterations=1, lipschitz=lipschitz)
        step = np.float32(1.0 / lipschitz)
        threshold = np.float32(lam / lipschitz)
        residual = -y32  # the first iterate starts from zero
        in_float64 = np.asarray(a32.astype(np.float64).T @ residual, np.float32)
        in_float32 = a32.T @ residual
        assert np.array_equal(
            result.coefficients,
            soft_threshold(-step * (2.0 * in_float64), threshold),
        )
        assert not np.array_equal(
            result.coefficients,
            soft_threshold(-step * (2.0 * in_float32), threshold),
        )

    def test_float32_matches_float64_quality(self, sparse_problem):
        """The Figure 6 claim at unit-test scale."""
        a64, y64 = sparse_problem["system"], sparse_problem["y"]
        lam = lambda_from_fraction(a64, y64, 0.005)
        r64 = fista(a64, y64, lam, max_iterations=2000, tolerance=1e-6)
        r32 = fista(
            a64.astype(np.float32), y64.astype(np.float32), lam,
            max_iterations=2000, tolerance=1e-6,
        )
        t = sparse_problem["transform"]
        x64 = t.inverse(r64.coefficients)
        x32 = t.inverse(r32.coefficients.astype(np.float64))
        x_true = sparse_problem["x_true"]
        prd64 = np.linalg.norm(x64 - x_true) / np.linalg.norm(x_true)
        prd32 = np.linalg.norm(x32 - x_true) / np.linalg.norm(x_true)
        assert abs(prd64 - prd32) < 0.01


class TestLambdaFromFraction:
    def test_scales_with_fraction(self, sparse_problem):
        a, y = sparse_problem["system"], sparse_problem["y"]
        assert lambda_from_fraction(a, y, 0.2) == pytest.approx(
            2.0 * lambda_from_fraction(a, y, 0.1)
        )

    def test_zero_measurements(self, sparse_problem):
        a = sparse_problem["system"]
        assert lambda_from_fraction(a, np.zeros(a.shape[0]), 0.3) == 0.3

    def test_rejects_nonpositive_fraction(self, sparse_problem):
        with pytest.raises(SolverError):
            lambda_from_fraction(
                sparse_problem["system"], sparse_problem["y"], 0.0
            )

    @pytest.mark.parametrize("fraction", [np.nan, np.inf])
    def test_rejects_non_finite_fraction(self, sparse_problem, fraction):
        """Both passed ``fraction <= 0`` and came back as the weight."""
        with pytest.raises(SolverError, match="fraction"):
            lambda_from_fraction(
                sparse_problem["system"], sparse_problem["y"], fraction
            )
