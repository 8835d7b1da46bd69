"""Tests for the baseline solvers: ISTA, TwIST, OMP, GPSR, basis pursuit."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import SolverError
from repro.solvers import (
    basis_pursuit,
    fista,
    gpsr,
    ista,
    lambda_from_fraction,
    omp,
    twist,
)


def _prd_of(result, problem):
    x_hat = problem["transform"].inverse(
        np.asarray(result.coefficients, dtype=np.float64)
    )
    return float(
        np.linalg.norm(x_hat - problem["x_true"])
        / np.linalg.norm(problem["x_true"])
    )


class TestIsta:
    def test_recovers(self, sparse_problem):
        a, y = sparse_problem["system"], sparse_problem["y"]
        lam = lambda_from_fraction(a, y, 0.005)
        result = ista(a, y, lam, max_iterations=8000, tolerance=1e-7)
        assert _prd_of(result, sparse_problem) < 0.10

    def test_objective_monotone(self, sparse_problem):
        """Unlike FISTA, plain ISTA descends monotonically."""
        a, y = sparse_problem["system"], sparse_problem["y"]
        lam = lambda_from_fraction(a, y, 0.01)
        result = ista(
            a, y, lam, max_iterations=200, tolerance=1e-12,
            track_objective=True,
        )
        history = np.asarray(result.objective_history)
        assert np.all(np.diff(history) <= 1e-9)

    def test_rejects_bad_params(self, sparse_problem):
        with pytest.raises(SolverError):
            ista(sparse_problem["system"], sparse_problem["y"], lam=-1.0)
        with pytest.raises(SolverError):
            ista(
                sparse_problem["system"], sparse_problem["y"], lam=1.0,
                max_iterations=0,
            )

    def test_x0_shape_checked(self, sparse_problem):
        with pytest.raises(SolverError):
            ista(
                sparse_problem["system"], sparse_problem["y"], lam=1.0,
                x0=np.zeros(7),
            )


class TestTwist:
    def test_recovers(self, sparse_problem):
        a, y = sparse_problem["system"], sparse_problem["y"]
        lam = lambda_from_fraction(a, y, 0.005)
        result = twist(a, y, lam, max_iterations=4000, tolerance=1e-7)
        assert _prd_of(result, sparse_problem) < 0.10

    def test_faster_than_ista(self, sparse_problem):
        a, y = sparse_problem["system"], sparse_problem["y"]
        lam = lambda_from_fraction(a, y, 0.005)
        twist_result = twist(a, y, lam, max_iterations=8000, tolerance=1e-6)
        ista_result = ista(a, y, lam, max_iterations=8000, tolerance=1e-6)
        assert twist_result.iterations < ista_result.iterations

    def test_parameters_formula(self):
        from repro.solvers.twist import twist_parameters

        alpha, beta = twist_parameters(1.0)  # perfectly conditioned
        assert alpha == pytest.approx(1.0)
        assert beta == pytest.approx(1.0)

    def test_parameters_validation(self):
        from repro.solvers.twist import twist_parameters

        with pytest.raises(SolverError):
            twist_parameters(0.0)
        with pytest.raises(SolverError):
            twist_parameters(1.5)

    def test_rejects_bad_lambda(self, sparse_problem):
        with pytest.raises(SolverError):
            twist(sparse_problem["system"], sparse_problem["y"], lam=0.0)


class TestOmp:
    def test_exact_recovery_on_sparse_signal(self, sparse_problem):
        """Greedy pursuit nails exactly-sparse signals."""
        a, y = sparse_problem["system"], sparse_problem["y"]
        result = omp(a, y, sparsity=2 * sparse_problem["sparsity"])
        assert _prd_of(result, sparse_problem) < 1e-6
        assert result.converged
        assert result.stop_reason == "residual"

    def test_support_size_bounded(self, sparse_problem):
        a, y = sparse_problem["system"], sparse_problem["y"]
        result = omp(a, y, sparsity=5)
        assert np.count_nonzero(result.coefficients) <= 5

    def test_zero_measurements(self, sparse_problem):
        a = sparse_problem["system"]
        result = omp(a, np.zeros(a.shape[0]))
        assert result.converged
        assert np.allclose(result.coefficients, 0.0)

    def test_invalid_sparsity(self, sparse_problem):
        with pytest.raises(SolverError):
            omp(sparse_problem["system"], sparse_problem["y"], sparsity=0)

    def test_iterations_equal_selected_atoms(self, sparse_problem):
        a, y = sparse_problem["system"], sparse_problem["y"]
        result = omp(a, y, sparsity=7, residual_tolerance=0.0)
        assert result.iterations == 7


class TestGpsr:
    def test_recovers(self, sparse_problem):
        a, y = sparse_problem["system"], sparse_problem["y"]
        lam = lambda_from_fraction(a, y, 0.005) / 2.0  # GPSR's 0.5 fidelity
        result = gpsr(a, y, lam, max_iterations=3000, tolerance=1e-7)
        assert _prd_of(result, sparse_problem) < 0.10

    def test_agrees_with_fista_optimum(self, sparse_problem):
        """Same convex objective -> same minimizer (lam_gpsr = lam/2)."""
        a, y = sparse_problem["system"], sparse_problem["y"]
        lam = lambda_from_fraction(a, y, 0.02)
        f = fista(a, y, lam, max_iterations=8000, tolerance=1e-9)
        g = gpsr(a, y, lam / 2.0, max_iterations=8000, tolerance=1e-9)
        assert np.allclose(f.coefficients, g.coefficients, atol=5e-3)

    def test_objective_monotone(self, sparse_problem):
        a, y = sparse_problem["system"], sparse_problem["y"]
        lam = lambda_from_fraction(a, y, 0.01)
        result = gpsr(
            a, y, lam, max_iterations=150, tolerance=1e-12,
            track_objective=True,
        )
        history = np.asarray(result.objective_history)
        assert np.all(np.diff(history) <= 1e-6)

    def test_rejects_bad_params(self, sparse_problem):
        with pytest.raises(SolverError):
            gpsr(sparse_problem["system"], sparse_problem["y"], lam=0.0)


@pytest.mark.parametrize(
    "solver, name, value",
    [(ista, "lam", np.nan), (ista, "lam", np.inf),
     (ista, "tolerance", np.nan), (ista, "lipschitz", np.nan),
     (ista, "lipschitz", np.inf),
     (twist, "lam", np.nan), (twist, "lam", np.inf),
     (twist, "tolerance", np.nan),
     (gpsr, "lam", np.nan), (gpsr, "lam", np.inf),
     (gpsr, "tolerance", np.nan)],
)
def test_rejects_non_finite_values(sparse_problem, solver, name, value):
    """Each of these passed a ``<= 0`` test or none at all, then ran to
    the iteration cap (NaN ``lam``/``lipschitz`` returning NaN) or, at an
    infinite ``lipschitz``, "converged" on zeros with a zero step."""
    kwargs = {"lam": 1.0, "max_iterations": 50, name: value}
    with pytest.raises(SolverError, match=name):
        solver(sparse_problem["system"], sparse_problem["y"], **kwargs)


class TestBasisPursuit:
    def test_exact_recovery(self, sparse_problem):
        a, y = sparse_problem["system"], sparse_problem["y"]
        result = basis_pursuit(a, y)
        assert result.converged
        assert _prd_of(result, sparse_problem) < 1e-4

    def test_residual_is_tiny(self, sparse_problem):
        a, y = sparse_problem["system"], sparse_problem["y"]
        result = basis_pursuit(a, y)
        assert result.residual_norm < 1e-6 * np.linalg.norm(y)

    def test_l1_not_larger_than_fista(self, sparse_problem):
        """BP minimizes ||.||_1 under exact fit; FISTA trades fit for l1."""
        a, y = sparse_problem["system"], sparse_problem["y"]
        bp_result = basis_pursuit(a, y)
        lam = lambda_from_fraction(a, y, 0.001)
        fista_result = fista(a, y, lam, max_iterations=4000, tolerance=1e-9)
        l1_bp = np.sum(np.abs(bp_result.coefficients))
        l1_fista = np.sum(np.abs(fista_result.coefficients))
        assert l1_bp <= l1_fista * 1.02
