"""Tests for the batched FISTA engine (repro.solvers.batched)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import SolverError
from repro.solvers import (
    BatchedFista,
    batched_fista,
    batched_lambda_from_fraction,
    fista,
    lambda_from_fraction,
)
from repro.solvers.lipschitz import lipschitz_constant


@pytest.fixture(scope="module")
def batch_problem(sparse_problem):
    """A block of measurement columns around the shared sparse problem."""
    rng = np.random.default_rng(7)
    a = sparse_problem["system"]
    transform = sparse_problem["transform"]
    n = a.shape[1]
    columns = []
    for _ in range(6):
        alpha = np.zeros(n)
        support = rng.choice(n, 20, replace=False)
        alpha[support] = rng.standard_normal(20) * 5.0
        x = transform.inverse(alpha)
        columns.append(a @ transform.forward(x))
    ys = np.stack(columns, axis=1)
    ys += 0.01 * rng.standard_normal(ys.shape)
    return {
        "a": a,
        "ys": ys,
        "lipschitz": lipschitz_constant(a),
    }


class TestBatchedLambda:
    def test_matches_serial_per_column(self, batch_problem):
        a, ys = batch_problem["a"], batch_problem["ys"]
        lams = batched_lambda_from_fraction(a, ys, 0.05)
        for b in range(ys.shape[1]):
            serial = lambda_from_fraction(a, ys[:, b], 0.05)
            assert lams[b] == pytest.approx(serial, rel=1e-12)

    def test_zero_column_gets_bare_fraction(self, batch_problem):
        a = batch_problem["a"]
        ys = np.zeros((a.shape[0], 2))
        ys[:, 1] = batch_problem["ys"][:, 0]
        lams = batched_lambda_from_fraction(a, ys, 0.05)
        assert lams[0] == 0.05
        assert lams[1] > 0.05

    def test_invalid_fraction(self, batch_problem):
        with pytest.raises(SolverError):
            batched_lambda_from_fraction(
                batch_problem["a"], batch_problem["ys"], 0.0
            )

    def test_per_column_fractions(self, batch_problem):
        """A cross-stream batch can mix streams with different lam."""
        a, ys = batch_problem["a"], batch_problem["ys"]
        fractions = np.linspace(0.02, 0.1, ys.shape[1])
        lams = batched_lambda_from_fraction(a, ys, fractions)
        for b in range(ys.shape[1]):
            serial = lambda_from_fraction(a, ys[:, b], float(fractions[b]))
            assert lams[b] == pytest.approx(serial, rel=1e-12)

    def test_fraction_vector_shape_mismatch(self, batch_problem):
        with pytest.raises(SolverError):
            batched_lambda_from_fraction(
                batch_problem["a"], batch_problem["ys"], np.array([0.05, 0.05])
            )

    def test_fraction_vector_with_nonpositive_entry(self, batch_problem):
        fractions = np.full(batch_problem["ys"].shape[1], 0.05)
        fractions[2] = 0.0
        with pytest.raises(SolverError):
            batched_lambda_from_fraction(
                batch_problem["a"], batch_problem["ys"], fractions
            )


class TestSerialEquivalence:
    def test_per_column_matches_serial_fista(self, batch_problem):
        """The tentpole invariant: batched column b == serial solve b."""
        a, ys = batch_problem["a"], batch_problem["ys"]
        lip = batch_problem["lipschitz"]
        lams = batched_lambda_from_fraction(a, ys, 0.05)
        batch = batched_fista(
            a, ys, lams, max_iterations=600, tolerance=1e-4, lipschitz=lip
        )
        for b in range(ys.shape[1]):
            serial = fista(
                a, ys[:, b], lams[b],
                max_iterations=600, tolerance=1e-4, lipschitz=lip,
            )
            # identical iteration counts: the convergence mask freezes a
            # column at exactly the serial stopping iteration
            assert batch.iterations[b] == serial.iterations
            assert bool(batch.converged[b]) == serial.converged
            np.testing.assert_allclose(
                batch.coefficients[:, b],
                serial.coefficients,
                atol=1e-9,
            )

    def test_scalar_lambda_broadcasts(self, batch_problem):
        a, ys = batch_problem["a"], batch_problem["ys"]
        batch = batched_fista(
            a, ys, 0.5,
            max_iterations=50, tolerance=1e-6,
            lipschitz=batch_problem["lipschitz"],
        )
        assert batch.coefficients.shape[1] == ys.shape[1]

    def test_single_column_batch(self, batch_problem):
        a, ys = batch_problem["a"], batch_problem["ys"]
        lam = lambda_from_fraction(a, ys[:, 0], 0.05)
        batch = batched_fista(
            a, ys[:, :1], lam,
            max_iterations=300, tolerance=1e-4,
            lipschitz=batch_problem["lipschitz"],
        )
        serial = fista(
            a, ys[:, 0], lam,
            max_iterations=300, tolerance=1e-4,
            lipschitz=batch_problem["lipschitz"],
        )
        assert batch.iterations[0] == serial.iterations


class TestConvergenceMasking:
    def test_iterations_differ_across_columns(self, batch_problem):
        """Columns stop independently; an easy column must not be
        dragged to the hard column's iteration count."""
        a, ys = batch_problem["a"], batch_problem["ys"]
        lams = batched_lambda_from_fraction(a, ys, 0.05)
        # make one column trivially easy: all-zero measurements
        ys = ys.copy()
        ys[:, 0] = 0.0
        lams = lams.copy()
        lams[0] = 1.0
        batch = batched_fista(
            a, ys, lams, max_iterations=600, tolerance=1e-4,
            lipschitz=batch_problem["lipschitz"],
        )
        assert batch.iterations[0] < batch.iterations[1:].min()

    def test_iteration_cap(self, batch_problem):
        a, ys = batch_problem["a"], batch_problem["ys"]
        batch = batched_fista(
            a, ys, 1e-6, max_iterations=5, tolerance=1e-12,
            lipschitz=batch_problem["lipschitz"],
        )
        assert not batch.converged.any()
        assert (batch.iterations == 5).all()


class TestWarmStart:
    def test_warm_start_reduces_iterations(self, batch_problem):
        a, ys = batch_problem["a"], batch_problem["ys"]
        lams = batched_lambda_from_fraction(a, ys, 0.05)
        cold = batched_fista(
            a, ys, lams, max_iterations=600, tolerance=1e-4,
            lipschitz=batch_problem["lipschitz"],
        )
        warm = batched_fista(
            a, ys, lams, max_iterations=600, tolerance=1e-4,
            lipschitz=batch_problem["lipschitz"],
            x0=cold.coefficients,
        )
        assert warm.iterations.sum() < cold.iterations.sum()

    def test_bad_x0_shape_rejected(self, batch_problem):
        a, ys = batch_problem["a"], batch_problem["ys"]
        with pytest.raises(SolverError):
            batched_fista(
                a, ys, 0.5, x0=np.zeros((3, 3)),
                lipschitz=batch_problem["lipschitz"],
            )


class TestValidation:
    def test_1d_ys_rejected(self, batch_problem):
        with pytest.raises(SolverError):
            batched_fista(batch_problem["a"], batch_problem["ys"][:, 0], 0.5)

    def test_row_mismatch_rejected(self, batch_problem):
        with pytest.raises(SolverError):
            batched_fista(batch_problem["a"], np.ones((3, 2)), 0.5)

    def test_empty_batch_rejected(self, batch_problem):
        a = batch_problem["a"]
        with pytest.raises(SolverError):
            batched_fista(a, np.empty((a.shape[0], 0)), 0.5)

    def test_nonpositive_lambda_rejected(self, batch_problem):
        with pytest.raises(SolverError):
            batched_fista(
                batch_problem["a"], batch_problem["ys"], 0.0,
                lipschitz=batch_problem["lipschitz"],
            )

    def test_invalid_iterations_and_tolerance(self, batch_problem):
        a, ys = batch_problem["a"], batch_problem["ys"]
        with pytest.raises(SolverError):
            batched_fista(a, ys, 0.5, max_iterations=0)
        with pytest.raises(SolverError):
            batched_fista(a, ys, 0.5, tolerance=0.0)


class TestBatchedFistaClass:
    def test_precomputes_and_solves(self, batch_problem):
        solver = BatchedFista(batch_problem["a"])
        assert solver.lipschitz == pytest.approx(
            batch_problem["lipschitz"], rel=1e-6
        )
        ys = batch_problem["ys"]
        lams = solver.lambdas(ys, 0.05)
        result = solver.solve(ys, lams, max_iterations=50, tolerance=1e-4)
        assert result.coefficients.shape == (
            batch_problem["a"].shape[1],
            ys.shape[1],
        )

    def test_repeated_solves_give_the_same_bits(self, batch_problem):
        solver = BatchedFista(
            batch_problem["a"], lipschitz=batch_problem["lipschitz"]
        )
        ys = batch_problem["ys"]
        first = solver.solve(ys, 0.5, max_iterations=30, tolerance=1e-4)
        second = solver.solve(ys, 0.5, max_iterations=30, tolerance=1e-4)
        np.testing.assert_array_equal(
            first.coefficients, second.coefficients
        )

    def test_class_solve_matches_the_function(self, batch_problem):
        """The reusable solver's cached transpose changes no bit: its
        solve equals :func:`batched_fista` on the bare operator."""
        a, ys = batch_problem["a"], batch_problem["ys"]
        lams = batched_lambda_from_fraction(a, ys, 0.05)
        kwargs = dict(max_iterations=200, tolerance=1e-4)
        solver = BatchedFista(a, lipschitz=batch_problem["lipschitz"])
        cached = solver.solve(ys, lams, **kwargs)
        bare = batched_fista(
            a, ys, lams, lipschitz=batch_problem["lipschitz"], **kwargs
        )
        np.testing.assert_array_equal(cached.coefficients, bare.coefficients)
        np.testing.assert_array_equal(cached.iterations, bare.iterations)

    def test_width_changes_between_solves_match_fresh_solvers(
        self, batch_problem
    ):
        """One solver fed wide, narrow, then wide blocks gives each
        block the bits a solver of its own gives it."""
        a, ys = batch_problem["a"], batch_problem["ys"]
        lip = batch_problem["lipschitz"]
        shared = BatchedFista(a, lipschitz=lip)
        for block in (ys, ys[:, :2], ys):
            got = shared.solve(block, 0.5, max_iterations=60, tolerance=1e-4)
            alone = BatchedFista(a, lipschitz=lip).solve(
                block, 0.5, max_iterations=60, tolerance=1e-4
            )
            assert got.coefficients.shape == (a.shape[1], block.shape[1])
            np.testing.assert_array_equal(
                got.coefficients, alone.coefficients
            )
            np.testing.assert_array_equal(got.iterations, alone.iterations)

    def test_alternating_precision_solves_match_lone_solves(
        self, batch_problem
    ):
        """The hybrid cadence end to end: float32 / float64 / float32
        blocks run back to back give the bits each gives run alone."""
        a64 = np.asarray(batch_problem["a"], dtype=np.float64)
        ys64 = np.asarray(batch_problem["ys"], dtype=np.float64)
        lams = batched_lambda_from_fraction(a64, ys64, 0.05)
        kwargs = dict(
            max_iterations=200,
            tolerance=1e-4,
            lipschitz=batch_problem["lipschitz"],
        )
        legs = {
            np.float32: (a64.astype(np.float32), ys64.astype(np.float32)),
            np.float64: (a64, ys64),
        }
        alone = {
            dtype: batched_fista(a, ys, lams, **kwargs)
            for dtype, (a, ys) in legs.items()
        }
        for dtype in (np.float32, np.float64, np.float32):
            a, ys = legs[dtype]
            got = batched_fista(a, ys, lams, **kwargs)
            assert got.coefficients.dtype == dtype
            np.testing.assert_array_equal(
                got.coefficients, alone[dtype].coefficients
            )
            np.testing.assert_array_equal(
                got.iterations, alone[dtype].iterations
            )

    def test_earlier_result_survives_a_later_solve(self, batch_problem):
        """A result owns its arrays: a later solve on the same solver
        writes none of them."""
        solver = BatchedFista(
            batch_problem["a"], lipschitz=batch_problem["lipschitz"]
        )
        ys = batch_problem["ys"]
        first = solver.solve(ys, 0.5, max_iterations=30, tolerance=1e-4)
        kept = (first.coefficients.copy(), first.iterations.copy())
        solver.solve(-2.0 * ys, 0.5, max_iterations=30, tolerance=1e-4)
        np.testing.assert_array_equal(first.coefficients, kept[0])
        np.testing.assert_array_equal(first.iterations, kept[1])

    def test_solve_leaves_the_solver_unchanged(self, batch_problem):
        """The solver holds only read-only state: a solve rebinds no
        attribute and writes neither the operator nor its transpose."""
        solver = BatchedFista(
            batch_problem["a"], lipschitz=batch_problem["lipschitz"]
        )
        before = {key: id(value) for key, value in vars(solver).items()}
        operator = solver.operator.copy()
        transpose = solver._dense_t.copy()
        solver.solve(batch_problem["ys"], 0.5, max_iterations=30)
        assert {key: id(value) for key, value in vars(solver).items()} == (
            before
        )
        np.testing.assert_array_equal(solver.operator, operator)
        np.testing.assert_array_equal(solver._dense_t, transpose)

    def test_float32_batch_keeps_dtype(self, batch_problem):
        solver = BatchedFista(
            np.asarray(batch_problem["a"], dtype=np.float32)
        )
        ys = np.asarray(batch_problem["ys"], dtype=np.float32)
        result = solver.solve(ys, 0.5, max_iterations=20, tolerance=1e-4)
        assert result.coefficients.dtype == np.float32
