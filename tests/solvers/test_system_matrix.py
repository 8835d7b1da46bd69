"""The system matrix every serial solver takes: a dense ``(m, n)`` array.

:func:`~repro.solvers.base.as_matrix` is the one entry check.  It holds
``A`` in float64 whatever dtype the caller passes, so a float32 operator
(the serial float32 leg of figs 6-8) is solved as its exact float64
widening, and it refuses anything that is not 2-D.
"""

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
    power_iteration_norm,
    twist,
)
from repro.solvers.base import as_matrix

LAM = 0.5

#: every serial entry point that takes ``A``, called with a small budget
SOLVERS = {
    "fista": lambda a, y: fista(a, y, LAM, max_iterations=50).coefficients,
    "lambda_from_fraction": lambda a, y: lambda_from_fraction(a, y, 0.01),
    "ista": lambda a, y: ista(a, y, LAM, max_iterations=50).coefficients,
    "twist": lambda a, y: twist(a, y, LAM, max_iterations=50).coefficients,
    "gpsr": lambda a, y: gpsr(a, y, LAM, max_iterations=50).coefficients,
    "omp": lambda a, y: omp(a, y, sparsity=6).coefficients,
    "basis_pursuit": lambda a, y: basis_pursuit(a, y).coefficients,
    "power_iteration_norm": lambda a, y: power_iteration_norm(a),
}


@pytest.fixture(scope="module")
def problem():
    """A 24x48 Gaussian problem with a 4-sparse solution."""
    rng = np.random.default_rng(11)
    a = rng.standard_normal((24, 48)) / np.sqrt(24)
    alpha = np.zeros(48)
    alpha[[3, 17, 30, 41]] = (2.0, -1.5, 1.0, 2.5)
    return a, a @ alpha


class TestAsMatrix:
    def test_float64_array_is_not_copied(self, rng):
        a = rng.standard_normal((3, 5))
        assert as_matrix(a) is a

    def test_float32_widened_exactly(self, rng):
        a32 = rng.standard_normal((3, 5)).astype(np.float32)
        widened = as_matrix(a32)
        assert widened.dtype == np.float64
        assert np.array_equal(widened, a32)

    def test_nested_lists_accepted(self):
        widened = as_matrix([[1, 2, 3], [4, 5, 6]])
        assert widened.dtype == np.float64
        assert widened.shape == (2, 3)

    def test_read_only_array_passes_through(self, rng):
        a = rng.standard_normal((3, 5))
        a.setflags(write=False)
        assert as_matrix(a) is a

    @pytest.mark.parametrize(
        "shape", [(), (6,), (2, 3, 4)], ids=["scalar", "vector", "cube"]
    )
    def test_non_2d_rejected(self, shape):
        with pytest.raises(SolverError, match="must be 2-D"):
            as_matrix(np.zeros(shape))


class TestEverySolverTakesTheDenseMatrix:
    @pytest.mark.parametrize("name", sorted(SOLVERS))
    def test_non_2d_system_rejected(self, name, problem):
        a, y = problem
        with pytest.raises(SolverError, match="must be 2-D"):
            SOLVERS[name](a.ravel(), y)

    @pytest.mark.parametrize("name", sorted(SOLVERS))
    def test_float32_system_solved_as_its_float64_widening(self, name, problem):
        a, y = problem
        a32 = a.astype(np.float32)
        assert np.array_equal(
            SOLVERS[name](a32, y), SOLVERS[name](a32.astype(np.float64), y)
        )

    @pytest.mark.parametrize("name", sorted(SOLVERS))
    def test_read_only_system_left_untouched(self, name, problem):
        """The decoder's cached operators are read-only arrays."""
        a, y = problem
        frozen = a.copy()
        frozen.setflags(write=False)
        assert np.array_equal(SOLVERS[name](frozen, y), SOLVERS[name](a, y))
        assert np.array_equal(frozen, a)
