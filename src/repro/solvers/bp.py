"""Basis pursuit by linear programming (Chen, Donoho & Saunders 1999).

The interior-point family the paper rules out for embedded use.  The
equality-constrained problem

    min ||alpha||_1   subject to   A alpha = y

is recast as the LP ``min 1^T t`` with ``-t <= alpha <= t`` and solved
with :func:`scipy.optimize.linprog` (HiGHS).  The solver-comparison
benchmark uses it to quantify exactly *why* interior-point methods are
"computationally expensive ... which prevents the real-time
implementation on embedded platforms" (Section I).
"""

from __future__ import annotations

import numpy as np

from ..errors import SolverError
from .base import SolverResult, as_matrix, check_measurements


def basis_pursuit(
    a: np.ndarray,
    y: np.ndarray,
    tolerance: float = 1e-9,
) -> SolverResult:
    """Solve ``min ||alpha||_1 s.t. A alpha = y`` as a linear program.

    Variables are stacked ``z = [alpha; t]``; the LP is

        min 0^T alpha + 1^T t
        s.t.  A alpha = y,   alpha - t <= 0,   -alpha - t <= 0.
    """
    import scipy.optimize  # only this solver needs scipy

    dense = as_matrix(a)
    y = np.asarray(check_measurements(dense, y), dtype=np.float64)
    m, n = dense.shape

    cost = np.concatenate([np.zeros(n), np.ones(n)])
    equality_lhs = np.hstack([dense, np.zeros((m, n))])
    identity = np.eye(n)
    upper_lhs = np.hstack([identity, -identity])
    lower_lhs = np.hstack([-identity, -identity])
    inequality_lhs = np.vstack([upper_lhs, lower_lhs])
    inequality_rhs = np.zeros(2 * n)
    bounds = [(None, None)] * n + [(0, None)] * n

    outcome = scipy.optimize.linprog(
        cost,
        A_ub=inequality_lhs,
        b_ub=inequality_rhs,
        A_eq=equality_lhs,
        b_eq=y,
        bounds=bounds,
        method="highs",
        options={"presolve": True},
    )
    if not outcome.success:
        raise SolverError(f"basis pursuit LP failed: {outcome.message}")

    alpha = outcome.x[:n]
    residual = float(np.linalg.norm(dense @ alpha - y))
    converged = residual <= max(tolerance, 1e-6 * max(np.linalg.norm(y), 1.0))
    return SolverResult(
        coefficients=alpha,
        iterations=int(outcome.nit),
        converged=converged,
        stop_reason="lp_optimal",
        residual_norm=residual,
    )
