"""ISTA — plain iterative shrinkage-thresholding (Daubechies et al. 2004).

The paper's baseline: identical per-iteration cost to FISTA (one forward
and one adjoint product with ``A`` plus a soft threshold) but O(1/k)
objective convergence, which the solver-comparison benchmark shows as
"notoriously slow" exactly like Section II-B says.
"""

from __future__ import annotations

import numpy as np

from ..errors import SolverError
from .base import (
    SolverResult,
    as_matrix,
    check_measurements,
    check_positive_finite,
    relative_change,
)
from .lipschitz import lipschitz_constant
from .prox import soft_threshold


def ista(
    a: np.ndarray,
    y: np.ndarray,
    lam: float,
    max_iterations: int = 2000,
    tolerance: float = 1e-4,
    lipschitz: float | None = None,
    x0: np.ndarray | None = None,
    track_objective: bool = False,
) -> SolverResult:
    """Solve ``min ||A alpha - y||_2^2 + lam ||alpha||_1`` by ISTA."""
    matrix = as_matrix(a)
    y = check_measurements(matrix, y)
    check_positive_finite("lam", lam)
    if max_iterations < 1:
        raise SolverError(f"max_iterations must be >= 1, got {max_iterations}")
    check_positive_finite("tolerance", tolerance)

    dtype = np.float32 if np.asarray(y).dtype == np.float32 else np.float64
    y = np.asarray(y, dtype=dtype)
    n = matrix.shape[1]

    if lipschitz is None:
        lipschitz = lipschitz_constant(matrix)
    check_positive_finite("lipschitz", lipschitz)
    step = dtype(1.0 / lipschitz)
    threshold = dtype(lam / lipschitz)

    if x0 is None:
        alpha = np.zeros(n, dtype=dtype)
    else:
        alpha = np.asarray(x0, dtype=dtype).copy()
        if alpha.shape != (n,):
            raise SolverError(
                f"x0 shape {alpha.shape} does not match operator columns {n}"
            )

    history: list[float] = []
    iterations = 0
    converged = False
    stop_reason = "max_iterations"

    for iteration in range(1, max_iterations + 1):
        iterations = iteration
        residual = matrix @ alpha - y
        gradient = 2.0 * (matrix.T @ residual)
        new_alpha = soft_threshold(alpha - step * gradient.astype(dtype), threshold)

        if track_objective:
            fit = matrix @ new_alpha - y
            history.append(
                float(np.dot(fit, fit) + lam * np.sum(np.abs(new_alpha)))
            )

        if relative_change(new_alpha, alpha) < tolerance:
            alpha = new_alpha
            converged = True
            stop_reason = "tolerance"
            break
        alpha = new_alpha

    final_residual = float(np.linalg.norm(matrix @ alpha - y))
    return SolverResult(
        coefficients=alpha,
        iterations=iterations,
        converged=converged,
        stop_reason=stop_reason,
        residual_norm=final_residual,
        objective_history=history,
    )
