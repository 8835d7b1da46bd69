"""FISTA — fast iterative shrinkage-thresholding (Beck & Teboulle 2009).

This is the paper's reconstruction algorithm (Section II-B), with the
exact constant-step schedule reproduced from the paper's listing:

    Input: L, a Lipschitz constant of grad f
    Step 0:  y_1 = alpha_0,  t_1 = 1
    Step k:  alpha_k  = prox_{1/L}(g)( y_k - (1/L) grad f(y_k) )
             t_{k+1}  = (1 + sqrt(1 + 4 t_k^2)) / 2
             y_{k+1}  = alpha_k + ((t_k - 1)/t_{k+1}) (alpha_k - alpha_{k-1})

with ``f(alpha) = ||A alpha - y||_2^2`` and ``g = lambda ||.||_1``, whose
prox is plain soft thresholding.  Convergence of the objective is
O(1/k^2) versus O(1/k) for ISTA.

The iterates keep the working dtype: float32 measurements give float32
iterates, steps and thresholds, float64 the Matlab reference (Figure 6
compares the two).  The matrix products are not 32-bit: ``A`` is rounded
to float32 and then held in float64, so each product runs in float64
and its result is rounded back to float32.  That is the arithmetic the
figures 6-8 float32 leg was measured with; true float32 products would
move those figures, so it is kept.
"""

from __future__ import annotations

import math

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


def lambda_from_fraction(a: np.ndarray, y: np.ndarray, fraction: float) -> float:
    """Regularization weight as a fraction of ``||A^T y||_inf``.

    ``lambda >= 2 ||A^T y||_inf`` makes the zero vector optimal (for the
    ``||A alpha - y||^2`` fidelity), so meaningful fractions live well
    below 1; the system default is 0.05.
    """
    check_positive_finite("fraction", fraction)
    correlation = float(np.max(np.abs(as_matrix(a).T @ np.asarray(y))))
    if correlation == 0:
        return fraction  # all-zero measurements: any positive lambda works
    return fraction * correlation


def fista(
    a: np.ndarray,
    y: np.ndarray,
    lam: float,
    max_iterations: int = 2000,
    tolerance: float = 1e-4,
    lipschitz: float | None = None,
    x0: np.ndarray | None = None,
    track_objective: bool = False,
) -> SolverResult:
    """Solve ``min_alpha ||A alpha - y||_2^2 + lam ||alpha||_1`` by FISTA.

    Parameters
    ----------
    a:
        System matrix ``A = Phi Psi``, ``(m, n)``.
    y:
        Measurement vector.
    lam:
        l1 weight ``lambda`` (absolute; see :func:`lambda_from_fraction`).
    max_iterations:
        Iteration cap — the decoder's real-time budget (2000 for the
        optimized iPhone build, 800 without NEON optimizations).
    tolerance:
        Stop when the relative iterate change falls below this value.
    lipschitz:
        ``L``; estimated by power iteration when omitted.
    x0:
        Warm start (the previous packet's solution in streaming use).
    track_objective:
        Record the objective value per iteration (costs one extra
        matvec per iteration; off in production).
    """
    dtype = np.float32 if np.asarray(y).dtype == np.float32 else np.float64
    # round A to the working precision (as the batched path does), then
    # hold it in float64: the float32 leg's products run in float64 and
    # are rounded back below (see the module docstring)
    matrix = as_matrix(np.asarray(a, dtype=dtype))
    y = check_measurements(matrix, y)
    check_positive_finite("lam", lam)
    if max_iterations < 1:
        raise SolverError(f"max_iterations must be >= 1, got {max_iterations}")
    check_positive_finite("tolerance", tolerance)

    y = np.asarray(y, dtype=dtype)
    n = matrix.shape[1]

    if lipschitz is None:
        lipschitz = lipschitz_constant(matrix)
    check_positive_finite("lipschitz", lipschitz)
    step = dtype(1.0 / lipschitz)
    threshold = dtype(lam / lipschitz)

    if x0 is None:
        alpha_prev = np.zeros(n, dtype=dtype)
    else:
        alpha_prev = np.asarray(x0, dtype=dtype).copy()
        if alpha_prev.shape != (n,):
            raise SolverError(
                f"x0 shape {alpha_prev.shape} does not match operator columns {n}"
            )
    momentum = alpha_prev.copy()
    t_k = 1.0

    history: list[float] = []
    iterations = 0
    converged = False
    stop_reason = "max_iterations"
    alpha = alpha_prev

    for iteration in range(1, max_iterations + 1):
        iterations = iteration
        # float64 products; the casts round them to float32 on that leg
        residual = np.asarray(matrix @ momentum, dtype=dtype) - y
        gradient = 2.0 * np.asarray(matrix.T @ residual, dtype=dtype)
        alpha = soft_threshold(momentum - step * gradient, threshold)

        t_next = (1.0 + math.sqrt(1.0 + 4.0 * t_k * t_k)) / 2.0
        momentum = alpha + dtype((t_k - 1.0) / t_next) * (alpha - alpha_prev)
        t_k = t_next

        if track_objective:
            fit = matrix @ alpha - y
            history.append(
                float(np.dot(fit, fit) + lam * np.sum(np.abs(alpha)))
            )

        if relative_change(alpha, alpha_prev) < tolerance:
            converged = True
            stop_reason = "tolerance"
            alpha_prev = alpha
            break
        alpha_prev = alpha

    final_residual = float(np.linalg.norm(matrix @ alpha - y))
    return SolverResult(
        coefficients=alpha,
        iterations=iterations,
        converged=converged,
        stop_reason=stop_reason,
        residual_norm=final_residual,
        objective_history=history,
    )
