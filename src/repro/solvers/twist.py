"""TwIST — two-step iterative shrinkage/thresholding.

Bioucas-Dias & Figueiredo (2007), cited by the paper as one of the ISTA
accelerations.  Each step combines the previous two iterates:

    x_{t+1} = (1 - alpha) x_{t-1} + (alpha - beta) x_t
              + beta * S_lam( x_t + A^T (y - A x_t) )

with ``A`` rescaled to unit spectral norm.  The (alpha, beta) pair comes
from the standard rule driven by ``lam1``, a lower bound on the squared
singular-value spread; the default matches the reference implementation
for severely ill-posed problems.
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
from .lipschitz import power_iteration_norm
from .prox import soft_threshold


def twist_parameters(lam1: float) -> tuple[float, float]:
    """The canonical TwIST (alpha, beta) for an eigenvalue lower bound."""
    if not 0 < lam1 <= 1:
        raise SolverError(f"lam1 must be in (0, 1], got {lam1}")
    rho = (1.0 - lam1) / (1.0 + lam1)
    alpha = 2.0 / (1.0 + math.sqrt(1.0 - rho * rho))
    beta = alpha * 2.0 / (1.0 + lam1)
    return alpha, beta


def twist(
    a: np.ndarray,
    y: np.ndarray,
    lam: float,
    max_iterations: int = 2000,
    tolerance: float = 1e-4,
    lam1: float = 1e-4,
    x0: np.ndarray | None = None,
    track_objective: bool = False,
) -> SolverResult:
    """Solve ``min ||A alpha - y||_2^2 + lam ||alpha||_1`` by TwIST."""
    matrix = as_matrix(a)
    y = check_measurements(matrix, y)
    check_positive_finite("lam", lam)
    check_positive_finite("tolerance", tolerance)
    if max_iterations < 1:
        raise SolverError(f"max_iterations must be >= 1, got {max_iterations}")

    dtype = np.float32 if np.asarray(y).dtype == np.float32 else np.float64
    n = matrix.shape[1]

    # Rescale the problem so ||A|| = 1 (TwIST's convergence assumption).
    sigma = power_iteration_norm(matrix)
    if sigma <= 0:
        raise SolverError("operator has zero spectral norm")
    scale = 1.0 / sigma
    y_scaled = np.asarray(y, dtype=np.float64) * scale
    lam_scaled = lam * scale * scale

    alpha_step, beta_step = twist_parameters(lam1)

    if x0 is None:
        x_prev = np.zeros(n)
    else:
        x_prev = np.asarray(x0, dtype=np.float64).copy()
        if x_prev.shape != (n,):
            raise SolverError(
                f"x0 shape {x_prev.shape} does not match operator columns {n}"
            )
    x_curr = x_prev.copy()

    def matvec(v: np.ndarray) -> np.ndarray:
        return (matrix @ v) * scale

    def rmatvec(v: np.ndarray) -> np.ndarray:
        return (matrix.T @ v) * scale

    def objective(v: np.ndarray) -> float:
        fit = matrix @ v - np.asarray(y, dtype=np.float64)
        return float(np.dot(fit, fit) + lam * np.sum(np.abs(v)))

    history: list[float] = []
    iterations = 0
    converged = False
    stop_reason = "max_iterations"
    current_objective = objective(x_curr)

    for iteration in range(1, max_iterations + 1):
        iterations = iteration
        residual = y_scaled - matvec(x_curr)
        shrunk = soft_threshold(x_curr + rmatvec(residual), lam_scaled / 2.0)
        if iteration == 1:
            x_next = shrunk  # first step is plain IST
        else:
            x_next = (
                (1.0 - alpha_step) * x_prev
                + (alpha_step - beta_step) * x_curr
                + beta_step * shrunk
            )
            # monotone safeguard (the "MTwIST" rule): if the two-step
            # extrapolation increases the objective, fall back to IST
            if objective(x_next) > current_objective:
                x_next = shrunk

        current_objective = objective(x_next)
        if track_objective:
            history.append(current_objective)

        if relative_change(x_next, x_curr) < tolerance:
            x_prev, x_curr = x_curr, x_next
            converged = True
            stop_reason = "tolerance"
            break
        x_prev, x_curr = x_curr, x_next

    final_residual = float(np.linalg.norm(matrix @ x_curr - np.asarray(y)))
    return SolverResult(
        coefficients=x_curr.astype(dtype),
        iterations=iterations,
        converged=converged,
        stop_reason=stop_reason,
        residual_norm=final_residual,
        objective_history=history,
    )
