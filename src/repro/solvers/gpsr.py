"""GPSR — gradient projection for sparse reconstruction.

Figueiredo, Nowak & Wright (2007), the gradient-projection family cited
in the paper's introduction.  The l1 problem is split into positive and
negative parts ``alpha = u - v`` with ``u, v >= 0``:

    min_{u,v>=0}  0.5 ||y - A(u - v)||^2 + tau 1^T u + tau 1^T v

and solved by projected gradient with a Barzilai–Borwein step and a
monotone backtracking safeguard (the "GPSR-BB monotone" variant).
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


def gpsr(
    a: np.ndarray,
    y: np.ndarray,
    lam: float,
    max_iterations: int = 2000,
    tolerance: float = 1e-4,
    step_min: float = 1e-30,
    step_max: float = 1e30,
    x0: np.ndarray | None = None,
    track_objective: bool = False,
) -> SolverResult:
    """Solve ``min 0.5||A alpha - y||^2 + lam ||alpha||_1`` by GPSR-BB.

    Note the 0.5 factor in the fidelity (GPSR's native convention); the
    equivalent FISTA problem uses ``lam_fista = 2 * lam``.
    """
    matrix = as_matrix(a)
    y = np.asarray(check_measurements(matrix, y), dtype=np.float64)
    check_positive_finite("lam", lam)
    check_positive_finite("tolerance", tolerance)
    if max_iterations < 1:
        raise SolverError(f"max_iterations must be >= 1, got {max_iterations}")

    n = matrix.shape[1]
    if x0 is None:
        x = np.zeros(n)
    else:
        x = np.asarray(x0, dtype=np.float64).copy()
        if x.shape != (n,):
            raise SolverError(
                f"x0 shape {x.shape} does not match operator columns {n}"
            )

    u = np.maximum(x, 0.0)
    v = np.maximum(-x, 0.0)

    def objective(u_: np.ndarray, v_: np.ndarray) -> float:
        r = matrix @ (u_ - v_) - y
        return 0.5 * float(np.dot(r, r)) + lam * float(np.sum(u_) + np.sum(v_))

    residual = matrix @ (u - v) - y
    gradient_x = matrix.T @ residual
    grad_u = gradient_x + lam
    grad_v = -gradient_x + lam

    step = 1.0
    history: list[float] = []
    iterations = 0
    converged = False
    stop_reason = "max_iterations"
    current_objective = objective(u, v)

    for iteration in range(1, max_iterations + 1):
        iterations = iteration
        x_old = u - v

        # Projected gradient candidate with BB step and backtracking.
        backtrack = step
        for _ in range(50):
            u_new = np.maximum(u - backtrack * grad_u, 0.0)
            v_new = np.maximum(v - backtrack * grad_v, 0.0)
            new_objective = objective(u_new, v_new)
            if new_objective <= current_objective + 1e-12:
                break
            backtrack *= 0.5
        else:
            stop_reason = "line_search_failed"
            break

        delta_u = u_new - u
        delta_v = v_new - v
        u, v = u_new, v_new
        current_objective = new_objective

        residual = matrix @ (u - v) - y
        gradient_x = matrix.T @ residual
        grad_u = gradient_x + lam
        grad_v = -gradient_x + lam

        # Barzilai–Borwein step for the next iteration:
        # step = (delta^T delta) / (delta^T B delta),  B delta computed
        # through one product with A on (delta_u - delta_v).
        delta_sq = float(np.dot(delta_u, delta_u) + np.dot(delta_v, delta_v))
        a_delta = matrix @ (delta_u - delta_v)
        curvature = float(np.dot(a_delta, a_delta))
        if curvature > 0:
            step = min(max(delta_sq / curvature, step_min), step_max)
        else:
            step = step_max

        if track_objective:
            history.append(current_objective)

        if relative_change(u - v, x_old) < tolerance:
            converged = True
            stop_reason = "tolerance"
            break

    x = u - v
    final_residual = float(np.linalg.norm(matrix @ x - y))
    return SolverResult(
        coefficients=x,
        iterations=iterations,
        converged=converged,
        stop_reason=stop_reason,
        residual_norm=final_residual,
        objective_history=history,
    )
