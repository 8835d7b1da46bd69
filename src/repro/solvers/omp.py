"""Orthogonal matching pursuit (Tropp 2004) — the greedy baseline.

Selects the column most correlated with the residual, re-solves least
squares on the active support, and repeats until the residual is small
or the sparsity budget is exhausted.  Per-iteration cost grows with the
support (a dense least-squares solve), which is why the paper dismisses
greedy approaches for the embedded decoder.
"""

from __future__ import annotations

import numpy as np

from ..errors import SolverError
from .base import SolverResult, as_matrix, check_measurements


def omp(
    a: np.ndarray,
    y: np.ndarray,
    sparsity: int | None = None,
    residual_tolerance: float = 1e-6,
    max_iterations: int | None = None,
) -> SolverResult:
    """Greedy solve of ``y ~ A alpha`` with at most ``sparsity`` nonzeros.

    Parameters
    ----------
    a:
        System matrix ``A`` (OMP needs column access).
    y:
        Measurement vector.
    sparsity:
        Maximum support size; defaults to ``m // 4``.
    residual_tolerance:
        Stop when ``||r|| <= residual_tolerance * ||y||``.
    max_iterations:
        Alias cap on greedy steps (defaults to ``sparsity``).
    """
    dense = as_matrix(a)
    y = np.asarray(check_measurements(dense, y), dtype=np.float64)
    m, n = dense.shape
    if sparsity is None:
        sparsity = max(1, m // 4)
    if not 0 < sparsity <= m:
        raise SolverError(f"sparsity must be in (0, {m}], got {sparsity}")
    if max_iterations is None:
        max_iterations = sparsity

    norms = np.linalg.norm(dense, axis=0)
    norms = np.where(norms == 0, 1.0, norms)

    support: list[int] = []
    residual = y.copy()
    y_norm = float(np.linalg.norm(y))
    coefficients = np.zeros(n)
    solution: np.ndarray = np.zeros(0)
    iterations = 0
    stop_reason = "max_iterations"
    converged = False

    if y_norm == 0:
        return SolverResult(
            coefficients=coefficients,
            iterations=0,
            converged=True,
            stop_reason="residual",
            residual_norm=0.0,
        )

    for _ in range(min(max_iterations, sparsity)):
        iterations += 1
        correlation = np.abs(dense.T @ residual) / norms
        correlation[support] = -np.inf
        best = int(np.argmax(correlation))
        support.append(best)
        submatrix = dense[:, support]
        solution, *_ = np.linalg.lstsq(submatrix, y, rcond=None)
        residual = y - submatrix @ solution
        if float(np.linalg.norm(residual)) <= residual_tolerance * y_norm:
            converged = True
            stop_reason = "residual"
            break

    if support:
        coefficients[support] = solution
    return SolverResult(
        coefficients=coefficients,
        iterations=iterations,
        converged=converged,
        stop_reason=stop_reason,
        residual_norm=float(np.linalg.norm(residual)),
    )
