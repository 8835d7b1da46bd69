"""Lipschitz-constant estimation for the data-fidelity gradient.

FISTA's constant step size is ``1/L`` with ``L`` a Lipschitz constant of
``grad f``.  For ``f(alpha) = ||A alpha - y||_2^2`` (the paper's choice,
without the 1/2 factor), ``L = 2 * sigma_max(A)^2``.  The spectral norm
is estimated by power iteration on ``A^T A`` — two matrix-vector
products per step, the same routine an embedded decoder runs once at
start-up.
"""

from __future__ import annotations

import numpy as np

from ..errors import SolverError
from ..utils import rng_from
from .base import as_matrix


def power_iteration_norm(
    a: np.ndarray,
    iterations: int = 100,
    tolerance: float = 1e-7,
    seed: int = 7,
) -> float:
    """Estimate ``sigma_max(A)`` by power iteration on ``A^T A``."""
    matrix = as_matrix(a)
    if iterations < 1:
        raise SolverError(f"iterations must be >= 1, got {iterations}")
    n = matrix.shape[1]
    v = rng_from(seed, "power-iteration", n).standard_normal(n)
    norm_v = np.linalg.norm(v)
    if norm_v == 0:
        raise SolverError("degenerate start vector")
    v /= norm_v
    previous = 0.0
    estimate = 0.0
    for _ in range(iterations):
        w = matrix.T @ (matrix @ v)
        norm_w = float(np.linalg.norm(w))
        if norm_w == 0:
            return 0.0
        v = w / norm_w
        estimate = np.sqrt(norm_w)
        if abs(estimate - previous) <= tolerance * max(estimate, 1.0):
            break
        previous = estimate
    return float(estimate)


def lipschitz_constant(
    a: np.ndarray,
    iterations: int = 100,
    tolerance: float = 1e-7,
    safety: float = 1.02,
) -> float:
    """Lipschitz constant of ``grad ||A x - y||^2``, with a safety margin.

    Power iteration under-estimates the spectral norm from below, so a
    small multiplicative ``safety`` keeps the FISTA step valid.
    """
    if safety < 1.0:
        raise SolverError(f"safety must be >= 1, got {safety}")
    sigma = power_iteration_norm(a, iterations=iterations, tolerance=tolerance)
    return 2.0 * safety * sigma**2
