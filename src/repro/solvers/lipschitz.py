"""Lipschitz-constant estimation for the data-fidelity gradient.

FISTA's constant step size is ``1/L`` with ``L`` a Lipschitz constant of
``grad f``.  For ``f(alpha) = ||A alpha - y||_2^2`` (the paper's choice,
without the 1/2 factor), ``L = 2 * sigma_max(A)^2``.  The spectral norm
is estimated matrix-free by power iteration on ``A^T A``, the same
routine an embedded decoder runs once at start-up.

:func:`coefficient_lipschitz` refines that one constant into a
per-coefficient vector for operators whose top singular direction is
the signal's DC (the paper's sparse binary ``Phi`` has constant column
sums): a diagonal majorizer of ``2 A^T A`` that charges the outlier to
the few coefficients carrying it and lets every other one step at the
bulk spectrum's bound.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse.linalg import LinearOperator as _ScipyOperator
from scipy.sparse.linalg import eigsh

from ..errors import SolverError
from ..utils import rng_from
from ..wavelet.operator import LinearOperator
from .base import as_operator

#: power iteration and Lanczos both read the top eigenvalue from
#: below; every bound built on one is inflated by this factor
SAFETY = 1.02


def power_iteration_norm(
    a: LinearOperator | np.ndarray,
    iterations: int = 100,
    tolerance: float = 1e-7,
    seed: int = 7,
) -> float:
    """Estimate ``sigma_max(A)`` by power iteration on ``A^T A``."""
    operator = as_operator(a)
    if iterations < 1:
        raise SolverError(f"iterations must be >= 1, got {iterations}")
    n = operator.shape[1]
    v = rng_from(seed, "power-iteration", n).standard_normal(n)
    norm_v = np.linalg.norm(v)
    if norm_v == 0:
        raise SolverError("degenerate start vector")
    v /= norm_v
    previous = 0.0
    estimate = 0.0
    for _ in range(iterations):
        w = operator.rmatvec(operator.matvec(v))
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
    a: LinearOperator | np.ndarray,
    iterations: int = 100,
    tolerance: float = 1e-7,
    safety: float = SAFETY,
) -> float:
    """Lipschitz constant of ``grad ||A x - y||^2``, with a safety margin.

    Power iteration under-estimates the spectral norm from below, so a
    small multiplicative ``safety`` keeps the FISTA step valid.
    """
    if safety < 1.0:
        raise SolverError(f"safety must be >= 1, got {safety}")
    sigma = power_iteration_norm(a, iterations=iterations, tolerance=tolerance)
    return 2.0 * safety * sigma**2


def coefficient_lipschitz(
    dense: np.ndarray,
    dense_t: np.ndarray,
    synthesis: np.ndarray,
    lipschitz: float,
) -> np.ndarray:
    """Per-coefficient constants ``rows`` with ``diag(rows) >= 2 A^T A``.

    ``p = Psi^T 1 / ||Psi^T 1||`` is the signal's DC seen from the
    coefficient domain; its support is the *band* (for a periodized
    orthonormal wavelet basis, exactly the coarsest approximation
    coefficients).  Since ``p p^T <= I_band`` for a unit ``p`` supported
    on the band,

        2 A^T A  =  (2 A^T A - L p p^T) + L p p^T
                <=  L_bulk I + L I_band,

    with ``L_bulk`` the (safety-inflated) top eigenvalue of the deflated
    Gram, taken matrix-free by Lanczos — its top eigenvalues are
    clustered, which power iteration under-reads by more than
    :data:`SAFETY`.  When the sparse binary ``Phi`` makes DC the one
    outlier singular direction, ``L_bulk`` is several times below ``L``
    and every off-band coefficient may take that much longer a step.

    The split is kept only when it lowers the bound on most
    coefficients — the band is under half of them and ``L_bulk < L``;
    otherwise (no DC outlier, or a basis that smears DC over most
    coefficients) the uniform vector ``L`` comes back, and a solve
    with it is the scalar-``L`` solve.
    """
    n = dense.shape[1]
    uniform = np.full(n, lipschitz, dtype=np.float64)
    p = synthesis.T @ np.ones(synthesis.shape[0])
    band = np.abs(p) > np.sqrt(np.finfo(np.float64).eps) * np.abs(p).max()
    if not 0 < 2 * np.count_nonzero(band) < n:
        return uniform
    p = np.where(band, p, 0.0)
    p /= np.linalg.norm(p)

    def deflated_gram(v: np.ndarray) -> np.ndarray:
        return 2.0 * (dense_t @ (dense @ v)) - lipschitz * (p @ v) * p

    top = eigsh(
        _ScipyOperator((n, n), matvec=deflated_gram, dtype=np.float64),
        k=1,
        which="LA",
        v0=rng_from(7, "deflated-gram", n).standard_normal(n),
        tol=1e-6,
        return_eigenvectors=False,
    )
    bulk = SAFETY * float(top[0])
    if not 0.0 < bulk < lipschitz:
        return uniform
    return np.where(band, bulk + lipschitz, bulk)
