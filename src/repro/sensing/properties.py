"""Diagnostics on sensing matrices: column norms and mutual coherence.

The paper justifies sparse binary sensing through the RIP-p theory of
Berinde et al.; the sensing ablation reports bounded mutual coherence
as the practical proxy.
"""

from __future__ import annotations

import numpy as np


def column_norms(matrix: np.ndarray) -> np.ndarray:
    """l2 norm of every column."""
    return np.linalg.norm(np.asarray(matrix, dtype=np.float64), axis=0)


def mutual_coherence(matrix: np.ndarray) -> float:
    """Largest normalized inner product between distinct columns."""
    a = np.asarray(matrix, dtype=np.float64)
    norms = column_norms(a)
    norms = np.where(norms == 0, 1.0, norms)
    gram = (a / norms).T @ (a / norms)
    np.fill_diagonal(gram, 0.0)
    return float(np.max(np.abs(gram)))
