"""Matrix-free linear operators for the CS reconstruction problem.

FISTA only needs two primitives from the system operator ``A = Phi Psi``:
``matvec`` (``alpha -> Phi(Psi alpha)``) and ``rmatvec``
(``r -> Psi^T(Phi^T r)``).  Implementing them as composed fast transforms
is the paper's contribution (1): no large dense matrix is ever formed on
either the encoder or the decoder.

For laptop-scale numerical sweeps a cached dense materialization
(:meth:`LinearOperator.to_dense`) is often faster than Python-level
transform composition; solvers accept either representation.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from .dwt import WaveletTransform


class LinearOperator(ABC):
    """Minimal linear-operator interface used by the solvers."""

    shape: tuple[int, int]

    @abstractmethod
    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Apply the operator: ``y = A x``."""

    @abstractmethod
    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        """Apply the adjoint: ``x = A^T y``."""

    def to_dense(self) -> np.ndarray:
        """Materialize as a dense matrix (column-by-column by default)."""
        rows, cols = self.shape
        dense = np.empty((rows, cols), dtype=np.float64)
        basis = np.zeros(cols, dtype=np.float64)
        for j in range(cols):
            basis[j] = 1.0
            dense[:, j] = self.matvec(basis)
            basis[j] = 0.0
        return dense

    def __matmul__(self, other: "LinearOperator") -> "ComposedOperator":
        return ComposedOperator(self, other)


class DenseOperator(LinearOperator):
    """Wrap a dense or scipy-sparse matrix as a :class:`LinearOperator`.

    scipy is imported only for an input that is not an ndarray.
    """

    def __init__(self, matrix) -> None:
        self._sparse = False
        if not isinstance(matrix, np.ndarray):
            import scipy.sparse

            self._sparse = scipy.sparse.issparse(matrix)
        if self._sparse:
            self._matrix = matrix.tocsr()
        else:
            self._matrix = np.asarray(matrix, dtype=np.float64)
        self.shape = (int(self._matrix.shape[0]), int(self._matrix.shape[1]))

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return self._matrix @ x

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        return self._matrix.T @ y

    def to_dense(self) -> np.ndarray:
        if self._sparse:
            return np.asarray(self._matrix.todense(), dtype=np.float64)
        return np.asarray(self._matrix, dtype=np.float64)


class WaveletSynthesisOperator(LinearOperator):
    """``Psi``: wavelet coefficients to time-domain signal (orthonormal)."""

    def __init__(self, transform: WaveletTransform) -> None:
        self.transform = transform
        self.shape = (transform.n, transform.n)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return self.transform.inverse(x)

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        return self.transform.forward(y)

    def to_dense(self) -> np.ndarray:
        return self.transform.synthesis_matrix()


class ComposedOperator(LinearOperator):
    """Composition ``A = left @ right`` applied factor by factor."""

    def __init__(self, left: LinearOperator, right: LinearOperator) -> None:
        if left.shape[1] != right.shape[0]:
            raise ValueError(
                f"cannot compose shapes {left.shape} and {right.shape}"
            )
        self.left = left
        self.right = right
        self.shape = (left.shape[0], right.shape[1])

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return self.left.matvec(self.right.matvec(x))

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        return self.right.rmatvec(self.left.rmatvec(y))

    def to_dense(self) -> np.ndarray:
        return self.left.to_dense() @ self.right.to_dense()
