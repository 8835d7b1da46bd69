"""Scatter/gather application of the sparse binary sensing matrix.

The paper's ``Phi`` has exactly ``d`` nonzeros per column, all equal to
``1/sqrt(d)`` — applying it (or its transpose) is an index gather plus a
segmented sum, not a GEMM.  This module turns the CSR structure already
living in :class:`~repro.sensing.sparse_binary.SparseBinaryMatrix` into
an allocation-free batched kernel: ``apply`` computes ``Phi @ S`` for an
``(n, B)`` signal block via one ``np.take`` gather and one
``np.add.reduceat`` segmented reduction over the CSR row segments.

The kernel sums the *unscaled* 0/1 pattern first and multiplies by the
common ``1/sqrt(d)`` once at the end.  That ordering is a numerical
contract the equivalence harness relies on: for integer-valued inputs
the pattern sums are exact in any association order, so the gather path
is bit-identical to a dense pattern GEMM followed by the same single
scale multiply — regardless of how BLAS associates its partial sums.
For general float inputs the two paths agree to a few ulps (each value
is touched by exactly ``d`` additions).

Where this pays on the decode hot path: the system operator
``A = Phi Psi`` is dense (``Psi`` is a dense orthonormal synthesis
basis), so the FISTA *iteration* keeps its fused dense GEMM pair — but
every place that applies ``Phi`` alone (the hybrid-precision residual
gate checking ``||y - Phi s||`` on synthesized signals, measurement
re-checks, diagnostics) costs ``n*d`` adds instead of an ``m*n`` GEMM,
about 20x less work at the paper point.

:class:`StructuredOperator` packages the factored view for the solver:
the sparse ``Phi`` kernels, the dense ``Psi`` in both precisions, the
fused dense ``A`` and its Lipschitz constant in float64, and the cached
resolvent pairs the float32 ADMM leg iterates against.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

import numpy as np

from ..errors import SolverError
from .base import check_positive_finite
from .lipschitz import lipschitz_constant

#: resolvent pairs kept per operator (2 MB each at the paper point):
#: one per distinct block-median ``lam``, so a steady fleet holds one
#: and node-supplied ``lam`` values cannot pin more than this many
ADMM_PAIR_CACHE_SIZE = 4


class SparsePhiApply:
    """Batched ``Phi`` products from the CSR index structure.

    All kernels accept preallocated ``out``/``gather`` buffers (see
    :meth:`~repro.solvers.batched.BatchWorkspace.arena`) so steady-state
    callers allocate nothing per batch; buffers are allocated on the
    fly when omitted (convenience paths, tests).
    """

    def __init__(self, matrix) -> None:
        self.m, self.n = matrix.shape
        self.d = int(matrix.d)
        #: the common nonzero value ``1/sqrt(d)``, applied as one final
        #: multiply after the exact pattern sum (the bit-identity
        #: contract of the module docstring)
        self.scale = float(matrix.scale)
        # forward CSR: row segments of column indices into the signal
        indptr = np.asarray(matrix.indptr, dtype=np.intp)
        self.gather_index = np.ascontiguousarray(matrix.indices, dtype=np.intp)
        self.nnz = int(self.gather_index.size)
        # reduceat over possibly-empty segments: a mid-array empty row
        # makes reduceat *repeat* a neighbour's element (zeroed after
        # the reduction), but a *trailing* empty run starts at nnz —
        # out of bounds, and clamping it would truncate the preceding
        # row's segment end.  Instead reduceat covers only the rows
        # before the trailing run (the last one sums to the end of the
        # gather buffer) and the tail is zeroed with the other empties.
        self.reduce_rows = int(
            np.searchsorted(indptr[:-1], self.nnz, side="left")
        )
        self.segment_starts = np.ascontiguousarray(
            indptr[: self.reduce_rows], dtype=np.intp
        )
        self.empty_rows = np.flatnonzero(indptr[:-1] == indptr[1:])

    # ------------------------------------------------------------------
    def _check(self, block: np.ndarray, rows: int, label: str) -> np.ndarray:
        block = np.asarray(block)
        if block.ndim != 2 or block.shape[0] != rows:
            raise SolverError(
                f"{label} must have shape ({rows}, B), got {block.shape}"
            )
        return block

    def apply(
        self,
        signals: np.ndarray,
        out: np.ndarray | None = None,
        gather: np.ndarray | None = None,
    ) -> np.ndarray:
        """``Phi @ signals`` for an ``(n, B)`` block -> ``(m, B)``."""
        signals = self._check(signals, self.n, "signals")
        width = signals.shape[1]
        if gather is None:
            gather = np.empty((self.nnz, width), dtype=signals.dtype)
        if out is None:
            out = np.empty((self.m, width), dtype=signals.dtype)
        np.take(signals, self.gather_index, axis=0, out=gather)
        if self.reduce_rows:
            np.add.reduceat(
                gather,
                self.segment_starts,
                axis=0,
                out=out[: self.reduce_rows],
            )
        if self.reduce_rows < self.m:
            out[self.reduce_rows :] = 0
        if self.empty_rows.size:
            out[self.empty_rows] = 0
        out *= signals.dtype.type(self.scale)
        return out

    def residual(
        self,
        signals: np.ndarray,
        ys: np.ndarray,
        out: np.ndarray | None = None,
        gather: np.ndarray | None = None,
    ) -> np.ndarray:
        """``Phi @ signals - ys`` -> ``(m, B)`` (the polish gate's input)."""
        out = self.apply(signals, out=out, gather=gather)
        out -= ys
        return out


class StructuredOperator:
    """The factored system operator ``A = Phi Psi``, both precisions.

    Bundles everything the hybrid-precision solve path needs:

    - ``phi``: the :class:`SparsePhiApply` gather kernels;
    - ``psi64``/``psi32``: the dense synthesis basis (``Psi``-side ops
      stay dense GEMM — ``Psi`` is a dense orthonormal matrix, so there
      is no structure to gather);
    - ``dense64`` (+ contiguous transpose): the fused ``A`` the
      float64 FISTA legs run their GEMM pair against;
    - ``lipschitz``: the float64 FISTA step constant;
    - :meth:`admm_pair`: the float32 fast leg's cached resolvent.
    """

    def __init__(
        self,
        matrix,
        synthesis: np.ndarray,
        dense: np.ndarray | None = None,
        lipschitz: float | None = None,
    ) -> None:
        self.phi = SparsePhiApply(matrix)
        self.psi64 = np.ascontiguousarray(synthesis, dtype=np.float64)
        if self.psi64.shape[0] != self.phi.n:
            raise SolverError(
                f"synthesis rows {self.psi64.shape[0]} do not match "
                f"Phi columns {self.phi.n}"
            )
        self.psi32 = self.psi64.astype(np.float32)
        if dense is None:
            dense = matrix.product(self.psi64)
        self.dense64 = np.ascontiguousarray(dense, dtype=np.float64)
        self.dense64_t = np.ascontiguousarray(self.dense64.T)
        self.lipschitz = (
            lipschitz
            if lipschitz is not None
            else lipschitz_constant(self.dense64)
        )
        check_positive_finite("lipschitz", self.lipschitz)
        self._admm_pairs: OrderedDict[float, tuple] = OrderedDict()
        self._lock = threading.Lock()

    @property
    def m(self) -> int:
        """Measurement dimension (rows of ``Phi``)."""
        return self.phi.m

    @property
    def n_coefficients(self) -> int:
        """Wavelet-domain dimension (columns of ``A``)."""
        return self.dense64.shape[1]

    @property
    def n_samples(self) -> int:
        """Time-domain dimension (rows of ``Psi``)."""
        return self.psi64.shape[0]

    def admm_pair(self, rho: float) -> tuple[np.ndarray, np.ndarray]:
        """``(P, R^T)`` of :func:`~repro.solvers.batched.batched_admm`.

        ``P = rho (2 A^T A + rho I)^-1`` as ``(n, n)`` float32 and the
        transpose of ``R = 2 (2 A^T A + rho I)^-1 A^T`` as ``(m, n)``
        float64, through the ``m x m`` system of the push-through
        identity: with ``K = A A^T + (rho / 2) I``, ``R^T = K^-1 A``
        and ``P = I - R A`` — never the ``(n, n)`` Gram or its inverse.
        Pairs are kept least-recently-used up to
        :data:`ADMM_PAIR_CACHE_SIZE`; a rebuilt pair is bit-identical.
        Read and built under a lock: concurrent first solves build one.
        """
        with self._lock:
            pair = self._admm_pairs.get(rho)
            if pair is not None:
                self._admm_pairs.move_to_end(rho)
                return pair
            kernel = self.dense64 @ self.dense64_t
            kernel.flat[:: self.m + 1] += rho / 2.0
            ridge_t64 = np.linalg.solve(kernel, self.dense64)
            del kernel
            resolvent = ridge_t64.T @ self.dense64
            np.negative(resolvent, out=resolvent)
            resolvent.flat[:: self.n_coefficients + 1] += 1.0
            pair = (resolvent.astype(np.float32), ridge_t64)
            if len(self._admm_pairs) >= ADMM_PAIR_CACHE_SIZE:
                self._admm_pairs.popitem(last=False)
            self._admm_pairs[rho] = pair
            return pair

    def synthesis(self, dtype: np.dtype | type) -> np.ndarray:
        """Dense ``Psi`` in the requested precision."""
        return self.psi32 if np.dtype(dtype) == np.float32 else self.psi64
