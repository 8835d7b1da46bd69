"""Scatter/gather application of the sparse binary sensing matrix.

The paper's ``Phi`` has exactly ``d`` nonzeros per column, all equal to
``1/sqrt(d)`` — applying it (or its transpose) is an index gather plus a
segmented sum, not a GEMM.  This module turns the CSR structure already
living in :class:`~repro.sensing.sparse_binary.SparseBinaryMatrix` into
two allocation-free batched kernels:

- ``apply``: ``Phi @ S`` for an ``(n, B)`` signal block via one
  ``np.take`` gather and one ``np.add.reduceat`` segmented reduction
  over the CSR row segments;
- ``apply_transpose``: ``Phi^T @ R`` for an ``(m, B)`` residual block
  via the fixed-degree layout — every transpose row has exactly ``d``
  entries (``rows_per_column``), so a ``d``-step gather/accumulate loop
  with ``out=`` buffers does it without any indptr bookkeeping.

Both kernels sum the *unscaled* 0/1 pattern first and multiply by the
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
the sparse ``Phi`` kernels, the dense ``Psi`` in both precisions, and
the fused dense ``A``/``A^T`` pair in both precisions, sharing one
float64 Lipschitz constant and its per-coefficient refinement.
"""

from __future__ import annotations

import numpy as np

from ..errors import SolverError
from .lipschitz import coefficient_lipschitz, lipschitz_constant


class SparsePhiApply:
    """Batched ``Phi``/``Phi^T`` products from the CSR index structure.

    All kernels accept preallocated ``out``/``gather`` buffers (see
    :meth:`~repro.solvers.batched.BatchWorkspace.arena`) so steady-state
    callers allocate nothing per batch; buffers are allocated on the
    fly when omitted (convenience paths, tests).
    """

    def __init__(self, matrix) -> None:
        csr = matrix.sparse()
        self.m, self.n = csr.shape
        self.d = int(matrix.d)
        self.nnz = int(csr.nnz)
        #: the common nonzero value ``1/sqrt(d)``, applied as one final
        #: multiply after the exact pattern sum (the bit-identity
        #: contract of the module docstring)
        self.scale = float(matrix.scale)
        # forward CSR: row segments of column indices into the signal
        indptr = np.asarray(csr.indptr, dtype=np.intp)
        self.gather_index = np.ascontiguousarray(csr.indices, dtype=np.intp)
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
        # transpose layout: row j of Phi^T has exactly the d entries
        # rows_per_column[j]; one contiguous (n, d) gather table
        self.transpose_index = np.ascontiguousarray(
            matrix.rows_per_column, dtype=np.intp
        )

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

    def apply_transpose(
        self,
        resid: np.ndarray,
        out: np.ndarray | None = None,
        gather: np.ndarray | None = None,
    ) -> np.ndarray:
        """``Phi^T @ resid`` for an ``(m, B)`` block -> ``(n, B)``."""
        resid = self._check(resid, self.m, "resid")
        width = resid.shape[1]
        if out is None:
            out = np.empty((self.n, width), dtype=resid.dtype)
        if gather is None:
            gather = np.empty((self.n, width), dtype=resid.dtype)
        else:
            gather = gather.reshape(-1)[: self.n * width].reshape(
                self.n, width
            )
        # fixed-degree accumulation: d gathers, each adding one of the
        # d pattern entries of every transpose row at once
        # repro-lint: hot
        for k in range(self.d):
            np.take(resid, self.transpose_index[:, k], axis=0, out=gather)
            if k == 0:
                out[...] = gather
            else:
                out += gather
        out *= resid.dtype.type(self.scale)
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
    - ``dense64``/``dense32`` (+ contiguous transposes): the fused
      ``A`` the FISTA iteration runs its GEMM pair against;
    - ``lipschitz``: one float64 constant shared by both precisions
      (the step size is a float64 scalar either way);
    - ``coefficient_lipschitz``: the ``(n,)`` diagonal majorizer of
      :func:`~repro.solvers.lipschitz.coefficient_lipschitz` — the
      restarted float32 fast leg steps by it; constant ``lipschitz``
      when the operator has no DC outlier to split off.
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
            dense = matrix.sparse() @ self.psi64
        self.dense64 = np.ascontiguousarray(dense, dtype=np.float64)
        self.dense64_t = np.ascontiguousarray(self.dense64.T)
        self.dense32 = self.dense64.astype(np.float32)
        self.dense32_t = np.ascontiguousarray(self.dense32.T)
        self.lipschitz = (
            lipschitz
            if lipschitz is not None
            else lipschitz_constant(self.dense64)
        )
        if self.lipschitz <= 0:
            raise SolverError(
                f"lipschitz must be positive, got {self.lipschitz}"
            )
        self.coefficient_lipschitz = coefficient_lipschitz(
            self.dense64, self.dense64_t, self.psi64, self.lipschitz
        )

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

    def operator(self, dtype: np.dtype | type) -> np.ndarray:
        """The fused dense ``A`` in the requested precision."""
        return self.dense32 if np.dtype(dtype) == np.float32 else self.dense64

    def operator_t(self, dtype: np.dtype | type) -> np.ndarray:
        """Contiguous ``A^T`` in the requested precision."""
        return (
            self.dense32_t
            if np.dtype(dtype) == np.float32
            else self.dense64_t
        )

    def synthesis(self, dtype: np.dtype | type) -> np.ndarray:
        """Dense ``Psi`` in the requested precision."""
        return self.psi32 if np.dtype(dtype) == np.float32 else self.psi64
