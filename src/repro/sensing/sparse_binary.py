"""Sparse binary sensing (the paper's adopted approach 3).

``Phi`` has exactly ``d`` nonzero entries per column, each ``1/sqrt(d)``,
at row positions chosen pseudo-randomly (incoherence between columns).
Such matrices do not satisfy the classical RIP of Eq. (1) but do satisfy
the RIP-p property of Berinde et al. (Allerton 2008), which suffices for
sparse recovery; Figure 2 of the paper confirms no meaningful loss
against dense Gaussian sensing.

On the mote, measuring with this matrix costs only ``n * d`` integer
*additions* (the ``1/sqrt(d)`` scale is folded into the decoder), which
is what makes real-time CS possible on a 16-bit MCU: a 2-second packet
is CS-sampled in 82 ms.

The coordinator keeps the matrix as plain numpy CSR index arrays
(:attr:`~SparseBinaryMatrix.indptr`, :attr:`~SparseBinaryMatrix.indices`)
and forms every float product row by row in scipy's CSR order: row
``i`` is ``((0 + s*v[j0]) + s*v[j1]) + ...`` over its columns in
increasing order.  Numpy's ``add.reduce`` would sum pairwise along a
contiguous axis, so the products accumulate one slot of every row at a
time instead; the dense ``Phi Psi`` the decoder iterates against is
then bit-identical to ``csr_matrix @ Psi``.  scipy is imported only by
:meth:`~SparseBinaryMatrix.sparse`.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from ..errors import SensingError
from ..utils import check_integer_array, derive_seed
from .base import SensingMatrix
from .rng import XorShift32


#: row draws kept per process (~24 KB each at the paper point)
ROW_DRAW_CACHE_SIZE = 32


@functools.lru_cache(maxsize=ROW_DRAW_CACHE_SIZE)
def draw_rows(m: int, n: int, d: int, seed: int) -> np.ndarray:
    """The ``(n, d)`` read-only row indices of each column's ones.

    A pure function of its arguments, so it is drawn once per process
    and every matrix built on the same ``(m, n, d, seed)`` shares the
    one array; it is read-only, so no holder can change another's.
    """
    generator = XorShift32(derive_seed(seed, "sparse-binary", m, n, d))
    rows = np.empty((n, d), dtype=np.int32)
    pool = np.arange(m, dtype=np.int32)
    for column in range(n):
        # partial Fisher–Yates: first d entries become this column's rows
        for i in range(d):
            j = i + generator.next_below(m - i)
            pool[i], pool[j] = pool[j], pool[i]
        rows[column] = np.sort(pool[:d])
    rows.setflags(write=False)
    return rows


class SparseBinaryMatrix(SensingMatrix):
    """Sparse binary ``Phi``: ``d`` ones per column, value ``1/sqrt(d)``.

    Row positions are drawn with an embedded-style
    :class:`~repro.sensing.rng.XorShift32` partial Fisher–Yates shuffle,
    exactly reproducible on the node and the coordinator from the shared
    seed (the paper stores the same fixed matrix on both sides).  The
    draw (:func:`draw_rows`) runs once per process per ``(m, n, d,
    seed)``; each instance derives its CSR index arrays from it.
    """

    def __init__(self, m: int, n: int, d: int = 12, seed: int = 2011) -> None:
        super().__init__(m, n)
        if not 0 < d <= m:
            raise SensingError(f"d must satisfy 0 < d <= m={m}, got {d}")
        self.d = int(d)
        self.seed = int(seed)

        #: ``(n, d)`` array: the row indices of each column's ones
        rows = self.rows_per_column = draw_rows(
            self.m, self.n, self.d, self.seed
        )
        # a stable sort of the column-major draw by row lists each row's
        # columns in increasing order: the CSR layout
        flat = rows.ravel()
        self._indices = np.argsort(flat, kind="stable") // self.d
        counts = np.bincount(flat, minlength=self.m)
        self._indptr = np.concatenate(([0], np.cumsum(counts)))
        # slot table: column ``t`` of every row, or ``n`` (a zero pad
        # appended to the operand) where the row has fewer entries
        slot = np.arange(flat.size) - np.repeat(self._indptr[:-1], counts)
        self._slots = np.full((counts.max(), self.m), self.n, dtype=np.intp)
        self._slots[slot, np.repeat(np.arange(self.m), counts)] = self._indices
        for array in (self._indices, self._indptr, self._slots):
            array.setflags(write=False)

    # ------------------------------------------------------------------
    @property
    def indptr(self) -> np.ndarray:
        """CSR row pointers: row ``i`` is ``indptr[i]:indptr[i + 1]``."""
        return self._indptr

    @property
    def indices(self) -> np.ndarray:
        """CSR column indices, increasing within each row."""
        return self._indices

    @property
    def scale(self) -> float:
        """The common nonzero value ``1/sqrt(d)``."""
        return 1.0 / math.sqrt(self.d)

    def matrix(self) -> np.ndarray:
        dense = np.zeros((self.m, self.n))
        columns = np.repeat(np.arange(self.n), self.d)
        dense[self.rows_per_column.ravel(), columns] = self.scale
        return dense

    def sparse(self):
        """The CSR form as a ``scipy.sparse.csr_matrix`` (analysis and
        tests; the only method that imports scipy)."""
        import scipy.sparse

        data = np.full(self._indices.size, self.scale)
        return scipy.sparse.csr_matrix(
            (data, self._indices, self._indptr), shape=self.shape
        )

    def _row_sums(self, values: np.ndarray) -> np.ndarray:
        """Pattern row sums of ``values`` (``(n,)`` or ``(n, k)``), each
        row accumulated from zero over its columns in increasing order."""
        pad = np.zeros((1,) + values.shape[1:], dtype=values.dtype)
        padded = np.concatenate((values, pad))
        out = np.zeros((self.m,) + values.shape[1:], dtype=values.dtype)
        for slot in self._slots:
            out += padded[slot]
        return out

    def product(self, block: np.ndarray) -> np.ndarray:
        """``Phi @ block`` for an ``(n,)`` or ``(n, k)`` float block,
        bit-identical to scipy's CSR product (the module docstring's
        order).  ``build_resources`` forms the dense ``Phi Psi`` here."""
        block = np.asarray(block, dtype=np.float64)
        if block.ndim not in (1, 2) or block.shape[0] != self.n:
            raise SensingError(
                f"expected a block of {self.n} rows, got shape {block.shape}"
            )
        return self._row_sums(self.scale * block)

    def measure(self, x: np.ndarray) -> np.ndarray:
        """Float measurement using the sparse structure."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.n,):
            raise SensingError(f"expected signal shape ({self.n},), got {x.shape}")
        return self.product(x)

    def measure_integer(self, x: np.ndarray) -> np.ndarray:
        """Node-side integer measurement: pure accumulation, no scaling.

        ``y_int[i] = sum of x[j] over columns j whose d ones hit row i``.
        The decoder divides by ``sqrt(d)`` (equivalently scales its
        operator), so the mote never multiplies — this is the kernel the
        MSP430 executes in 82 ms per 2-second packet.

        Accumulates in int32 exactly as the firmware would; with 12-bit
        samples and typical row weights (``n*d/m``) the sums stay far
        below the int32 rails, and we check that explicitly.
        """
        x = check_integer_array(np.asarray(x), "x")
        if x.shape != (self.n,):
            raise SensingError(f"expected signal shape ({self.n},), got {x.shape}")
        accumulator = np.zeros(self.m, dtype=np.int64)
        np.add.at(
            accumulator,
            self.rows_per_column.ravel(),
            np.repeat(x.astype(np.int64), self.d),
        )
        if accumulator.max(initial=0) > 2**31 - 1 or accumulator.min(initial=0) < -(2**31):
            raise SensingError("integer measurement overflows 32-bit accumulator")
        return accumulator

    def measure_integer_batch(self, x: np.ndarray) -> np.ndarray:
        """Integer sensing of many windows at once: ``(B, n) -> (B, m)``.

        One slot-wise pass over the whole block replaces ``B``
        accumulation passes.  Integer arithmetic is exact, so every row
        equals ``measure_integer(x[b])`` bit for bit; the same 32-bit
        accumulator headroom check applies to the whole batch.
        """
        x = check_integer_array(np.asarray(x), "x")
        if x.ndim != 2 or x.shape[1] != self.n:
            raise SensingError(
                f"expected batch shape (B, {self.n}), got {x.shape}"
            )
        accumulator = self._row_sums(x.astype(np.int64).T).T
        if (
            accumulator.max(initial=0) > 2**31 - 1
            or accumulator.min(initial=0) < -(2**31)
        ):
            raise SensingError("integer measurement overflows 32-bit accumulator")
        return accumulator

    def additions_per_packet(self) -> int:
        """Integer additions per measured packet (``n * d``)."""
        return self.n * self.d

    def storage_bits(self) -> int:
        """Row-index storage: ``n*d`` indices of ``ceil(log2 m)`` bits."""
        index_bits = max(1, math.ceil(math.log2(self.m)))
        return self.n * self.d * index_bits
