"""Batched FISTA: many measurement vectors solved as one matrix problem.

The serial decoder reconstructs one 2-second window at a time, so every
FISTA iteration is a pair of matrix-*vector* products plus Python-level
bookkeeping.  At scale (offline re-decodes, multi-lead Holter dumps, a
server decoding many patients) the same iteration can be written over a
stacked measurement matrix ``Y`` of shape ``(m, B)``:

    residual  = A @ Momentum - Y          # one GEMM instead of B GEMVs
    gradient  = 2 A^T residual            # ditto
    Alpha     = soft_threshold(Momentum - gradient / L, lam_b / L)

with a *per-column* regularization weight ``lam_b`` and a per-column
convergence mask: a column whose relative iterate change drops below the
tolerance is frozen (its result no longer updates and it leaves the
active set), so the batch performs exactly the iterations the serial
path would — column ``b`` of the batched solve follows the same iterate
sequence as ``fista(a, Y[:, b], lam_b)``, down to floating-point noise
in the BLAS kernels.

The momentum clock is per column: a ``(B,)`` vector of ages (steps
since the column's clock last read ``t = 1``) indexing the textbook
coefficient schedule ``(t_k - 1) / t_{k+1}``.  Plain FISTA never sets
a clock back, so every age is the iteration number and the loop reads
that one scalar — the textbook coefficient bit-for-bit, at the
textbook cost.  With ``restart=True`` (the hybrid backend's float32
fast leg — see :func:`structured_batched_fista`) a column whose
momentum points against its own progress, ``<mom_k - alpha_{k+1},
alpha_{k+1} - alpha_k> > 0`` (O'Donoghue & Candes' gradient test),
drops its momentum for that step and restarts its clock at ``t = 1``.
The test reads only the column's own iterates, so a column's restart
pattern never depends on which other columns share the batch beyond
BLAS rounding.

``L`` may be an ``(n,)`` vector — a diagonal majorizer ``diag(L) >=
2 A^T A`` — in which case coefficient ``i`` steps by ``1/L_i`` and
thresholds at ``lam_b/L_i``: the same loop on an ``(n, 1)`` step
column and an ``(n, B)`` threshold matrix.  The hybrid fast leg passes
the operator's :func:`~repro.solvers.lipschitz.coefficient_lipschitz`,
which keeps the DC outlier of the sparse binary ``Phi`` off every
coefficient that does not carry it.

Warm starts are supported through ``x0`` of shape ``(n, B)`` — e.g. the
previous batch's solutions when streaming chunk by chunk.
"""

from __future__ import annotations

import contextlib
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import SolverError
from ..wavelet.operator import LinearOperator
from .base import SolverResult
from .lipschitz import lipschitz_constant


def _as_dense(a: LinearOperator | np.ndarray) -> np.ndarray:
    """Materialize the system operator for GEMM-based iterations."""
    if isinstance(a, LinearOperator):
        return a.to_dense()
    array = np.asarray(a)
    if array.ndim != 2:
        raise SolverError(f"system operator must be 2-D, got shape {array.shape}")
    return array


def check_measurement_matrix(
    a: np.ndarray, ys: np.ndarray
) -> np.ndarray:
    """Validate a stacked measurement matrix ``(m, B)`` against ``A``."""
    ys = np.asarray(ys)
    if ys.ndim != 2:
        raise SolverError(
            f"ys must be 2-D (m, batch), got shape {ys.shape}"
        )
    if ys.shape[0] != a.shape[0]:
        raise SolverError(
            f"ys rows {ys.shape[0]} do not match operator rows {a.shape[0]}"
        )
    if ys.shape[1] == 0:
        raise SolverError("ys must contain at least one column")
    return ys


def batched_lambda_from_fraction(
    a: LinearOperator | np.ndarray,
    ys: np.ndarray,
    fraction: float | np.ndarray,
) -> np.ndarray:
    """Per-column regularization weights ``fraction_b * ||A^T y_b||_inf``.

    The batched twin of
    :func:`~repro.solvers.fista.lambda_from_fraction`: one GEMM computes
    every column's correlation at once.  All-zero columns get the bare
    fraction, matching the serial rule.  ``fraction`` may be a scalar
    shared by every column or a ``(B,)`` vector — a cross-stream batch
    (see :mod:`repro.fleet`) can mix streams configured with different
    ``lam`` fractions in one solve.
    """
    fraction = np.asarray(fraction, dtype=np.float64)
    if np.any(fraction <= 0):
        raise SolverError(f"fraction must be positive, got {fraction.min()}")
    dense = _as_dense(a)
    ys = check_measurement_matrix(dense, ys)
    if fraction.ndim not in (0, 1) or (
        fraction.ndim == 1 and fraction.shape[0] != ys.shape[1]
    ):
        raise SolverError(
            f"fraction shape {fraction.shape} does not match batch {ys.shape[1]}"
        )
    correlation = np.max(np.abs(dense.T @ ys), axis=0)
    return np.where(correlation == 0, fraction, fraction * correlation)


class BatchWorkspace:
    """Reusable per-(kind, dtype) arenas for batched solves.

    A fleet scheduler feeds a :class:`BatchedFista` a long sequence of
    measurement blocks; reallocating the per-iteration scratch arrays
    for every block is measurable overhead at small operator sizes.
    The workspace keeps one flat grow-only arena per ``(kind, dtype)``
    pair and hands out contiguous reshaped views into it:

    - a repeated request with the same shape and dtype returns the
      *same* view objects (steady-state serve allocates nothing);
    - a narrower request reuses the arena through a smaller view;
    - a different **dtype** gets its own arena — the hybrid-precision
      path alternates float32 iterate batches with float64 polish
      re-solves on one workspace, and each precision must keep its own
      correctly-typed buffers rather than thrash a single slot (or,
      worse, hand a stale-dtype buffer to the solver).

    Arenas are plain scratch: every kernel fully overwrites its buffer
    before reading it, so views may alias across requests of the same
    kind.  Buffers handed out here must never escape a solve — results
    returned to callers are always freshly allocated.
    """

    def __init__(self) -> None:
        #: flat backing store per (kind, dtype); grows, never shrinks
        self._arenas: dict[tuple[str, np.dtype], np.ndarray] = {}
        #: cached reshaped views keyed by ((kind, dtype), shape) so a
        #: repeated same-signature request returns identical objects
        self._views: dict[tuple, np.ndarray] = {}

    def arena(
        self, kind: str, shape: tuple[int, ...], dtype: np.dtype | type
    ) -> np.ndarray:
        """A contiguous ``shape`` view into the ``(kind, dtype)`` arena."""
        key = (kind, np.dtype(dtype))
        size = 1
        for extent in shape:
            size *= int(extent)
        flat = self._arenas.get(key)
        if flat is None or flat.size < size:
            flat = np.empty(max(size, 1), dtype=dtype)
            self._arenas[key] = flat
            for stale in [k for k in self._views if k[0] == key]:
                del self._views[stale]
        view_key = (key, tuple(shape))
        view = self._views.get(view_key)
        if view is None:
            view = flat[:size].reshape(shape)
            self._views[view_key] = view
        return view

    def buffers(
        self, m: int, n: int, width: int, dtype: np.dtype
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Return ``(resid (m,B), u (n,B), alpha (n,B), diff (n,B))``."""
        return (
            self.arena("resid", (m, width), dtype),
            self.arena("u", (n, width), dtype),
            self.arena("alpha", (n, width), dtype),
            self.arena("diff", (n, width), dtype),
        )


@dataclass
class BatchedSolverResult:
    """Per-column outcome of one batched reconstruction.

    Attributes
    ----------
    coefficients:
        ``(n, B)`` matrix; column ``b`` is the recovered ``alpha`` of
        measurement column ``b``.
    iterations:
        ``(B,)`` iterations each column actually executed before its
        convergence mask froze it (or the shared cap was hit).
    converged:
        ``(B,)`` boolean convergence flags.
    residual_norms:
        ``(B,)`` final ``||A alpha_b - y_b||_2``.
    restarts:
        ``(B,)`` momentum restarts each column took before it froze
        (all zero unless the solve ran with ``restart=True``).
    total_iterations:
        Iterations of the batched loop itself (``max(iterations)``).
    """

    coefficients: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray
    residual_norms: np.ndarray
    restarts: np.ndarray
    total_iterations: int
    stop_reasons: list[str] = field(default_factory=list)

    @property
    def batch_size(self) -> int:
        """Number of columns solved."""
        return int(self.coefficients.shape[1])

    def per_column(self, column: int) -> SolverResult:
        """Adapt one column to the serial :class:`SolverResult` shape."""
        if not 0 <= column < self.batch_size:
            raise IndexError(
                f"column {column} out of range for batch {self.batch_size}"
            )
        return SolverResult(
            coefficients=self.coefficients[:, column].copy(),
            iterations=int(self.iterations[column]),
            converged=bool(self.converged[column]),
            stop_reason=self.stop_reasons[column],
            residual_norm=float(self.residual_norms[column]),
        )


@functools.lru_cache(maxsize=32)
def _momentum_schedule(length: int) -> np.ndarray:
    """FISTA's momentum coefficient ``(t_k - 1) / t_{k+1}`` by clock age
    ``k`` (``t_0 = 1``), float64, read-only — scalar arithmetic, so a
    gather from it is the textbook coefficient to the last bit."""
    schedule = np.empty(length, dtype=np.float64)
    t_k = 1.0
    for age in range(length):
        t_next = (1.0 + math.sqrt(1.0 + 4.0 * t_k * t_k)) / 2.0
        schedule[age] = (t_k - 1.0) / t_next
        t_k = t_next
    schedule.setflags(write=False)
    return schedule


def batched_fista(
    a: LinearOperator | np.ndarray,
    ys: np.ndarray,
    lams: np.ndarray | float,
    max_iterations: int = 2000,
    tolerance: float = 1e-4,
    lipschitz: float | np.ndarray | None = None,
    x0: np.ndarray | None = None,
    operator_t: np.ndarray | None = None,
    workspace: BatchWorkspace | None = None,
    restart: bool = False,
) -> BatchedSolverResult:
    """Solve ``min ||A alpha_b - y_b||^2 + lam_b ||alpha_b||_1`` for all b.

    Parameters
    ----------
    a:
        System operator; materialized dense for GEMM iterations.
    ys:
        Stacked measurements, shape ``(m, B)`` (one column per window).
    lams:
        Per-column l1 weights ``(B,)``, or a scalar shared by all.
    max_iterations, tolerance, lipschitz:
        As in :func:`~repro.solvers.fista.fista`; the Lipschitz constant
        is shared (same operator for every column).  An ``(n,)``
        ``lipschitz`` is a diagonal majorizer ``diag(lipschitz) >=
        2 A^T A`` (see :func:`~repro.solvers.lipschitz.
        coefficient_lipschitz`): coefficient ``i`` steps by
        ``1/lipschitz[i]`` and thresholds at ``lam_b/lipschitz[i]`` —
        the proximal-gradient step in that metric, still a separable
        soft threshold, same objective and minimiser.
    x0:
        Warm start, shape ``(n, B)`` — e.g. the previous chunk's
        coefficients when decoding a stream in consecutive batches.
    operator_t:
        Precomputed C-contiguous transpose of the operator (a reusable
        :class:`BatchedFista` caches it); computed here when omitted or
        when its dtype does not match the solve.
    workspace:
        Optional :class:`BatchWorkspace` providing the per-iteration
        scratch buffers; a reusable :class:`BatchedFista` passes its own
        so a stream of same-width solves allocates them once.
    restart:
        Per-column gradient-based adaptive restart of the momentum
        (see the module docstring).  Same objective and stop rule,
        ~3.5x fewer iterations on real ECG windows; off by default so
        the float64 paper reference keeps the textbook iteration.
    """
    dense = _as_dense(a)
    ys = check_measurement_matrix(dense, ys)
    if max_iterations < 1:
        raise SolverError(f"max_iterations must be >= 1, got {max_iterations}")
    if tolerance <= 0:
        raise SolverError(f"tolerance must be positive, got {tolerance}")

    dtype = np.float32 if ys.dtype == np.float32 else np.float64
    ys = np.asarray(ys, dtype=dtype)
    n = dense.shape[1]
    batch = ys.shape[1]
    operator = np.asarray(dense, dtype=dtype)

    lams = np.broadcast_to(np.asarray(lams, dtype=np.float64), (batch,)).copy()
    if np.any(lams <= 0):
        raise SolverError(f"lams must be positive, got {lams.min()}")

    if lipschitz is None:
        lipschitz = lipschitz_constant(np.asarray(dense, dtype=np.float64))
    lipschitz = np.asarray(lipschitz, dtype=np.float64)
    if lipschitz.ndim:
        if lipschitz.shape != (n,):
            raise SolverError(
                f"lipschitz shape {lipschitz.shape} is neither scalar "
                f"nor ({n},)"
            )
        lipschitz = lipschitz[:, None]
    if np.any(lipschitz <= 0):
        raise SolverError(
            f"lipschitz must be positive, got {lipschitz.min()}"
        )
    # scalar, or an (n, 1) column against (n, B) thresholds; cast to
    # the iterate dtype here so the loop never promotes
    step = (1.0 / lipschitz).astype(dtype)
    thresholds = (lams / lipschitz).astype(dtype)

    if x0 is None:
        alpha = np.zeros((n, batch), dtype=dtype)
    else:
        alpha = np.asarray(x0, dtype=dtype).copy()
        if alpha.shape != (n, batch):
            raise SolverError(
                f"x0 shape {alpha.shape} does not match ({n}, {batch})"
            )

    # Working-set layout: every per-iteration operation runs on whole
    # contiguous arrays (one GEMM pair, in-place elementwise math on
    # preallocated buffers) — never on fancy-indexed column subsets,
    # whose copies would eat the BLAS-3 advantage.  A column that
    # converges is snapshotted into the output immediately (freezing
    # its *result* at exactly the iterate the serial solver would
    # return) but keeps riding in the working arrays — its extra
    # iterations are wasted flops, not wrong answers.  When >= 1/8 of
    # the working set is frozen, the arrays are compacted down to the
    # live columns, bounding the waste.
    work_y = ys.copy()
    work_prev = alpha.copy()  # previous iterate (alpha_{k-1})
    work_mom = alpha.copy()
    work_thr = thresholds.copy()
    order = np.arange(batch)  # original column id of each working column
    live = np.ones(batch, dtype=bool)
    # cached per-column ||alpha_{k-1}||_2 for the stopping rule's scale
    prev_norms = np.sqrt(
        np.einsum("ij,ij->j", work_prev, work_prev)
    ).astype(np.float64)

    m = operator.shape[0]
    # contiguous transpose: BLAS runs measurably faster on it than on
    # the strided .T view at these small GEMM sizes
    if operator_t is None or operator_t.dtype != dtype:
        operator_t = np.ascontiguousarray(operator.T)
    if workspace is not None:
        buf_resid, buf_u, buf_alpha, buf_diff = workspace.buffers(
            m, n, batch, dtype
        )
    else:
        buf_resid = np.empty((m, batch), dtype=dtype)
        buf_u = np.empty((n, batch), dtype=dtype)
        buf_alpha = np.empty((n, batch), dtype=dtype)
        buf_diff = np.empty((n, batch), dtype=dtype)

    iterations = np.zeros(batch, dtype=np.int64)
    converged = np.zeros(batch, dtype=bool)
    restarts = np.zeros(batch, dtype=np.int64)
    work_restarts = np.zeros(batch, dtype=np.int64)
    schedule = _momentum_schedule(max_iterations).astype(dtype, copy=False)
    age = np.zeros(batch, dtype=np.intp)  # per-column momentum clock
    total_iterations = 0
    # doubling is exact, so g*(2*step) rounds identically to (2*g)*step
    two_step = dtype(2.0) * step

    # repro-lint: hot
    for iteration in range(1, max_iterations + 1):
        total_iterations = iteration

        np.matmul(operator, work_mom, out=buf_resid)
        buf_resid -= work_y
        np.matmul(operator_t, buf_resid, out=buf_u)
        buf_u *= two_step
        np.subtract(work_mom, buf_u, out=buf_u)  # u = mom - step * grad
        # soft thresholding: alpha = sign(u) * max(|u| - thr_b, 0)
        np.sign(buf_u, out=buf_alpha)
        np.abs(buf_u, out=buf_u)
        buf_u -= work_thr
        np.maximum(buf_u, 0, out=buf_u)
        buf_alpha *= buf_u

        np.subtract(buf_alpha, work_prev, out=buf_diff)
        if restart:
            momentum = schedule[age]
            age += 1
            # <mom - alpha_new, alpha_new - alpha_prev> > 0: momentum
            # points against the column's own progress (buf_u is free
            # scratch once the prox is done)
            np.subtract(work_mom, buf_alpha, out=buf_u)
            against = np.einsum("ij,ij->j", buf_u, buf_diff) > 0
            momentum[against] = 0.0
            age[against] = 0
            work_restarts += against
        else:
            # no clock is ever set back, so every age is the iteration
            # number: one scalar, the textbook coefficient
            momentum = schedule[iteration - 1]
        np.multiply(buf_diff, momentum, out=work_mom)
        work_mom += buf_alpha

        # relative iterate change per column (serial stopping rule)
        change = np.sqrt(
            np.einsum("ij,ij->j", buf_diff, buf_diff)
        ).astype(np.float64)
        scale = np.maximum(prev_norms, 1.0)
        finished = live & ((change / scale) < tolerance)

        # the new iterate becomes next round's previous; the old
        # previous array is recycled as the next alpha buffer
        work_prev, buf_alpha = buf_alpha, work_prev
        prev_norms = np.sqrt(
            np.einsum("ij,ij->j", work_prev, work_prev)
        ).astype(np.float64)

        if finished.any():
            done = order[finished]
            alpha[:, done] = work_prev[:, finished]
            iterations[done] = iteration
            converged[done] = True
            restarts[done] = work_restarts[finished]
            live[finished] = False
            frozen = live.size - int(np.count_nonzero(live))
            if frozen == live.size:
                break
            if frozen >= (live.size + 7) // 8:  # repro-lint: disable=RL003 — compaction reallocates the working set at most log2(B) times per solve; amortized O(1) per window
                work_y = np.ascontiguousarray(work_y[:, live])
                work_prev = np.ascontiguousarray(work_prev[:, live])
                work_mom = np.ascontiguousarray(work_mom[:, live])
                work_thr = np.ascontiguousarray(work_thr[..., live])
                prev_norms = prev_norms[live].copy()
                age = age[live].copy()
                work_restarts = work_restarts[live].copy()
                order = order[live]
                live = np.ones(order.size, dtype=bool)
                width = order.size
                buf_resid = np.empty((m, width), dtype=dtype)
                buf_u = np.empty((n, width), dtype=dtype)
                buf_alpha = np.empty((n, width), dtype=dtype)
                buf_diff = np.empty((n, width), dtype=dtype)

    still_running = order[live]
    if still_running.size:
        alpha[:, still_running] = work_prev[:, live]
        iterations[still_running] = total_iterations
        restarts[still_running] = work_restarts[live]

    residual_norms = np.linalg.norm(
        operator @ alpha - ys, axis=0
    ).astype(np.float64)
    stop_reasons = [
        "tolerance" if flag else "max_iterations" for flag in converged
    ]
    return BatchedSolverResult(
        coefficients=alpha,
        iterations=iterations,
        converged=converged,
        residual_norms=residual_norms,
        restarts=restarts,
        total_iterations=total_iterations,
        stop_reasons=stop_reasons,
    )


#: the hybrid-precision polish gate: a column whose relative
#: residual ``||y - Phi s|| / ||y||`` exceeds this after the float32
#: solve is re-solved in float64.  Calibrated against the fig-6
#: corridor: on the paper-point workload the float32 and float64
#: relative residuals agree to < 0.03% and sit around 0.01-0.02, an
#: order of magnitude below the gate — it fires only when reduced
#: precision actually broke a column (underflow, overflow, NaN), not
#: on ordinary hard windows both precisions struggle with equally.
DEFAULT_POLISH_CORRIDOR = 0.2


@dataclass
class HybridSolveResult:
    """Outcome of one structured (hybrid-precision) batched solve.

    Attributes
    ----------
    signals:
        ``(n_samples, B)`` float64 synthesized time-domain block (no dc
        offset) — the structured path owns synthesis, so callers never
        re-run the inverse transform.
    coefficients:
        ``(n, B)`` float64 wavelet coefficients (polished columns hold
        their float64 re-solve).
    iterations:
        ``(B,)`` total iterations per column: the fast-path count plus,
        for polished columns, the float64 re-solve's count.
    restarts:
        ``(B,)`` momentum restarts each column took on the float32
        fast leg (the float64 legs never restart).
    converged, residual_norms, total_iterations, stop_reasons:
        As in :class:`BatchedSolverResult`; ``residual_norms`` is the
        sparse-gate norm ``||Phi s_b - y_b||_2``.
    rel_residuals:
        ``(B,)`` the gate statistic ``||Phi s_b - y_b|| / ||y_b||``.
    polished:
        ``(B,)`` bool — which columns left the corridor after the fast
        solve and fell back to the float64 polish.
    """

    signals: np.ndarray
    coefficients: np.ndarray
    iterations: np.ndarray
    restarts: np.ndarray
    converged: np.ndarray
    residual_norms: np.ndarray
    rel_residuals: np.ndarray
    polished: np.ndarray
    total_iterations: int
    stop_reasons: list[str] = field(default_factory=list)

    @property
    def batch_size(self) -> int:
        """Number of columns solved."""
        return int(self.coefficients.shape[1])

    def per_column(self, column: int) -> SolverResult:
        """Adapt one column to the serial :class:`SolverResult` shape."""
        if not 0 <= column < self.batch_size:
            raise IndexError(
                f"column {column} out of range for batch {self.batch_size}"
            )
        return SolverResult(
            coefficients=self.coefficients[:, column].copy(),
            iterations=int(self.iterations[column]),
            converged=bool(self.converged[column]),
            stop_reason=self.stop_reasons[column],
            residual_norm=float(self.residual_norms[column]),
        )


def structured_batched_fista(
    structure,
    ys: np.ndarray,
    fractions: np.ndarray | float,
    max_iterations: int = 2000,
    tolerance: float = 1e-4,
    iterate_dtype: np.dtype | type = np.float32,
    workspace: BatchWorkspace | None = None,
) -> HybridSolveResult:
    """Solve a measurement block against a factored ``A = Phi Psi``.

    The structured pipeline, per batch:

    1. per-column lambdas from one float64 correlation GEMM (identical
       weights to the pure-float64 path, so the two backends optimize
       the same objective);
    2. the FISTA iteration in ``iterate_dtype`` — float32 is the fast
       path (the GEMM pair moves half the bytes), float64 is the
       structured reference used by the per-lever benches;
    3. synthesis as a dense ``Psi`` GEMM in the iterate precision (the
       ``Psi``-side ops stay dense — an orthonormal basis has no index
       structure to gather);
    4. the **sparse residual gate**: ``||y - Phi s||`` per column via
       the scatter/gather kernels of
       :class:`~repro.solvers.sparse_apply.SparsePhiApply` (``n*d``
       adds instead of an ``m*n`` GEMM — this is where the sparse
       binary structure pays on the hot path);
    5. columns whose relative residual leaves
       :data:`DEFAULT_POLISH_CORRIDOR` (or is non-finite) are re-solved
       in float64, warm-started from their float32 coefficients
       (non-finite warm starts reset to zero), then re-synthesized and
       re-gated.

    ``structure`` is a
    :class:`~repro.solvers.sparse_apply.StructuredOperator`.  All
    scratch comes from ``workspace`` arenas (both dtypes coexist);
    every array in the returned :class:`HybridSolveResult` is freshly
    allocated and safe to hold across subsequent solves.
    """
    iterate_dtype = np.dtype(iterate_dtype)
    if iterate_dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise SolverError(
            f"iterate_dtype must be float32 or float64, got {iterate_dtype}"
        )
    ys64 = np.asarray(
        check_measurement_matrix(structure.dense64, ys), dtype=np.float64
    )
    if workspace is None:
        workspace = BatchWorkspace()
    m, batch = ys64.shape
    samples = structure.n_samples

    lams = batched_lambda_from_fraction(structure.dense64, ys64, fractions)

    # the float32 leg may legitimately overflow to inf/NaN on a column
    # single precision cannot represent — that is exactly what the
    # residual gate below exists to catch, so numpy's overflow/invalid
    # warnings are noise here (the float64 leg keeps them)
    fast_errstate = (
        np.errstate(over="ignore", invalid="ignore")
        if iterate_dtype == np.float32
        else contextlib.nullcontext()
    )
    with fast_errstate:
        # the float32 fast leg restarts its momentum and steps by the
        # per-coefficient constants; the float64 lever is the textbook
        # iteration at the one scalar L
        # repro-lint: f32
        if iterate_dtype == np.float32:
            ys_fast = workspace.arena("ys32", (m, batch), np.float32)
            np.copyto(ys_fast, ys64)
            fast_lipschitz = structure.coefficient_lipschitz
        else:
            ys_fast = ys64
            fast_lipschitz = structure.lipschitz
        fast = batched_fista(
            structure.operator(iterate_dtype),
            ys_fast,
            lams,
            max_iterations=max_iterations,
            tolerance=tolerance,
            lipschitz=fast_lipschitz,
            operator_t=structure.operator_t(iterate_dtype),
            workspace=workspace,
            restart=iterate_dtype == np.float32,
        )

        coefficients = np.asarray(fast.coefficients, dtype=np.float64)
        # repro-lint: f32
        if iterate_dtype == np.float32:
            synth = workspace.arena("synth32", (samples, batch), np.float32)
            np.matmul(structure.psi32, fast.coefficients, out=synth)
            signals = synth.astype(np.float64)
        else:
            signals = structure.psi64 @ coefficients

    gate_gather = workspace.arena(
        "phi_gather", (structure.phi.nnz, batch), np.float64
    )
    gate_resid = workspace.arena("phi_resid", (m, batch), np.float64)
    structure.phi.residual(signals, ys64, out=gate_resid, gather=gate_gather)
    residual_norms = np.sqrt(np.einsum("ij,ij->j", gate_resid, gate_resid))
    y_floor = np.maximum(
        np.sqrt(np.einsum("ij,ij->j", ys64, ys64)),
        np.finfo(np.float64).tiny,
    )
    rel_residuals = residual_norms / y_floor
    # NaN/inf-safe: only a finite residual inside the corridor passes
    within = np.isfinite(rel_residuals) & (
        rel_residuals <= DEFAULT_POLISH_CORRIDOR
    )

    iterations = fast.iterations.copy()
    converged = fast.converged.copy()
    polished = np.zeros(batch, dtype=bool)
    total_iterations = fast.total_iterations

    if iterate_dtype == np.float32 and not within.all():
        bad = np.flatnonzero(~within)
        ys_bad = np.ascontiguousarray(ys64[:, bad])
        x0 = coefficients[:, bad]  # fancy indexing: already a copy
        x0[~np.isfinite(x0)] = 0.0
        polish = batched_fista(
            structure.dense64,
            ys_bad,
            lams[bad],
            max_iterations=max_iterations,
            tolerance=tolerance,
            lipschitz=structure.lipschitz,
            x0=x0,
            operator_t=structure.dense64_t,
            workspace=workspace,
        )
        coefficients[:, bad] = polish.coefficients
        fixed = structure.psi64 @ polish.coefficients
        signals[:, bad] = fixed
        fixed_resid = structure.phi.residual(fixed, ys_bad)
        residual_norms[bad] = np.linalg.norm(fixed_resid, axis=0)
        rel_residuals[bad] = residual_norms[bad] / y_floor[bad]
        iterations[bad] += polish.iterations
        converged[bad] = polish.converged
        polished[bad] = True
        total_iterations += polish.total_iterations

    stop_reasons = [
        "tolerance" if flag else "max_iterations" for flag in converged
    ]
    return HybridSolveResult(
        signals=signals,
        coefficients=coefficients,
        iterations=iterations,
        restarts=fast.restarts,
        converged=converged,
        residual_norms=residual_norms,
        rel_residuals=rel_residuals,
        polished=polished,
        total_iterations=total_iterations,
        stop_reasons=stop_reasons,
    )


class BatchedFista:
    """A reusable batched solver bound to one system operator.

    Materializes the dense operator and its Lipschitz constant once
    (both depend only on the fixed sensing matrix and wavelet basis,
    exactly like the serial decoder's precomputation) and then solves
    arbitrary ``(m, B)`` measurement blocks.

    Not reentrant: :meth:`solve` hands its instance-level
    :class:`BatchWorkspace` to every call, so one instance serves one
    caller at a time — concurrent solves on a shared instance would
    scribble over each other's scratch buffers.  The cached instances
    of :mod:`repro.core.decoder` are solved on only under their cache
    entry's lock (``solve_block``); any other caller must own its
    solver (or call :func:`batched_fista`, which allocates its own).
    """

    def __init__(
        self,
        a: LinearOperator | np.ndarray,
        lipschitz: float | None = None,
        structure=None,
    ) -> None:
        self._dense = _as_dense(a)
        self._dense_t = np.ascontiguousarray(self._dense.T)
        self._workspace = BatchWorkspace()
        #: optional StructuredOperator enabling :meth:`solve_structured`
        self._structure = structure
        self._lipschitz = (
            lipschitz
            if lipschitz is not None
            else lipschitz_constant(np.asarray(self._dense, dtype=np.float64))
        )
        if self._lipschitz <= 0:
            raise SolverError(
                f"lipschitz must be positive, got {self._lipschitz}"
            )

    @property
    def operator(self) -> np.ndarray:
        """The dense system operator the batch iterates against."""
        return self._dense

    @property
    def lipschitz(self) -> float:
        """Shared Lipschitz constant of the data-fidelity gradient."""
        return self._lipschitz

    @property
    def structure(self):
        """The bound factored operator (``None`` on plain instances)."""
        return self._structure

    @property
    def workspace(self) -> BatchWorkspace:
        """The instance's arena workspace (benches inspect its reuse)."""
        return self._workspace

    def lambdas(self, ys: np.ndarray, fraction: float) -> np.ndarray:
        """Per-column weights for a measurement block (one GEMM)."""
        return batched_lambda_from_fraction(self._dense, ys, fraction)

    def solve_structured(
        self,
        ys: np.ndarray,
        fractions: np.ndarray | float,
        max_iterations: int = 2000,
        tolerance: float = 1e-4,
        iterate_dtype: np.dtype | type = np.float32,
    ) -> HybridSolveResult:
        """Run the hybrid-precision structured pipeline on one block.

        Requires a :class:`~repro.solvers.sparse_apply.StructuredOperator`
        bound at construction; shares this instance's workspace arenas,
        so alternating float32 fast solves and float64 polish re-solves
        reuse their respective per-dtype buffers across batches.
        """
        if self._structure is None:
            raise SolverError(
                "solve_structured requires a StructuredOperator; "
                "construct BatchedFista(..., structure=...)"
            )
        return structured_batched_fista(
            self._structure,
            ys,
            fractions,
            max_iterations=max_iterations,
            tolerance=tolerance,
            iterate_dtype=iterate_dtype,
            workspace=self._workspace,
        )

    def solve(
        self,
        ys: np.ndarray,
        lams: np.ndarray | float,
        max_iterations: int = 2000,
        tolerance: float = 1e-4,
        x0: np.ndarray | None = None,
    ) -> BatchedSolverResult:
        """Run the masked batched iteration on one measurement block."""
        return batched_fista(
            self._dense,
            ys,
            lams,
            max_iterations=max_iterations,
            tolerance=tolerance,
            lipschitz=self._lipschitz,
            x0=x0,
            operator_t=self._dense_t,
            workspace=self._workspace,
        )
