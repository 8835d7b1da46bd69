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

The hybrid backend's float32 fast leg does not run that iteration at
all: the operator is fixed per stream group and small, so
:func:`batched_admm` solves the same lasso by over-relaxed ADMM against
a cached ``(2 A^T A + rho I)^-1`` (see :meth:`~repro.solvers.
sparse_apply.StructuredOperator.admm_pair`) — one ``(n, n)`` GEMM per
iteration and about a quarter of FISTA's iterations on real ECG
windows, with the same per-column freeze-and-compact layout.

Warm starts are supported through ``x0`` of shape ``(n, B)`` — e.g. the
previous batch's solutions when streaming chunk by chunk.
"""

from __future__ import annotations

import contextlib
import math
import threading
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from ..errors import SolverError
from .base import check_positive_finite
from .lipschitz import lipschitz_constant


def _as_dense(a: np.ndarray) -> np.ndarray:
    """The system matrix for GEMM-based iterations, dtype kept."""
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
    a: np.ndarray,
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
    check_positive_finite("fraction", fraction)
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
    """

    coefficients: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray


def _checked_lams(lams: np.ndarray | float, batch: int) -> np.ndarray:
    """``lams`` broadcast to ``(batch,)``; NaN, inf and <= 0 refused (a
    NaN column would otherwise run to the cap and return NaN)."""
    lams = np.broadcast_to(np.asarray(lams, dtype=np.float64), (batch,))
    check_positive_finite("lams", lams)
    return lams


def _compacted_history(slot: np.ndarray, live: np.ndarray) -> np.ndarray:
    """A two-slot iterate history whose slot 0 holds ``slot``'s live
    columns (after a block's first stop every chunk is one step)."""
    history = np.empty(
        (2, slot.shape[0], int(np.count_nonzero(live))), dtype=slot.dtype
    )
    history[0] = slot[:, live]
    return history


def batched_fista(
    a: np.ndarray,
    ys: np.ndarray,
    lams: np.ndarray | float,
    max_iterations: int = 2000,
    tolerance: float = 1e-4,
    lipschitz: float | None = None,
    x0: np.ndarray | None = None,
    operator_t: np.ndarray | None = None,
    workspace: BatchWorkspace | None = None,
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
        is shared (same operator for every column).
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
    """
    dense = _as_dense(a)
    ys = check_measurement_matrix(dense, ys)
    if max_iterations < 1:
        raise SolverError(f"max_iterations must be >= 1, got {max_iterations}")
    check_positive_finite("tolerance", tolerance)

    dtype = np.float32 if ys.dtype == np.float32 else np.float64
    ys = np.asarray(ys, dtype=dtype)
    n = dense.shape[1]
    batch = ys.shape[1]
    operator = np.asarray(dense, dtype=dtype)

    lams = _checked_lams(lams, batch)

    if lipschitz is None:
        lipschitz = lipschitz_constant(np.asarray(dense, dtype=np.float64))
    check_positive_finite("lipschitz", lipschitz)
    # cast to the iterate dtype here so the loop never promotes
    step = dtype(1.0 / lipschitz)
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
    t_k = 1.0
    # doubling is exact, so g*(2*step) rounds identically to (2*g)*step
    two_step = dtype(2.0) * step

    # repro-lint: hot
    for iteration in range(1, max_iterations + 1):
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

        t_next = (1.0 + math.sqrt(1.0 + 4.0 * t_k * t_k)) / 2.0
        np.subtract(buf_alpha, work_prev, out=buf_diff)
        np.multiply(buf_diff, dtype((t_k - 1.0) / t_next), out=work_mom)
        work_mom += buf_alpha
        t_k = t_next

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
            live[finished] = False
            frozen = live.size - int(np.count_nonzero(live))
            if frozen == live.size:
                break
            if frozen >= (live.size + 7) // 8:  # repro-lint: disable=RL003 — compaction reallocates the working set at most log2(B) times per solve; amortized O(1) per window
                work_y = np.ascontiguousarray(work_y[:, live])
                work_prev = np.ascontiguousarray(work_prev[:, live])
                work_mom = np.ascontiguousarray(work_mom[:, live])
                work_thr = work_thr[live].copy()
                prev_norms = prev_norms[live].copy()
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
        iterations[still_running] = iteration
    return BatchedSolverResult(alpha, iterations, converged)


#: over-relaxation of the ADMM iterate (Eckstein & Bertsekas' 1.5-1.8
#: band); a constant of the fast leg, not an option
ADMM_RELAXATION = 1.6

#: iterations :func:`batched_admm` runs between two evaluations of its
#: stop rule.  Every step keeps its iterate in a ``K + 1``-deep history
#: and each column's stop is read back from the slot where the rule
#: first held, so ``K`` sets the cost, never the result.  Against a
#: check every iteration, a width-1 paper-point solve runs 1.7x faster
#: at 4 and 1.9x at 8 or 16; a width-16 block is ~3 % slower at 8 and
#: ~12 % at 16, where more steps run past the block's first stop
ADMM_CHECK_EVERY = 8

#: ``rho = ADMM_RHO_SCALE * sqrt(lam)`` for a block whose median lambda
#: fraction is ``lam`` — 0.30 at the paper point.  ``A``'s columns are
#: unit-norm and ``lam_b`` is a fraction of ``||A^T y_b||_inf``, so the
#: rule is scale-free; the square root keeps ``lam_b / rho`` from
#: swamping the iterate at either end of the ``lam`` range (a fixed
#: rho = 0.3 is 2x slower than FISTA at lam >= 0.05, and rho a tenth of
#: the rule rides the cap at the paper point)
ADMM_RHO_SCALE = 6.7


def admm_rho(fractions: np.ndarray | float) -> float:
    """The penalty a block with these lambda fractions is solved at.

    The median is taken by hand, as ``np.median`` would (the mean of the
    middle pair of an even count): ``np.median`` imports ``numpy.ma`` on
    its first call, ~10 ms on a gateway's first solve.
    """
    ordered = np.sort(np.asarray(fractions), axis=None)
    middle = ordered.size // 2
    if ordered.size % 2:
        median = ordered[middle]
    else:
        median = (ordered[middle - 1] + ordered[middle]) / 2
    return ADMM_RHO_SCALE * math.sqrt(float(median))


def batched_admm(
    structure,
    ys: np.ndarray,
    lams: np.ndarray | float,
    rho: float,
    max_iterations: int = 2000,
    tolerance: float = 1e-4,
    workspace: BatchWorkspace | None = None,
) -> BatchedSolverResult:
    """:func:`batched_fista`'s lasso by over-relaxed ADMM, in float32.

    With ``(P, R) = structure.admm_pair(rho)`` — ``P = rho (2 A^T A +
    rho I)^-1`` in float32, ``R = 2 (2 A^T A + rho I)^-1 A^T`` in
    float64 — each iteration is one ``(n, n)`` GEMM:

        x   = R y + P (z - u)
        v   = relax * x - (relax - 1) * z + u
        u+  = clip(v, -lam_b / rho, +lam_b / rho)
        z+  = v - u+                  # = soft_threshold(v, lam_b / rho)

    (the part of ``v`` the threshold cuts off *is* the next scaled
    dual).  The ridge term ``R y`` is formed once per block in float64;
    the loop then only ever applies ``P``, whose spectrum lies in
    ``(0, 1]``, to iterate-sized vectors — so float32 rounding stays
    near 1e-7 of the iterate at every working width, where forming
    ``M (2 A^T y + rho (z - u))`` per iteration would sit at the
    ``tolerance`` itself.

    A column freezes when **both** ``||z+ - z||`` and ``||u+ - u||``
    drop under ``tolerance * max(||z||, 1)``: at a large ``lam_b`` the
    sparse iterate ``z`` sits at zero for as long as ``lam_b / rho``
    exceeds ``|v|``, so its change alone reads "converged" at
    iteration 1.  Returns the sparse iterate ``z`` (exact zeros off
    the support), ``(n, B)`` float32.
    """
    ys64 = np.asarray(
        check_measurement_matrix(structure.dense64, ys), dtype=np.float64
    )
    if max_iterations < 1:
        raise SolverError(f"max_iterations must be >= 1, got {max_iterations}")
    check_positive_finite("tolerance", tolerance)
    check_positive_finite("rho", rho)
    n = structure.n_coefficients
    batch = ys64.shape[1]
    lams = _checked_lams(lams, batch)
    if workspace is None:
        workspace = BatchWorkspace()
    p32, ridge_t64 = structure.admm_pair(rho)

    # the one float64 step: the ridge term, once per block
    ridge64 = workspace.arena("ridge", (n, batch), np.float64)
    np.matmul(ridge_t64.T, ys64, out=ridge64)
    # working-set layout as in batched_fista: whole contiguous arrays,
    # a converged column snapshotted at once and compacted away when
    # >= 1/8 of the working set is frozen
    work_ridge = workspace.arena("ridge", (n, batch), np.float32)
    np.copyto(work_ridge, ridge64)
    work_cut = workspace.arena("cut", (n, batch), np.float32)
    work_cut[...] = (lams / rho).astype(np.float32)
    work_floor = workspace.arena("floor", (n, batch), np.float32)
    np.negative(work_cut, out=work_floor)
    # the iterate history: slot 0 holds the chunk's starting iterate,
    # step k writes slot k + 1; ``diff`` is the steps' scratch and then
    # the check's stacked differences
    depth = ADMM_CHECK_EVERY + 1
    hist_z = workspace.arena("z", (depth, n, batch), np.float32)
    hist_u = workspace.arena("u", (depth, n, batch), np.float32)
    buf_diff = workspace.arena("diff", (depth - 1, n, batch), np.float32)
    hist_z[0] = 0
    hist_u[0] = 0
    # ||z|| of every slot, each computed at the width its iterate was
    # made at; row 0 is carried over from the previous chunk
    z_norms = np.zeros((depth, batch), dtype=np.float64)
    relax = np.float32(ADMM_RELAXATION)
    carry = np.float32(ADMM_RELAXATION - 1.0)
    alpha = np.zeros((n, batch), dtype=np.float32)
    order = np.arange(batch)  # original column id of each working column
    live = np.ones(batch, dtype=bool)
    iterations = np.zeros(batch, dtype=np.int64)
    converged = np.zeros(batch, dtype=bool)
    total_iterations = 0
    chunk = ADMM_CHECK_EVERY

    while total_iterations < max_iterations:
        steps = min(chunk, max_iterations - total_iterations)
        zs, us = list(hist_z[: steps + 1]), list(hist_u[: steps + 1])
        scratch = buf_diff[0]

        # repro-lint: hot
        for step in range(steps):
            work_z, work_u = zs[step], us[step]
            buf_v, buf_u = zs[step + 1], us[step + 1]
            np.subtract(work_z, work_u, out=scratch)
            np.matmul(p32, scratch, out=buf_v)
            buf_v += work_ridge  # x
            buf_v *= relax
            np.multiply(work_z, carry, out=scratch)
            buf_v -= scratch
            buf_v += work_u  # v
            np.minimum(buf_v, work_cut, out=buf_u)
            np.maximum(buf_u, work_floor, out=buf_u)  # u+
            buf_v -= buf_u  # z+

        # the stop rule of every step at once: ||z+ - z|| and
        # ||u+ - u|| against tolerance * max(||z||, 1)
        old, new = slice(0, steps), slice(1, steps + 1)
        change = buf_diff[old]
        np.subtract(hist_z[new], hist_z[old], out=change)
        primal = np.sqrt(np.einsum("kij,kij->kj", change, change))
        np.subtract(hist_u[new], hist_u[old], out=change)
        dual = np.sqrt(np.einsum("kij,kij->kj", change, change))
        z_norms[new] = np.sqrt(
            np.einsum("kij,kij->kj", hist_z[new], hist_z[new])
        )
        bound = tolerance * np.maximum(z_norms[old], 1.0)
        finished = (primal < bound) & (dual < bound) & live
        stopped = finished.any(axis=1)
        if not stopped.any():
            last = steps
            total_iterations += steps
        else:
            # the block's first stop: read it back from its slot, drop
            # the steps after it, and check every step from here on
            last = int(stopped.argmax()) + 1
            total_iterations += last
            finished = finished[last - 1]
            done = order[finished]
            alpha[:, done] = hist_z[last][:, finished]
            iterations[done] = total_iterations
            converged[done] = True
            live[finished] = False
            chunk = 1
            frozen = live.size - int(np.count_nonzero(live))
            if frozen == live.size:
                break
            if frozen >= (live.size + 7) // 8:
                work_ridge = np.ascontiguousarray(work_ridge[:, live])
                work_cut = np.ascontiguousarray(work_cut[:, live])
                work_floor = np.ascontiguousarray(work_floor[:, live])
                hist_z = _compacted_history(hist_z[last], live)
                hist_u = _compacted_history(hist_u[last], live)
                buf_diff = np.empty_like(hist_z[1:])
                z_norms = np.tile(z_norms[last, live], (2, 1))
                order = order[live]
                live = np.ones(order.size, dtype=bool)
                continue
        # the last kept slot starts the next chunk
        np.copyto(hist_z[0], hist_z[last])
        np.copyto(hist_u[0], hist_u[last])
        z_norms[0] = z_norms[last]

    still_running = order[live]
    if still_running.size:
        alpha[:, still_running] = hist_z[0][:, live]
        iterations[still_running] = total_iterations
    return BatchedSolverResult(alpha, iterations, converged)


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
    iterations:
        ``(B,)`` total iterations per column: the fast-path count plus,
        for polished columns, the float64 re-solve's count.
    converged:
        As in :class:`BatchedSolverResult`; a polished column reports
        its float64 re-solve's flag.
    polished:
        ``(B,)`` bool — which columns left the corridor after the fast
        solve and fell back to the float64 polish.
    """

    signals: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray
    polished: np.ndarray


def structured_batched_fista(
    structure,
    ys: np.ndarray,
    fractions: np.ndarray | float,
    max_iterations: int = 2000,
    tolerance: float = 1e-4,
    workspace: BatchWorkspace | None = None,
) -> HybridSolveResult:
    """Solve a measurement block against a factored ``A = Phi Psi``.

    The structured pipeline, per batch:

    1. per-column lambdas from one float64 correlation GEMM (identical
       weights to the pure-float64 path, so the two backends optimize
       the same objective);
    2. the float32 iteration, :func:`batched_admm` at
       :func:`admm_rho` of the block's fractions;
    3. synthesis as a dense float32 ``Psi`` GEMM (the ``Psi``-side ops
       stay dense — an orthonormal basis has no index structure to
       gather);
    4. the **sparse residual gate**: ``||y - Phi s||`` per column via
       the scatter/gather kernels of
       :class:`~repro.solvers.sparse_apply.SparsePhiApply` (``n*d``
       adds instead of an ``m*n`` GEMM — this is where the sparse
       binary structure pays on the hot path);
    5. columns whose relative residual leaves
       :data:`DEFAULT_POLISH_CORRIDOR` (or is non-finite) are re-solved
       by float64 FISTA, warm-started from their float32 coefficients
       (non-finite warm starts reset to zero) and re-synthesized.  A
       polished column is not gated again: the gate exists to catch
       what float32 broke, and the polish is the float64 reference.

    ``structure`` is a
    :class:`~repro.solvers.sparse_apply.StructuredOperator`.  All
    scratch comes from ``workspace`` arenas (both dtypes coexist);
    every array in the returned :class:`HybridSolveResult` is freshly
    allocated and safe to hold across subsequent solves.
    """
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
    # warnings are noise here
    with np.errstate(over="ignore", invalid="ignore"):
        fast = batched_admm(
            structure,
            ys64,
            lams,
            admm_rho(fractions),
            max_iterations=max_iterations,
            tolerance=tolerance,
            workspace=workspace,
        )
        synth = workspace.arena("synth32", (samples, batch), np.float32)
        np.matmul(structure.psi32, fast.coefficients, out=synth)
    signals = synth.astype(np.float64)

    gate_gather = workspace.arena(
        "phi_gather", (structure.phi.nnz, batch), np.float64
    )
    gate_resid = workspace.arena("phi_resid", (m, batch), np.float64)
    structure.phi.residual(signals, ys64, out=gate_resid, gather=gate_gather)
    y_floor = np.maximum(
        np.sqrt(np.einsum("ij,ij->j", ys64, ys64)),
        np.finfo(np.float64).tiny,
    )
    rel_residuals = (
        np.sqrt(np.einsum("ij,ij->j", gate_resid, gate_resid)) / y_floor
    )
    # NaN/inf-safe: only a finite residual inside the corridor passes
    within = np.isfinite(rel_residuals) & (
        rel_residuals <= DEFAULT_POLISH_CORRIDOR
    )

    # batched_admm's outputs are fresh arrays, the result's own
    iterations, converged = fast.iterations, fast.converged
    polished = np.zeros(batch, dtype=bool)

    if not within.all():
        bad = np.flatnonzero(~within)
        ys_bad = np.ascontiguousarray(ys64[:, bad])
        x0 = fast.coefficients[:, bad].astype(np.float64)
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
        signals[:, bad] = structure.psi64 @ polish.coefficients
        iterations[bad] += polish.iterations
        converged[bad] = polish.converged
        polished[bad] = True
    return HybridSolveResult(signals, iterations, converged, polished)


class BatchedFista:
    """A reusable batched solver bound to one system operator.

    Materializes the dense operator and its Lipschitz constant once
    (both depend only on the fixed sensing matrix and wavelet basis,
    exactly like the serial decoder's precomputation) and then solves
    arbitrary ``(m, B)`` measurement blocks.

    Threads share the instance, never its scratch: each solve takes a
    :class:`BatchWorkspace` off a LIFO stack of free ones (a new one if
    none is free) and puts it back when done, under a lock.  A
    sequential caller therefore always solves in the same workspace,
    and the stack grows only to the most solves that ever overlapped.
    """

    def __init__(
        self,
        a: np.ndarray,
        lipschitz: float | None = None,
        structure=None,
    ) -> None:
        self._dense = _as_dense(a)
        #: optional StructuredOperator enabling :meth:`solve_structured`
        self._structure = structure
        # a bound structure already holds this operator's transpose
        self._dense_t = (
            structure.dense64_t
            if structure is not None and structure.dense64 is self._dense
            else np.ascontiguousarray(self._dense.T)
        )
        self._lock = threading.Lock()
        self._idle = [BatchWorkspace()]  # free workspaces, LIFO
        self._lipschitz = (
            lipschitz
            if lipschitz is not None
            else lipschitz_constant(np.asarray(self._dense, dtype=np.float64))
        )
        check_positive_finite("lipschitz", self._lipschitz)

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
        """The workspace the next solve takes while none is running
        (tests inspect its reuse)."""
        return self._idle[-1]

    @contextlib.contextmanager
    def _lend(self) -> Iterator[BatchWorkspace]:
        """Hold a free workspace for one solve."""
        with self._lock:
            if self._idle:
                workspace = self._idle.pop()
            else:
                workspace = BatchWorkspace()
        try:
            yield workspace
        finally:
            with self._lock:
                self._idle.append(workspace)

    def lambdas(self, ys: np.ndarray, fraction: float) -> np.ndarray:
        """Per-column weights for a measurement block (one GEMM)."""
        return batched_lambda_from_fraction(self._dense, ys, fraction)

    def solve_structured(
        self,
        ys: np.ndarray,
        fractions: np.ndarray | float,
        max_iterations: int = 2000,
        tolerance: float = 1e-4,
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
        with self._lend() as workspace:
            return structured_batched_fista(
                self._structure,
                ys,
                fractions,
                max_iterations=max_iterations,
                tolerance=tolerance,
                workspace=workspace,
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
        with self._lend() as workspace:
            return batched_fista(
                self._dense,
                ys,
                lams,
                max_iterations=max_iterations,
                tolerance=tolerance,
                lipschitz=self._lipschitz,
                x0=x0,
                operator_t=self._dense_t,
                workspace=workspace,
            )
