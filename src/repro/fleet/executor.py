"""The solve executor: the one seam a measurement-block task leaves by.

Both callers of :func:`~repro.fleet.engine.solve_measurement_block` —
the offline :class:`~repro.fleet.engine.FleetDecoder` (a blocking
:meth:`SolveExecutor.map` over a run's slices) and the live
:class:`~repro.ingest.gateway.IngestGateway` (one
:meth:`SolveExecutor.submit` per flush, behind a
:meth:`SolveExecutor.slot`) — run their tasks here, so the platform
fallback, the in-flight bound and the shutdown exist once.
"""

from __future__ import annotations

import asyncio
import warnings
from collections.abc import Callable, Sequence
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor

import numpy as np

#: in-process solve threads: solves on *different* cached operators
#: overlap (BLAS releases the GIL); one operator never needs more than
#: one, since its solver serves one caller at a time
SOLVE_THREADS = 4


class SolveExecutor:
    """Run solve tasks inline, on threads, or on a process pool.

    ``workers >= 2`` starts a process pool of that many workers, each
    rebuilding operators from the config seed into its own
    :func:`~repro.core.decoder.build_resources` cache.  Otherwise — or when
    the platform cannot start a pool (no fork/spawn, no POSIX
    semaphores), which emits one :class:`RuntimeWarning` naming the
    error — tasks run in this process: on :data:`SOLVE_THREADS`
    threads if ``threaded`` (an asyncio caller cannot block its loop
    on a solve), else inline in :meth:`map`.

    :attr:`workers` is the number of worker processes actually in use
    (1 = in-process) and :attr:`fallback_reason` why a requested pool
    is not, else ``None``.
    """

    def __init__(
        self, workers: int | None = None, *, threaded: bool = False
    ) -> None:
        self.workers = 1
        self.fallback_reason: str | None = None
        self._pool: ProcessPoolExecutor | ThreadPoolExecutor | None = None
        self._slots: dict[tuple | None, asyncio.Semaphore] = {}
        if workers is not None and workers >= 2:
            try:
                self._pool = ProcessPoolExecutor(max_workers=workers)
                self.workers = workers
            except (ImportError, NotImplementedError, OSError, ValueError) as exc:
                self.fallback_reason = (
                    f"process pool unavailable on this platform ({exc})"
                )
                warnings.warn(
                    f"solve executor falling back to in-process solves: "
                    f"{self.fallback_reason}",
                    RuntimeWarning,
                    stacklevel=3,
                )
        if self._pool is None and threaded:
            self._pool = ThreadPoolExecutor(
                max_workers=SOLVE_THREADS, thread_name_prefix="solve"
            )

    def slot(self, operator: tuple) -> asyncio.Semaphore:
        """The in-flight bound a solve on ``operator`` must hold, from
        before its task is composed until its result is routed.

        Pool workers each own their solvers, so one bound of
        ``workers`` permits is shared by all operators.  In-process,
        solves share the cached solver of their operator, which serves
        one caller at a time: each operator gets a single permit (a
        second solve would only park a thread on the solver's lock).
        """
        key = operator if self.workers == 1 else None
        if key not in self._slots:
            self._slots[key] = asyncio.Semaphore(self.workers)
        return self._slots[key]

    def submit(
        self,
        fn: Callable[[dict], dict],
        task: dict[str, np.ndarray | dict | str | float],
    ) -> Future:
        """Start ``fn(task)`` on the pool (threads or processes — an
        inline executor only maps); the caller reads the future."""
        return self._pool.submit(fn, task)  # repro-lint: disable=RL009 — the one designed hand-off: stages 1-2 ran in the caller, so a task ships scalar config fields plus pooled, dequantized measurement columns (kilobytes per batch), never an operator; workers rebuild A from the config seed

    def map(self, fn: Callable[[dict], dict], tasks: Sequence[dict]) -> list:
        """``[fn(task) for task in tasks]``, in task order, blocking."""
        if self._pool is None:
            return [fn(task) for task in tasks]
        futures = [self.submit(fn, task) for task in tasks]
        return [future.result() for future in futures]

    def close(self) -> None:
        """Wait for submitted tasks, then release the pool."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
