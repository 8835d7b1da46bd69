"""The solve executor: the one seam a measurement-block task leaves by.

Both callers of :func:`~repro.fleet.engine.solve_measurement_block` —
the offline :class:`~repro.fleet.engine.FleetDecoder` (a blocking
:meth:`SolveExecutor.map` over a run's batches) and the live
:class:`~repro.ingest.gateway.IngestGateway` (one
:meth:`SolveExecutor.submit` per flush, behind
:attr:`SolveExecutor.slot`) — run their tasks here, so the platform
fallback, the in-flight bound and the shutdown exist once.  The bound
follows one rule for threads and pools (:func:`solve_slots`).

Pool workers run BLAS on one thread (:func:`pin_blas_to_one_thread`):
a worker per CPU is the parallelism, and a forked worker inherits its
parent's OpenBLAS thread count, so N workers would otherwise run N
times that many BLAS threads on N CPUs.
"""

from __future__ import annotations

import asyncio
import ctypes
import os
import warnings
from collections.abc import Callable, Sequence
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor

import numpy as np

#: the thread-count setter of each OpenBLAS build numpy and scipy ship:
#: scipy-openblas wheels prefix the symbol, 64-bit-integer builds
#: suffix it
OPENBLAS_SETTERS = (
    "scipy_openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads",
    "openblas_set_num_threads64_",
    "openblas_set_num_threads",
)


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the
    platform has one, else the machine's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def solve_slots(workers: int | None) -> int:
    """Solves an executor for ``workers`` runs at once, one rule for
    threads and pools: unset, one per CPU that a BLAS call leaves
    free (an unpinned BLAS spreads one solve over them all), at least
    one; ``0``/``1``, one; ``N >= 2``, ``N`` (processes, or threads if
    no pool can start)."""
    if workers is not None:
        return max(workers, 1)
    return max(usable_cpus() // blas_threads(), 1)


def loaded_openblas() -> list[tuple[ctypes.CDLL, str]]:
    """Every OpenBLAS library this process has loaded, each with the
    name of its thread-count setter; empty where none is loaded or
    there is no ``/proc/self/maps`` to find one by."""
    try:
        with open("/proc/self/maps") as maps:
            # a mapped file's path is the sixth field
            paths = {
                line.split(maxsplit=5)[5].rstrip("\n")
                for line in maps
                if "openblas" in line
            }
    except OSError:
        return []
    found = []
    for path in sorted(paths):
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for setter in OPENBLAS_SETTERS:
            if hasattr(library, setter):
                found.append((library, setter))
                break
    return found


def blas_threads() -> int:
    """Threads one BLAS call may use: the most any loaded OpenBLAS
    runs, else one per usable CPU (an unknown BLAS is assumed to take
    them all)."""
    counts = []
    for library, setter in loaded_openblas():
        get_threads = getattr(library, setter.replace("_set_", "_get_"))
        get_threads.restype = ctypes.c_int
        counts.append(get_threads())
    return max(counts, default=usable_cpus())


def pin_blas_to_one_thread() -> None:
    """Run every loaded OpenBLAS on one thread; a no-op without one.

    The setting is process-global: call it only in a process of its
    own that solves beside one peer per CPU (a pool worker, a
    federation gateway process), never in a caller that shares its
    process with other work.
    """
    for library, setter in loaded_openblas():
        set_threads = getattr(library, setter)
        set_threads.argtypes = [ctypes.c_int]
        set_threads.restype = None
        set_threads(1)


class SolveExecutor:
    """Run solve tasks inline, on threads, or on a process pool.

    ``workers >= 2`` starts a process pool of that many workers, each
    running BLAS on one thread and rebuilding operators from the config
    seed into its own :func:`~repro.core.decoder.build_resources`
    cache.  Otherwise — or when the platform cannot start a pool (no
    fork/spawn, no POSIX semaphores), which emits one
    :class:`RuntimeWarning` naming the error — tasks run in this
    process: on :attr:`bound` threads if ``threaded`` (an asyncio
    caller cannot block its loop on a solve), else inline in
    :meth:`map`.

    :attr:`workers` is the number of worker processes actually in use
    (1 = in-process).  :attr:`slot` holds :attr:`bound` =
    :func:`solve_slots` permits; a live solve of any operator holds one
    from before its task is composed until its result is routed.
    """

    def __init__(
        self, workers: int | None = None, *, threaded: bool = False
    ) -> None:
        self.workers = 1
        self.bound = solve_slots(workers)
        self.slot = asyncio.Semaphore(self.bound)
        self._pool: ProcessPoolExecutor | ThreadPoolExecutor | None = None
        if workers is not None and workers >= 2:
            try:
                self._pool = ProcessPoolExecutor(
                    max_workers=workers, initializer=pin_blas_to_one_thread
                )
                self.workers = workers
            except (ImportError, NotImplementedError, OSError, ValueError) as exc:
                warnings.warn(
                    f"solve executor falling back to in-process solves: "
                    f"process pool unavailable on this platform ({exc})",
                    RuntimeWarning,
                    stacklevel=3,
                )
        if self._pool is None and threaded:
            self._pool = ThreadPoolExecutor(
                max_workers=self.bound, thread_name_prefix="solve"
            )

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
