"""The fleet decode engine: pooled solves on one executor seam.

:class:`FleetDecoder` drives many record streams through the shared
pipeline (the package docstring, :mod:`repro.fleet`, has the why):

- **encode** (parent): every task's record is windowed and
  batch-encoded by its own :class:`~repro.core.system.EcgMonitorSystem`
  — integer-exact, so the packets are bit-identical to the serial
  reference by construction;
- **group**: streams are grouped by
  :func:`~repro.core.decoder.solve_key`, in order of each key's first
  appearance, and each group's streams are concatenated in order into
  one pooled ``(m, total)`` block, so every stream owns one contiguous
  column range of it;
- **decode**: stages 1-2 run per stream in the parent (stateful,
  cheap); every ``batch_size``-wide span of a pooled block is one
  :func:`solve_measurement_block` task on a
  :class:`~repro.fleet.executor.SolveExecutor` — inline for
  ``workers`` 0/1, else a process pool of single-BLAS-thread workers
  (``workers`` of them, or with ``workers`` unset one per usable CPU
  when a group runs a serial-FISTA backend), each taking the next
  batch as soon as it is free;
- **route** (parent): each batch's results land in group-wide arrays
  at its span, and each stream reads its own range back.

A task is one span of the pooled block, so every solve has the same
column composition however many workers there are, and the output is
bit-identical for any number of groups and workers.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import time
import warnings
from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..config import SystemConfig
from ..core.batch import DEFAULT_BATCH_SIZE, encode_record_windows
from ..core.decoder import resources_for, solve_block, solve_key
from ..core.packets import EncodedPacket
from ..core.system import StreamResult, window_metrics
from ..errors import ConfigurationError
from ..solvers import HybridSolveResult
from ..telemetry import DEFAULT_SIZE_BUCKETS, MetricsRegistry
from . import executor
from .executor import SolveExecutor

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.system import EcgMonitorSystem
    from ..ecg.records import Record


@dataclass
class StreamTask:
    """One record channel to decode as part of a fleet run."""

    system: "EcgMonitorSystem"
    record: "Record"
    channel: int = 0
    max_packets: int | None = None
    keep_signals: bool = False


@dataclass
class _EncodedStream:
    """Parent-side state of one stream after the encode phase."""

    task: StreamTask
    windows: np.ndarray
    packets: list[EncodedPacket]
    config: "SystemConfig"
    precision: str
    dc_offset: int


def _pool_group_columns(
    members: Sequence[_EncodedStream],
) -> tuple[np.ndarray, np.ndarray, list[float]]:
    """Stages 1-2 for one group: pooled block + per-column fractions.

    Streams concatenate in group order, so each owns one contiguous
    column range; the block stays float64 (the kernel casts to the
    operator's precision).  Also returns each stream's per-window
    share of its payload-decode time.
    """
    blocks: list[np.ndarray] = []
    shares: list[float] = []
    for member in members:
        decoder = member.task.system.decoder.payload
        started = time.perf_counter()
        decoder.reset()
        blocks.append(decoder.measurement_block(member.packets, np.float64))
        shares.append((time.perf_counter() - started) / len(member.packets))
    fractions = np.repeat(
        np.asarray([m.config.lam for m in members], dtype=np.float64),
        [len(m.packets) for m in members],
    )
    return np.concatenate(blocks, axis=1), fractions, shares


#: ``fleet_solve_iterations`` bounds: the paper point caps at 2000, the
#: float64 reference sits around 1000 and hybrid (ADMM) windows
#: around 50-150
ITERATION_BUCKETS: tuple[float, ...] = (
    50, 100, 200, 300, 400, 600, 800, 1000, 1500, 2000,
)


def solve_measurement_block(task: dict) -> dict:
    """Reconstruct one batch of a group's pooled measurement columns.

    The only way a measurement block becomes a reconstruction outside
    :class:`~repro.core.decoder.CSDecoder`: the caller has already run
    stages 1-2 (entropy decode, redundancy re-insertion,
    dequantization) and hands over a ``(m, B)`` float64 block plus
    per-column lambda fractions; this function fetches the group's
    operator from the process's cache
    (:func:`~repro.core.decoder.resources_for` — rebuilt from the
    config seed on a miss, never shipped) and solves the whole block
    as one batch.  :class:`FleetDecoder` hands it one ``batch_size``
    span of a group's pooled columns per task and the live ingest
    gateway (:mod:`repro.ingest`) one flush.

    Task keys: ``config`` (scalar :class:`~repro.config.SystemConfig`
    fields), ``precision``, ``block``, ``fractions``,
    ``max_iterations``, ``tolerance``; any other key is ignored.
    Returns ``signals`` (``(n, B)`` float64, no dc offset),
    ``iterations`` (``(B,)``), ``seconds`` (``(B,)`` — each column's
    share of the solve's wall clock) and ``telemetry`` — this call's
    metrics delta (recorded into a registry created per call, so the
    caller can absorb every result's delta exactly once, whatever
    order a pool completes them in).
    """
    task_started = time.perf_counter()
    registry = MetricsRegistry()
    config = SystemConfig(**task["config"])
    resources = resources_for(config, task["precision"])
    width = task["block"].shape[1]
    solve_started = time.perf_counter()
    signals, result = solve_block(
        resources,
        task["block"],
        task["fractions"],
        task["max_iterations"],
        task["tolerance"],
    )
    elapsed = time.perf_counter() - solve_started
    if isinstance(result, HybridSolveResult):
        registry.inc("fleet_hybrid_windows", width)
        registry.inc(
            "fleet_polish_windows", int(np.count_nonzero(result.polished))
        )
    registry.observe("fleet_solve_seconds", elapsed)
    registry.observe("fleet_solve_width", width, buckets=DEFAULT_SIZE_BUCKETS)
    for count in result.iterations:
        registry.observe(
            "fleet_solve_iterations", count, buckets=ITERATION_BUCKETS
        )
    # the delta crosses a process boundary as a plain dict; fan-in over
    # any completion order aggregates exactly (the merge algebra of
    # :class:`~repro.telemetry.MetricsSnapshot`)
    worker = str(os.getpid())
    registry.inc("fleet_worker_tasks", worker=worker)
    registry.inc("fleet_worker_windows", width, worker=worker)
    registry.observe(
        "fleet_worker_task_seconds",
        time.perf_counter() - task_started,
        worker=worker,
    )
    return {
        "signals": signals,
        "iterations": result.iterations,
        "seconds": np.full(width, elapsed / width),
        "telemetry": registry.snapshot().to_dict(),
    }


#: backends that get a pool of one worker per CPU when ``workers`` is
#: unset.  On a 2-core Xeon a serial-FISTA batch of 16 solves in
#: ~0.3-0.5 s against ~40 ms to start and join a 2-process pool; a
#: hybrid batch solves in ~20 ms and a pool only paid off from ~480
#: windows, so a hybrid-only job decodes in-process unless the caller
#: asks for workers.
POOLED_BY_DEFAULT = ("float64", "float32")


class FleetDecoder:
    """Pooled decode of many streams with operator-keyed batching.

    Parameters
    ----------
    batch_size:
        Target solve width; batches are filled *across* a group's
        streams, so ragged per-stream tails merge.
    workers:
        ``>= 2`` solves the batches of every operator group on a
        process pool of (at most) that many workers, each taking the
        next batch as soon as it is free; ``0`` or ``1`` decodes
        in-process.  ``None`` (the default) starts one worker per
        :func:`~repro.fleet.executor.usable_cpus` when any group runs
        a serial-FISTA backend (:data:`POOLED_BY_DEFAULT`), else
        decodes in-process.  The pool never has more workers than the
        run has batches, and its workers run BLAS on one thread.  A
        request for ``workers >= 2`` still decodes in-process when the
        run is a single batch or when the platform cannot start a
        pool; either fallback emits one :class:`RuntimeWarning` naming
        the reason.  Unset, only the platform fallback warns.
    """

    def __init__(
        self,
        batch_size: int = DEFAULT_BATCH_SIZE,
        workers: int | None = None,
        telemetry: MetricsRegistry | None = None,
    ) -> None:
        if batch_size < 1:
            raise ConfigurationError(
                f"batch_size must be >= 1, got {batch_size}"
            )
        if workers is not None and workers < 0:
            raise ConfigurationError(
                f"workers must be >= 0, got {workers}"
            )
        self.batch_size = batch_size
        self.workers = workers
        #: the telemetry plane this decoder publishes to: run/group
        #: counters from the parent, solve histograms absorbed from
        #: each batch's returned delta snapshot
        self.telemetry = (
            telemetry if telemetry is not None else MetricsRegistry()
        )
        #: groups and worker processes actually used by the most recent
        #: :meth:`run` (1 = in-process) — the engine owns the fallback
        #: decision, so callers report from here instead of re-deriving
        self.last_num_groups = 0
        self.last_effective_workers = 1

    # ------------------------------------------------------------------
    def run(self, tasks: Sequence[StreamTask]) -> list[StreamResult]:
        """Decode every task; results match the task order."""
        tasks = list(tasks)
        if not tasks:
            return []
        encoded = [self._encode(task) for task in tasks]
        # task indices per solve key, in order of each key's first
        # appearance
        groups: dict[tuple, list[int]] = {}
        for index, stream in enumerate(encoded):
            key = solve_key(stream.config, stream.precision)
            groups.setdefault(key, []).append(index)
        self.last_num_groups = len(groups)

        # stages 1-2 (stateful, cheap) run here for every group; each
        # batch_size-wide span of its pooled columns is one solve task,
        # whose results land in the group's arrays at that span
        layouts: list[tuple] = []
        spans: list[tuple] = []
        solve_tasks: list[dict] = []
        for ids in groups.values():
            members = [encoded[index] for index in ids]
            lead = members[0]
            pooled, fractions, shares = _pool_group_columns(members)
            total = pooled.shape[1]
            outputs = (
                np.empty((total, lead.config.n)),  # samples, window-major
                np.empty(total, dtype=np.int64),  # iterations
                np.empty(total),  # solve seconds
            )
            layouts.append((ids, shares, outputs))
            config_fields = dataclasses.asdict(lead.config)
            for start in range(0, total, self.batch_size):
                span = slice(start, start + self.batch_size)
                spans.append((outputs, span))
                solve_tasks.append(
                    {
                        "config": config_fields,
                        "precision": lead.precision,
                        "block": pooled[:, span],
                        "fractions": fractions[span],
                        "max_iterations": lead.config.max_iterations,
                        "tolerance": lead.config.tolerance,
                    }
                )

        # what the caller asked for, on any backend; unset, one worker
        # per usable CPU where a batch pays for a pool
        if self.workers is not None:
            requested = self.workers or 1
        elif any(stream.precision in POOLED_BY_DEFAULT for stream in encoded):
            requested = executor.usable_cpus()
        else:
            requested = 1
        windows = sum(len(stream.packets) for stream in encoded)
        if (self.workers or 0) >= 2 and len(solve_tasks) == 1:
            warnings.warn(
                f"fleet decode falling back to a single process: "
                f"workers={self.workers} requested but the single operator "
                f"group's {windows} window(s) fit one batch "
                f"(batch_size={self.batch_size}); nothing to shard",
                RuntimeWarning,
                stacklevel=2,
            )
        solves = SolveExecutor(min(requested, len(solve_tasks)))
        with contextlib.closing(solves):
            solved = solves.map(solve_measurement_block, solve_tasks)
        effective = solves.workers

        for ((samples, iterations, seconds), span), out in zip(spans, solved):
            self.telemetry.absorb(out["telemetry"])
            samples[span] = out["signals"].T
            iterations[span] = out["iterations"]
            seconds[span] = out["seconds"]

        self.last_effective_workers = effective
        self.telemetry.inc(
            "fleet_runs", mode="columns" if effective > 1 else "in-process"
        )
        self.telemetry.inc("fleet_windows_decoded", windows)
        self.telemetry.set_gauge("fleet_groups", len(groups))
        self.telemetry.set_gauge("fleet_effective_workers", effective)
        results: list[StreamResult] = [None] * len(encoded)
        for label, (ids, shares, outputs) in enumerate(layouts):
            samples, iterations, seconds = outputs
            self.telemetry.inc(
                "fleet_group_windows", len(samples), group=f"g{label}"
            )
            # each stream reads its own contiguous range back
            stop = 0
            for index, share in zip(ids, shares):
                stream = encoded[index]
                start, stop = stop, stop + len(stream.packets)
                samples[start:stop] += stream.dc_offset
                results[index] = self._assemble(
                    stream,
                    samples[start:stop],
                    iterations[start:stop],
                    share + seconds[start:stop],
                )
        return results

    def _encode(self, task: StreamTask) -> _EncodedStream:
        windows, packets = encode_record_windows(
            task.system,
            task.record,
            channel=task.channel,
            max_packets=task.max_packets,
        )
        return _EncodedStream(
            task=task,
            windows=windows,
            packets=packets,
            config=task.system.config,
            precision=task.system.decoder.precision,
            dc_offset=task.system.encoder.dc_offset,
        )

    # ------------------------------------------------------------------
    def _assemble(
        self,
        stream: _EncodedStream,
        samples_adu: np.ndarray,
        iterations: np.ndarray,
        decode_seconds: np.ndarray,
    ) -> StreamResult:
        task = stream.task
        result = StreamResult(
            record=task.record.name,
            channel=task.channel,
            config=stream.config,
        )
        for index, packet in enumerate(stream.packets):
            result.packets.append(
                window_metrics(
                    stream.windows[index],
                    packet,
                    samples_adu[index],
                    int(iterations[index]),
                    float(decode_seconds[index]),
                    stream.dc_offset,
                )
            )
        if task.keep_signals:
            result.original_adu = stream.windows.astype(np.float64).reshape(-1)
            result.reconstructed_adu = samples_adu.reshape(-1)
        return result
