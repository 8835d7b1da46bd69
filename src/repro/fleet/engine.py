"""The fleet decode engine: pooled solves, optional process sharding.

:class:`FleetDecoder` drives many record streams through the shared
pipeline:

- **encode phase** (always in the parent): every task's record is
  windowed and batch-encoded by its own
  :class:`~repro.core.system.EcgMonitorSystem` — integer-exact, so the
  packets are bit-identical to the serial reference by construction;
- **schedule phase**: streams are grouped by
  :func:`~repro.fleet.scheduler.solve_key` and each group's windows are
  pooled into cross-stream batches;
- **decode phase**: per group, stages 1-2 run per stream (stateful,
  cheap), then the pooled measurement columns go through one
  :class:`~repro.solvers.batched.BatchedFista` per group — in-process,
  or sharded across a ``multiprocessing`` pool when ``workers > 1``;
- **route phase** (parent): decoded windows scatter back to their
  originating :class:`~repro.core.system.StreamResult` in order.

Sharding picks one of two layouts:

- **group sharding** (``>= 2`` operator groups): whole groups are
  partitioned across the pool.  Workers never receive a matrix: a group
  task carries each stream's scalar :class:`~repro.config.SystemConfig`
  fields, its (small) Huffman codebook and its packets as wire bytes;
  the worker rebuilds ``A = Phi Psi^-1`` from the seed once per
  operator group and caches it for the life of the process.
- **column sharding** (one operator group — the paper's fleet, where
  every node ships the same fixed matrix): the parent runs stages 1-2
  and splits the group's pooled *column* stream into batch-aligned
  slices, one per worker, so the single shared operator no longer
  serializes on one process's BLAS.  Workers receive only the float
  measurement columns (kilobytes per batch) and, as above, rebuild the
  operator from the seed.

Both layouts reproduce the in-process batch boundaries exactly, so the
decoded output is bit-identical to the single-process pooled path.  If
sharding was requested but cannot apply (nothing to split, or the
platform cannot start a pool), the engine decodes in-process and emits
one :class:`RuntimeWarning` naming the reason.
"""

from __future__ import annotations

import dataclasses
import time
import warnings
from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

import numpy as np

from ..core.batch import DEFAULT_BATCH_SIZE, encode_record_windows
from ..core.decoder import PacketPayloadDecoder
from ..core.packets import EncodedPacket
from ..core.system import StreamResult, window_metrics
from ..errors import ConfigurationError
from ..solvers import BatchedFista
from ..telemetry import DEFAULT_SIZE_BUCKETS, MetricsRegistry
from .scheduler import GroupSchedule, build_schedules, solve_key

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..config import SystemConfig
    from ..core.system import EcgMonitorSystem
    from ..ecg.records import Record
    from ..wavelet import WaveletTransform


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


@dataclass
class _StreamDecode:
    """Decode-phase output for one stream (plain arrays only, so the
    sharded path can ship it across a process boundary)."""

    samples_adu: np.ndarray  # (B, n) float64, dc offset applied
    iterations: np.ndarray  # (B,) int64
    decode_seconds: np.ndarray  # (B,) float64


def _pool_group_columns(
    payload_decoders: Sequence[PacketPayloadDecoder],
    packet_lists: Sequence[Sequence[EncodedPacket]],
    lam_fractions: Sequence[float],
    counts: Sequence[int],
    dtype: type,
) -> tuple[np.ndarray, np.ndarray, list[float]]:
    """Stages 1-2 for one group: pooled block + per-column fractions.

    Shared by every decode layout (in-process, group-sharded workers,
    column-sharded parent): streams concatenate in local group order,
    matching :class:`~repro.fleet.scheduler.GroupSchedule`'s column
    layout.  Also returns each stream's per-window payload-decode time
    share for the ``decode_seconds`` accounting.
    """
    payload_share: list[float] = []
    blocks: list[np.ndarray] = []
    for decoder, packets in zip(payload_decoders, packet_lists):
        started = time.perf_counter()
        decoder.reset()
        blocks.append(decoder.measurement_block(list(packets), dtype))
        payload_share.append(
            (time.perf_counter() - started) / max(len(packets), 1)
        )
    pooled = np.concatenate(blocks, axis=1)
    fractions = np.repeat(
        np.asarray(lam_fractions, dtype=np.float64), np.asarray(counts)
    )
    return pooled, fractions, payload_share


def _allocate_stream_outputs(
    counts: Sequence[int], payload_share: Sequence[float], n: int
) -> list[_StreamDecode]:
    """Per-stream result buffers, decode_seconds seeded with the
    stream's payload-decode share."""
    return [
        _StreamDecode(
            samples_adu=np.empty((count, n), dtype=np.float64),
            iterations=np.zeros(count, dtype=np.int64),
            decode_seconds=np.full(count, share, dtype=np.float64),
        )
        for count, share in zip(counts, payload_share)
    ]


def _scatter_columns(
    outputs: list[_StreamDecode],
    schedule: GroupSchedule,
    start: int,
    stop: int,
    signals: np.ndarray,
    iterations: np.ndarray,
    seconds: np.ndarray,
    dc_offsets: Sequence[int],
) -> None:
    """Route pooled columns ``[start, stop)`` back to their streams.

    ``signals``/``iterations``/``seconds`` are indexed relative to the
    slice; the single routing implementation is what keeps every
    layout's output identical by construction.
    """
    stream_of = schedule.stream_of[start:stop]
    index_of = schedule.index_of[start:stop]
    for local in np.unique(stream_of):
        mask = stream_of == local
        rows = index_of[mask]
        out = outputs[local]
        out.samples_adu[rows] = (
            np.asarray(signals[:, mask], dtype=np.float64).T
            + dc_offsets[local]
        )
        out.iterations[rows] = iterations[mask]
        out.decode_seconds[rows] += seconds[mask]


#: ``fleet_solve_iterations`` bounds: the paper point caps at 2000, the
#: float64 reference sits around 1000 and restarted hybrid windows
#: around 200-600
ITERATION_BUCKETS: tuple[float, ...] = (
    50, 100, 200, 300, 400, 600, 800, 1000, 1500, 2000,
)


def _solve_batch(
    solver: BatchedFista,
    transform: "WaveletTransform",
    block: np.ndarray,
    fractions: np.ndarray,
    precision: str,
    max_iterations: int,
    tolerance: float,
    registry: MetricsRegistry,
) -> tuple[np.ndarray, np.ndarray, float]:
    """One batched solve + synthesis, publishing its solve telemetry.

    The single solve step of every decode layout.  The ``"hybrid"``
    backend solves through the structured pipeline (restarted float32
    fast path + sparse residual gate + float64 polish), which owns
    synthesis; the dense backends synthesize via the batched inverse
    transform.  Returns ``(signals, iterations, elapsed_seconds)``.
    """
    width = block.shape[1]
    started = time.perf_counter()
    if precision == "hybrid":
        result = solver.solve_structured(
            block,
            fractions,
            max_iterations=max_iterations,
            tolerance=tolerance,
        )
        signals = result.signals
        registry.inc("fleet_hybrid_windows", width)
        registry.inc(
            "fleet_polish_windows", int(np.count_nonzero(result.polished))
        )
        registry.inc("fleet_solver_restarts", int(result.restarts.sum()))
    else:
        lams = solver.lambdas(block, fractions)
        result = solver.solve(
            block,
            lams,
            max_iterations=max_iterations,
            tolerance=tolerance,
        )
        signals = transform.inverse_batch(result.coefficients)
    elapsed = time.perf_counter() - started
    registry.observe("fleet_solve_seconds", elapsed)
    registry.observe("fleet_solve_width", width, buckets=DEFAULT_SIZE_BUCKETS)
    for count in result.iterations:
        registry.observe(
            "fleet_solve_iterations", count, buckets=ITERATION_BUCKETS
        )
    return signals, result.iterations, elapsed


def _decode_group(
    solver: BatchedFista,
    transform: "WaveletTransform",
    schedule: GroupSchedule,
    payload_decoders: Sequence[PacketPayloadDecoder],
    packet_lists: Sequence[Sequence[EncodedPacket]],
    lam_fractions: Sequence[float],
    dc_offsets: Sequence[int],
    max_iterations: int,
    tolerance: float,
    precision: str,
    registry: MetricsRegistry,
) -> list[_StreamDecode]:
    """Decode one operator group's pooled windows.

    Shared by the in-process path and the group-sharded workers;
    inputs are ordered like ``schedule.stream_ids`` (local group
    order).  Solve telemetry goes to ``registry`` — the decoder's own
    in-process, the task's delta registry in a pool worker.
    """
    dtype = np.float32 if precision == "float32" else np.float64
    pooled, fractions, payload_share = _pool_group_columns(
        payload_decoders, packet_lists, lam_fractions, schedule.counts, dtype
    )
    outputs = _allocate_stream_outputs(
        schedule.counts, payload_share, transform.n
    )

    for start, stop in schedule.batches():
        signals, iterations, elapsed = _solve_batch(
            solver,
            transform,
            pooled[:, start:stop],
            fractions[start:stop],
            precision,
            max_iterations,
            tolerance,
            registry,
        )
        _scatter_columns(
            outputs,
            schedule,
            start,
            stop,
            signals,
            iterations,
            np.full(stop - start, elapsed / (stop - start)),
            dc_offsets,
        )
    return outputs


# ----------------------------------------------------------------------
# Sharded execution: operator groups across a multiprocessing pool.
# ----------------------------------------------------------------------

#: per-worker cache of rebuilt operator resources, keyed by operator
#: identity — a worker serving many groups (or repeated runs under a
#: long-lived pool) pays the dense build + Lipschitz estimate once
_WORKER_RESOURCES: dict[tuple, tuple[BatchedFista, Any]] = {}


def _group_resources(
    config: "SystemConfig", precision: str
) -> tuple[BatchedFista, "WaveletTransform"]:
    """Build (or fetch) one operator group's solver + synthesis pair."""
    from ..sensing import SparseBinaryMatrix
    from ..wavelet import WaveletTransform
    from .scheduler import operator_key

    key = operator_key(config, precision)
    cached = _WORKER_RESOURCES.get(key)
    if cached is not None:
        return cached
    matrix = SparseBinaryMatrix(
        config.m, config.n, d=config.d, seed=config.seed
    )
    transform = WaveletTransform(config.n, config.wavelet, config.levels)
    if precision == "hybrid":
        from ..solvers import StructuredOperator

        structure = StructuredOperator(matrix, transform.synthesis_matrix())
        solver = BatchedFista(
            structure.dense64,
            lipschitz=structure.lipschitz,
            structure=structure,
        )
    else:
        dtype = np.float32 if precision == "float32" else np.float64
        dense = (matrix.sparse() @ transform.synthesis_matrix()).astype(dtype)
        solver = BatchedFista(dense)
    resources = (solver, transform)
    _WORKER_RESOURCES[key] = resources
    return resources


def _worker_telemetry_delta(
    registry: MetricsRegistry, started: float, windows: int
) -> dict:
    """One pool task's telemetry delta, ready to cross the boundary.

    Workers record into a registry created *for the task* and ship its
    snapshot home as a plain dict; the parent absorbs each delta once,
    so fan-in over any completion order aggregates exactly (the merge
    algebra of :class:`~repro.telemetry.MetricsSnapshot`).
    """
    import os

    worker = str(os.getpid())
    registry.inc("fleet_worker_tasks", worker=worker)
    registry.inc("fleet_worker_windows", windows, worker=worker)
    registry.observe(
        "fleet_worker_task_seconds",
        time.perf_counter() - started,
        worker=worker,
    )
    return registry.snapshot().to_dict()


def _worker_decode_group(group_task: dict) -> dict:
    """Pool worker: decode one operator group from pickled primitives.

    The task dict carries, per stream: the scalar config fields, the
    Huffman codebook, the lambda fraction, the dc offset and the
    packets as wire bytes.  No arrays or operators cross the boundary
    in either direction except the decoded results and the worker's
    telemetry delta.
    """
    from ..config import SystemConfig

    started = time.perf_counter()
    precision = group_task["precision"]
    streams = group_task["streams"]
    configs = [SystemConfig(**s["config"]) for s in streams]
    solver, transform = _group_resources(configs[0], precision)

    payload_decoders = [
        PacketPayloadDecoder(config, codebook=s["codebook"])
        for config, s in zip(configs, streams)
    ]
    packet_lists = [
        [EncodedPacket.from_bytes(wire) for wire in s["packets"]]
        for s in streams
    ]
    schedule = GroupSchedule.build(
        group_task["stream_ids"],
        [len(packets) for packets in packet_lists],
        group_task["batch_size"],
    )
    registry = MetricsRegistry()
    outputs = _decode_group(
        solver,
        transform,
        schedule,
        payload_decoders,
        packet_lists,
        [s["lam"] for s in streams],
        [s["dc_offset"] for s in streams],
        group_task["max_iterations"],
        group_task["tolerance"],
        precision,
        registry,
    )
    return {
        "streams": [
            {
                "samples_adu": out.samples_adu,
                "iterations": out.iterations,
                "decode_seconds": out.decode_seconds,
            }
            for out in outputs
        ],
        "telemetry": _worker_telemetry_delta(
            registry, started, schedule.total_windows
        ),
    }


def solve_measurement_block(task: dict) -> dict:
    """Reconstruct a slice of one group's pooled measurement columns.

    The unit of *column sharding*: the caller has already run stages
    1-2 (entropy decode, redundancy re-insertion, dequantization) and
    ships a ``(m, B)`` float block plus per-column lambda fractions;
    this function rebuilds the group's operator from the config seed
    (cached per process via :func:`_group_resources`), slices the block
    into ``batch_size``-wide solves and returns the synthesized signals.

    Because the caller hands it batch-aligned slices, the solve widths
    reproduce the in-process :func:`_decode_group` boundaries exactly,
    making the output bit-identical to the single-process pooled path.
    Also the decode backend of the live ingest gateway
    (:mod:`repro.ingest`), which flushes one batch at a time — there,
    ``B <= batch_size`` and the loop body runs once per flush.

    Task keys: ``config`` (scalar :class:`~repro.config.SystemConfig`
    fields), ``precision``, ``block``, ``fractions``, ``batch_size``,
    ``max_iterations``, ``tolerance``.  Returns ``signals`` (``(n, B)``
    float64, no dc offset), ``iterations`` (``(B,)``), ``seconds``
    (``(B,)`` — each column's share of its batch's wall clock) and
    ``telemetry`` — this call's metrics delta (recorded into a
    registry created per call, so the caller can absorb every result's
    delta exactly once, whatever order a pool completes them in).
    """
    from ..config import SystemConfig

    task_started = time.perf_counter()
    registry = MetricsRegistry()
    config = SystemConfig(**task["config"])
    solver, transform = _group_resources(config, task["precision"])
    block = task["block"]
    fractions = task["fractions"]
    batch_size = task["batch_size"]
    total = block.shape[1]
    signals = np.empty((transform.n, total), dtype=np.float64)
    iterations = np.zeros(total, dtype=np.int64)
    seconds = np.zeros(total, dtype=np.float64)
    for start in range(0, total, batch_size):
        stop = min(start + batch_size, total)
        batch_signals, batch_iterations, elapsed = _solve_batch(
            solver,
            transform,
            block[:, start:stop],
            fractions[start:stop],
            task["precision"],
            task["max_iterations"],
            task["tolerance"],
            registry,
        )
        signals[:, start:stop] = np.asarray(batch_signals, dtype=np.float64)
        iterations[start:stop] = batch_iterations
        seconds[start:stop] = elapsed / (stop - start)
    return {
        "signals": signals,
        "iterations": iterations,
        "seconds": seconds,
        "telemetry": _worker_telemetry_delta(registry, task_started, total),
    }


def split_batches(num_batches: int, workers: int) -> list[tuple[int, int]]:
    """Partition ``num_batches`` solves into contiguous per-worker runs.

    Returns ``(first_batch, last_batch_exclusive)`` index pairs, one
    per non-empty worker, balanced to within one batch.  Keeping the
    split at *batch* granularity is what preserves bit-identity: every
    solve keeps the exact column composition of the unsharded schedule.
    """
    if num_batches < 1 or workers < 1:
        raise ConfigurationError(
            f"need num_batches >= 1 and workers >= 1, got "
            f"{num_batches}/{workers}"
        )
    workers = min(workers, num_batches)
    base, excess = divmod(num_batches, workers)
    spans = []
    start = 0
    for index in range(workers):
        stop = start + base + (1 if index < excess else 0)
        spans.append((start, stop))
        start = stop
    return spans


class FleetDecoder:
    """Pooled decode of many streams with operator-keyed batching.

    Parameters
    ----------
    batch_size:
        Target solve width; batches are filled *across* a group's
        streams, so ragged per-stream tails merge.
    workers:
        ``None``, ``0`` or ``1`` decodes in-process; ``>= 2`` shards
        the work across a ``multiprocessing`` pool of that many
        processes — whole operator groups when there are two or more,
        batch-aligned column slices *within* the group when the whole
        fleet shares one operator.  A request for ``workers >= 2``
        still decodes in-process when there is nothing to split (a
        single group whose windows fit one batch) or when the platform
        cannot start a pool; either fallback emits one
        :class:`RuntimeWarning` naming the reason.
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
        #: each worker task's returned delta snapshot
        self.telemetry = (
            telemetry if telemetry is not None else MetricsRegistry()
        )
        #: groups scheduled, worker processes actually used and the
        #: sharding layout of the most recent :meth:`run` (1 worker =
        #: in-process) — the engine owns the fallback decision, so
        #: callers report from here instead of re-deriving it
        self.last_num_groups = 0
        self.last_effective_workers = 1
        self.last_shard_mode = "in-process"
        self.last_fallback_reason: str | None = None

    # ------------------------------------------------------------------
    def run(self, tasks: Sequence[StreamTask]) -> list[StreamResult]:
        """Decode every task; results match the task order."""
        tasks = list(tasks)
        if not tasks:
            return []
        encoded = [self._encode(task) for task in tasks]
        keys = [
            solve_key(stream.config, stream.precision) for stream in encoded
        ]
        schedules = build_schedules(
            keys, [len(stream.packets) for stream in encoded], self.batch_size
        )
        self.last_num_groups = len(schedules)
        mode, effective = self._plan_sharding(schedules)

        decodes: list[_StreamDecode] | None = None
        if mode == "groups":
            decodes = self._run_sharded(encoded, schedules, effective)
        elif mode == "columns":
            decodes = self._run_column_sharded(encoded, schedules[0], effective)
        if decodes is None:
            # either planned in-process, or the pool could not start
            # (the platform fallback — _pool_map already warned)
            mode, effective = "in-process", 1
            decodes = self._run_inprocess(encoded, schedules)
        self.last_shard_mode = mode
        self.last_effective_workers = effective
        self.telemetry.inc("fleet_runs", mode=mode)
        self.telemetry.inc(
            "fleet_windows_decoded",
            sum(len(stream.packets) for stream in encoded),
        )
        self.telemetry.set_gauge("fleet_groups", len(schedules))
        self.telemetry.set_gauge("fleet_effective_workers", effective)
        for index, schedule in enumerate(schedules):
            self.telemetry.inc(
                "fleet_group_windows",
                schedule.total_windows,
                group=f"g{index}",
            )
        return [
            self._assemble(stream, decode)
            for stream, decode in zip(encoded, decodes)
        ]

    def _plan_sharding(
        self, schedules: list[GroupSchedule]
    ) -> tuple[str, int]:
        """Choose the sharding layout for this run's schedules.

        Returns ``(mode, effective_workers)`` with mode one of
        ``"in-process"``, ``"groups"`` (partition whole operator
        groups) or ``"columns"`` (split the single group's pooled
        column stream).  When sharding was requested but nothing can be
        split, emits the mandated single-line warning naming the
        reason and plans in-process.
        """
        requested = self.workers or 1
        self.last_fallback_reason = None
        if requested < 2:
            return "in-process", 1
        if len(schedules) >= 2:
            return "groups", min(requested, len(schedules))
        if schedules[0].num_batches >= 2:
            return "columns", min(requested, schedules[0].num_batches)
        self.last_fallback_reason = (
            f"workers={requested} requested but the single operator "
            f"group's {schedules[0].total_windows} window(s) fit one "
            f"batch (batch_size={self.batch_size}); nothing to shard"
        )
        warnings.warn(
            f"fleet decode falling back to a single process: "
            f"{self.last_fallback_reason}",
            RuntimeWarning,
            stacklevel=3,
        )
        return "in-process", 1

    def _pool_map(self, fn, tasks: list, workers: int) -> list | None:
        """Map tasks over a fresh pool; ``None`` if no pool can start.

        A platform without working ``multiprocessing`` primitives (no
        fork/spawn, no POSIX semaphores) raises at pool construction —
        that is the *platform* fallback: warn once with the underlying
        error and let :meth:`run` decode in-process instead.
        """
        import multiprocessing

        try:
            pool = multiprocessing.Pool(processes=workers)
        except (ImportError, OSError, ValueError) as exc:
            self.last_fallback_reason = (
                f"multiprocessing pool unavailable on this platform ({exc})"
            )
            warnings.warn(
                f"fleet decode falling back to a single process: "
                f"{self.last_fallback_reason}",
                RuntimeWarning,
                stacklevel=4,
            )
            return None
        with pool:
            return pool.map(fn, tasks, chunksize=1)

    # ------------------------------------------------------------------
    def _encode(self, task: StreamTask) -> _EncodedStream:
        if task.system.decoder.warm_start:
            raise ConfigurationError(
                "fleet decode does not support warm_start decoders: "
                "pooled batches span streams, so the per-stream "
                "previous-solution chain cannot be reproduced; disable "
                "warm_start or use stream(batch_size=...) per stream"
            )
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

    def _run_inprocess(
        self,
        encoded: list[_EncodedStream],
        schedules: list[GroupSchedule],
    ) -> list[_StreamDecode]:
        """Single-process pooled decode, reusing each lead decoder's
        already-materialized operator and Lipschitz constant."""
        decodes: list[_StreamDecode | None] = [None] * len(encoded)
        for schedule in schedules:
            members = [encoded[s] for s in schedule.stream_ids]
            lead = members[0].task.system.decoder
            outputs = _decode_group(
                lead.batched_solver(),
                lead.transform,
                schedule,
                [m.task.system.decoder.payload for m in members],
                [m.packets for m in members],
                [m.config.lam for m in members],
                [m.dc_offset for m in members],
                members[0].config.max_iterations,
                members[0].config.tolerance,
                members[0].precision,
                self.telemetry,
            )
            for stream_id, out in zip(schedule.stream_ids, outputs):
                decodes[stream_id] = out
        assert all(decode is not None for decode in decodes)
        return decodes  # type: ignore[return-value]

    def _run_sharded(
        self,
        encoded: list[_EncodedStream],
        schedules: list[GroupSchedule],
        workers: int,
    ) -> list[_StreamDecode] | None:
        """Partition operator groups across a multiprocessing pool.

        Only reached with >= 2 shardable groups — :meth:`run` plans
        the column or in-process layout otherwise, before any packet
        is serialized.  Returns ``None`` when no pool can start.
        """
        group_tasks = []
        for schedule in schedules:
            members = [encoded[s] for s in schedule.stream_ids]
            group_tasks.append(
                {
                    "stream_ids": schedule.stream_ids,
                    "batch_size": self.batch_size,
                    "precision": members[0].precision,
                    "max_iterations": members[0].config.max_iterations,
                    "tolerance": members[0].config.tolerance,
                    "streams": [
                        {
                            "config": dataclasses.asdict(m.config),
                            "codebook": m.task.system.decoder.codebook,
                            "lam": m.config.lam,
                            "dc_offset": m.dc_offset,
                            "packets": [p.to_bytes() for p in m.packets],
                        }
                        for m in members
                    ],
                }
            )

        group_outputs = self._pool_map(
            _worker_decode_group, group_tasks, workers
        )
        if group_outputs is None:
            return None

        decodes: list[_StreamDecode | None] = [None] * len(encoded)
        for schedule, group_out in zip(schedules, group_outputs):
            self.telemetry.absorb(group_out["telemetry"])
            for stream_id, out in zip(
                schedule.stream_ids, group_out["streams"]
            ):
                decodes[stream_id] = _StreamDecode(
                    samples_adu=out["samples_adu"],
                    iterations=out["iterations"],
                    decode_seconds=out["decode_seconds"],
                )
        assert all(decode is not None for decode in decodes)
        return decodes  # type: ignore[return-value]

    def _run_column_sharded(
        self,
        encoded: list[_EncodedStream],
        schedule: GroupSchedule,
        workers: int,
    ) -> list[_StreamDecode] | None:
        """Split one group's pooled column stream across the pool.

        The intra-group layout for the paper's fleet shape: every node
        ships the same fixed matrix, so there is exactly one operator
        group and group sharding would serialize on one process's
        BLAS.  Stages 1-2 (stateful, cheap) run in the parent; the
        pooled ``(m, B)`` measurement block is then cut into
        batch-aligned contiguous column slices (:func:`split_batches`),
        one per worker, each solved by :func:`solve_measurement_block`
        with the worker's seed-rebuilt operator.  Per-batch column
        composition is identical to the in-process path, so the decoded
        output is bit-identical.  Returns ``None`` when no pool can
        start.
        """
        members = [encoded[s] for s in schedule.stream_ids]
        dtype = (
            np.float32 if members[0].precision == "float32" else np.float64
        )
        pooled, fractions, payload_share = _pool_group_columns(
            [m.task.system.decoder.payload for m in members],
            [m.packets for m in members],
            [m.config.lam for m in members],
            schedule.counts,
            dtype,
        )

        spans = list(schedule.batches())
        column_tasks = []
        slice_bounds = []
        for first, last in split_batches(len(spans), workers):
            col_start, col_stop = spans[first][0], spans[last - 1][1]
            slice_bounds.append((col_start, col_stop))
            column_tasks.append(
                {
                    "config": dataclasses.asdict(members[0].config),
                    "precision": members[0].precision,
                    "block": pooled[:, col_start:col_stop],
                    "fractions": fractions[col_start:col_stop],
                    "batch_size": self.batch_size,
                    "max_iterations": members[0].config.max_iterations,
                    "tolerance": members[0].config.tolerance,
                }
            )

        slice_outputs = self._pool_map(
            solve_measurement_block, column_tasks, len(column_tasks)  # repro-lint: disable=RL009 — column sharding intentionally ships pooled measurement columns (stages 1-2 already ran per-member in the parent); workers still rebuild the operator from the config seed
        )
        if slice_outputs is None:
            return None

        n = members[0].config.n
        outputs = _allocate_stream_outputs(
            schedule.counts, payload_share, n
        )
        dc_offsets = [m.dc_offset for m in members]
        for (col_start, col_stop), out in zip(slice_bounds, slice_outputs):
            self.telemetry.absorb(out["telemetry"])
            _scatter_columns(
                outputs,
                schedule,
                col_start,
                col_stop,
                out["signals"],
                out["iterations"],
                out["seconds"],
                dc_offsets,
            )

        decodes: list[_StreamDecode | None] = [None] * len(encoded)
        for stream_id, out in zip(schedule.stream_ids, outputs):
            decodes[stream_id] = out
        assert all(decode is not None for decode in decodes)
        return decodes  # type: ignore[return-value]

    # ------------------------------------------------------------------
    def _assemble(
        self, stream: _EncodedStream, decode: _StreamDecode
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
                    decode.samples_adu[index],
                    int(decode.iterations[index]),
                    float(decode.decode_seconds[index]),
                    stream.dc_offset,
                )
            )
        if task.keep_signals:
            result.original_adu = stream.windows.astype(np.float64).reshape(-1)
            result.reconstructed_adu = decode.samples_adu.reshape(-1)
        return result


def decode_fleet(
    tasks: Sequence[StreamTask],
    batch_size: int = DEFAULT_BATCH_SIZE,
    workers: int | None = None,
) -> list[StreamResult]:
    """Convenience wrapper: one-shot fleet decode of many streams."""
    return FleetDecoder(batch_size=batch_size, workers=workers).run(tasks)
