"""The asyncio ingestion gateway: live node links feeding pooled solves.

:class:`IngestGateway` is the coordinator-side front end the paper's
deployment implies: many body-worn nodes stream compressed ECG over a
radio link, and the monitor must decode *all* of them in real time.
Where :class:`~repro.fleet.FleetDecoder` is fed whole pre-read records,
the gateway decodes incrementally from whatever links are currently
connected:

- each accepted connection (TCP, or the in-process loopback used by
  tests) performs the :class:`~repro.ingest.protocol.Handshake` and
  then streams ``PACKET`` frames;
- stages 1-2 (entropy decode, redundancy re-insertion, dequantization
  — stateful, cheap) run in the session's read loop, in arrival order;
- the resulting measurement columns are pooled per *operator group*
  (:func:`~repro.core.decoder.solve_key`), exactly like the offline
  fleet: batches fill across whatever streams share the group, so
  ragged live streams merge into full-width solves.  A group lives
  while a session of it is open: the last one to finalize drops it
  and stops its flush loop;
- dispatch is work-conserving, the way Nagle's algorithm is: while
  fewer than ``workers`` solves are in flight a group flushes whatever
  is pending at once, so batches form only behind a busy solver.
  Otherwise a group flushes when ``batch_size`` columns are pending,
  when the oldest pending column has waited ``flush_ms`` (the bound on
  a window held up by another group's solve), or when a stream ends
  (disconnect or ``BYE``) with columns still pending — a partial batch
  always decodes;
- each flushed block is solved by the same
  :func:`~repro.fleet.engine.solve_measurement_block` the offline
  fleet maps its batches through, on the same
  :class:`~repro.fleet.executor.SolveExecutor` — on threads, or on a
  process pool when ``workers >= 2`` — up to one per CPU that BLAS
  leaves free by default, which *is* intra-group sharding: successive
  batches of one operator group decode concurrently.

Backpressure is per stream: a session may have at most
``max_pending`` windows in flight; past that its read loop stops
pulling frames, which on TCP propagates to the node's socket.  The
quota is acquired *before* any per-frame work (CRC parse, entropy
decode, dequantization), so a flooding node cannot buy unbounded
gateway CPU ahead of its backpressure bound.  One slow stream
therefore cannot grow the gateway's memory unboundedly or starve its
group-mates.

The wire is treated as lossy (:mod:`repro.ingest.channel`): each
session tracks the expected next sequence number; duplicates and stale
reordered frames are dropped idempotently, a corrupt-CRC frame is
counted and discarded, and a sequence gap puts stage 2 into a *resync*
state that discards difference packets until the next keyframe
re-anchors the cumulative chain — so one loss event damages at most
``keyframe_interval`` windows, and every damaged window is accounted
in :class:`IngestStreamResult` / :class:`GatewayStats` rather than
silently corrupting the reconstruction.

Sessions that negotiate ``fec`` (protocol v2) run the two-tier
:class:`~repro.ingest.channel.StreamRecovery` front-end instead of
resyncing on the first gap: the epoch's ``PARITY`` frame reconstructs
a single loss locally, and a ``NACK`` frame — sent over the existing
ack channel, off the solve path — solicits retransmission of a gap
three later frames have passed, unless parity filled it first.  The link stays open for a bounded deadline after
``BYE`` so even a trailing loss can be retransmitted; only when the
budget, the hold cap, or the deadline runs out does the held run drain
through the plain keyframe-resync path above.  Recovered windows are
accounted separately (``windows_recovered_parity`` /
``windows_recovered_retransmit``), never double-counted as lost.

The decoded output is bit-identical to the offline path: every flushed
block runs the same batched solve the offline engine would run on the
same columns; ``tests/ingest/test_gateway_hybrid.py`` replays the
gateway's logged batch compositions through the offline solver to pin
it, and every ``benchmarks/e2e`` run does the same at the paper point
(``check_batch_replay``).
"""

from __future__ import annotations

import asyncio
import dataclasses
import itertools
import math
import time
import warnings
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from ..core.decoder import PacketPayloadDecoder, solve_key
from ..errors import (
    ConfigurationError,
    DecodingError,
    PacketFormatError,
    ProtocolError,
)
from ..fleet.engine import solve_measurement_block
from ..fleet.executor import SolveExecutor
from ..telemetry import DEFAULT_SIZE_BUCKETS, MetricsRegistry
from .channel import (
    FrameVerdict,
    LossAccounting,
    SequenceTracker,
    StreamRecovery,
    header_sequence,
)
from .protocol import (
    ACK_DAMAGE_FIELDS,
    FrameKind,
    Handshake,
    decode_json_body,
    encode_json_frame,
    read_frame,
    read_hello,
)

#: default flush deadline: a pending window held up by another group's
#: solve waits at most this long before decoding.  Chosen well inside
#: the paper's 2-second real-time budget, leaving room for the solve.
DEFAULT_FLUSH_MS = 250.0

#: how long a link stays open after ``BYE`` for retransmissions still
#: owed — the recovery layer's only wall-clock escape.  Fixed: it fires
#: only when an awaited retransmit never arrives (live and offline
#: accounting then give up identically), and one second covers several
#: round trips of any link the 2 s window budget tolerates.
NACK_DEADLINE_S = 1.0

#: how many of its own window periods (``n / sample_rate_hz``, 2 s at
#: the paper's point) a link may stay silent between ``HELLO`` and
#: ``BYE``.  A node samples without pause, so even a true-rate link is
#: never quiet for longer than one period; a link silent for this many
#: is dead and is finalized as a mid-stream error (its pooled windows
#: still decode).  Only time spent waiting on the node counts, never
#: time the session spends parked on its own backpressure quota.
IDLE_DEADLINE_WINDOWS = 5

#: the :class:`~repro.ingest.channel.LossAccounting` counters every
#: result/stats view carries, each an ``ingest_<name>`` counter family
DAMAGE_COUNTERS = tuple(f.name for f in dataclasses.fields(LossAccounting))

#: the positional per-window lists of :class:`IngestStreamResult`, row
#: ``i`` of each describing the same decoded window
WINDOW_LISTS = (
    "indices",
    "sequences",
    "iterations",
    "decode_seconds",
    "latencies_s",
    "samples_adu",
)


class _LoopbackWriter:
    """Minimal in-process ``StreamWriter`` stand-in for tests/benches.

    Feeds written bytes straight into the peer's
    :class:`asyncio.StreamReader`.  ``close()`` delivers EOF to the
    peer, so an abrupt close mid-frame reproduces a truncated-stream
    disconnect exactly as a dropped TCP connection would.
    """

    def __init__(self, peer_reader: asyncio.StreamReader) -> None:
        self._peer = peer_reader
        self._closed = False

    def write(self, data: bytes) -> None:
        if not self._closed:
            self._peer.feed_data(data)

    async def drain(self) -> None:
        return None

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._peer.feed_eof()

    async def wait_closed(self) -> None:
        return None


class _IdleWatchdog:
    """The mid-stream idle deadline of one link, O(1) per frame.

    :meth:`reading` before each frame read starts the clock and
    :meth:`stop` after it stops it, so only the node's silence counts.
    One ``call_at`` timer backs it and is re-armed lazily: when it
    fires before the latest deadline it re-arms for that deadline, and
    once the deadline passes mid-read it fails the link's reader with
    a :class:`~repro.errors.ProtocolError`.
    """

    def __init__(self, reader: asyncio.StreamReader, timeout_s: float) -> None:
        self._loop = asyncio.get_running_loop()
        self._reader = reader
        self._timeout_s = timeout_s
        self._deadline: float | None = None
        self._timer: asyncio.TimerHandle | None = None

    def reading(self) -> None:
        self._deadline = self._loop.time() + self._timeout_s
        if self._timer is None:
            self._timer = self._loop.call_at(self._deadline, self._fire)

    def stop(self) -> None:
        self._deadline = None

    def cancel(self) -> None:
        self._deadline = None
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def _fire(self) -> None:
        self._timer = None
        if self._deadline is None:
            return  # not reading: the next read re-arms
        if self._loop.time() < self._deadline:
            self._timer = self._loop.call_at(self._deadline, self._fire)
            return
        self._reader.set_exception(
            ProtocolError(
                f"link silent for {self._timeout_s:g} s "
                f"({IDLE_DEADLINE_WINDOWS} window periods) after HELLO"
            )
        )


@dataclass
class _PendingWindow:
    """One dequantized measurement column waiting for a solve.

    Its pool-entry stamp is what both the flush deadline and the
    ``queue`` stage observation are measured from; its latency also
    counts the time its own frame was held behind a recovery gap.
    """

    session: "_Session"
    index: int  # window index within the session
    sequence: int
    column: np.ndarray  # (m,) float64, as dequantized
    fraction: float  # the stream's lambda fraction
    #: loop time the frame that released it arrived (before backpressure)
    t_submit: float
    #: seconds its own frame waited behind a recovery gap before that
    held_s: float = 0.0


@dataclass
class IngestStreamResult(LossAccounting):
    """Everything the gateway retained about one completed stream.

    The lossy-channel damage accounting (``windows_lost``,
    ``windows_resynced``, ``frames_corrupt``, ``frames_duplicate``,
    ``windows_recovered_parity`` / ``_retransmit``,
    ``frames_late_retransmit`` — recovered windows are decoded, never
    also counted lost) is the inherited
    :class:`~repro.ingest.channel.LossAccounting` field set, copied
    from the session's tracker at stream end.
    """

    session_id: int
    record: str
    channel: int
    clean_close: bool  # BYE received (False: disconnect or error)
    error: str | None
    #: wall-clock session-open stamp.  Session ids order sessions
    #: within one gateway; across a federation each gateway numbers
    #: from its own ``session_id_base``, so merging a reconnecting
    #: stream's sessions (see :func:`merge_stream_results`) orders by
    #: this stamp first and falls back to the id as a tiebreak.
    opened_unix: float = 0.0
    #: whether the session's HELLO declared itself a continuation of
    #: the stream's previous session (``resumed`` flag, implied by a
    #: non-zero ``resume``).  A continuation shares its predecessor's
    #: sequence space, so a sequence seen in both sessions is the same
    #: window — replayed after the cut — and the merge deduplicates
    #: it.  A fresh session restarts the space: equal numbers are
    #: different windows and every one is kept.
    resumed: bool = False
    #: window index within the stream, in decode-completion order —
    #: monotonic for an in-process gateway, possibly interleaved when
    #: batches decode concurrently on a process pool (call
    #: :meth:`ordered` — done automatically at stream end — before
    #: reading the per-window lists positionally)
    indices: list[int] = field(default_factory=list)
    sequences: list[int] = field(default_factory=list)
    iterations: list[int] = field(default_factory=list)
    decode_seconds: list[float] = field(default_factory=list)
    latencies_s: list[float] = field(default_factory=list)
    samples_adu: list[np.ndarray] = field(default_factory=list)
    #: NACK frames' worth of sequences requested from the node
    nacks_sent: int = 0

    @property
    def num_windows(self) -> int:
        """Windows decoded for this stream (recovered ones included)."""
        return len(self.sequences)

    @property
    def stream_key(self) -> str:
        """Stream identity: ``record:channel``.

        Stable across reconnects — the telemetry plane labels every
        per-stream series with this key, so a node that drops its link
        and returns lands back in the *same* series instead of forking
        a second one, and :meth:`IngestGateway.merged_results`
        aggregates its sessions under this key.
        """
        return f"{self.record}:{self.channel}"

    @property
    def max_latency_s(self) -> float | None:
        """Worst frame-arrival-to-reconstruction latency observed, or
        ``None`` when no window was ever decoded (distinct from a true
        0.0 — "no data" must not read as "perfect latency")."""
        return max(self.latencies_s, default=None)

    def ordered(self) -> "IngestStreamResult":
        """Normalize the per-window lists to stream (window) order.

        Batches solved concurrently on a process pool can complete out
        of order, in which case the lists above interleave two batches'
        windows; this re-sorts every positional list by
        :attr:`indices` (a stable permutation applied to all of them,
        so rows stay aligned) and returns ``self``.  Idempotent; the
        gateway calls it at stream end, and any caller reading the
        lists mid-stream or after manual routing should too.
        """
        if self.indices != sorted(self.indices):
            order = np.argsort(self.indices, kind="stable")
            for name in WINDOW_LISTS:
                values = getattr(self, name)
                setattr(self, name, [values[i] for i in order])
        return self


def merge_stream_results(
    results: list[IngestStreamResult],
) -> dict[str, IngestStreamResult]:
    """Aggregate completed session results per stream identity.

    Sessions of one stream (``record:channel``) merge in temporal
    order — :attr:`IngestStreamResult.opened_unix` first, session id
    as the tiebreak, so the order is right even when a stream's
    sessions landed on different federation gateways with different
    id ranges.  Per-window lists concatenate (window indices re-based
    so :attr:`IngestStreamResult.indices` stays monotonic across the
    reconnect), damage counters sum, ``clean_close`` reflects the
    final session and the first error (if any) is preserved.

    A session that declared ``resume`` continues its predecessor's
    sequence space, so any sequence it shares with the already-merged
    windows is a *replay* (an fec node re-anchoring at its last pinned
    keyframe after a gateway failover) — decoded bit-identically on
    the new gateway, and deduplicated here so the merged stream shows
    each window once.  A session with ``resume == 0`` restarted its
    sequence space: equal sequence numbers name different windows and
    nothing is dropped.
    """
    merged: dict[str, IngestStreamResult] = {}
    ordered = sorted(results, key=lambda r: (r.opened_unix, r.session_id))
    for result in ordered:
        key = result.stream_key
        previous = merged.get(key)
        if previous is None:
            merged[key] = dataclasses.replace(
                result,
                **{name: list(getattr(result, name)) for name in WINDOW_LISTS},
            )
            continue
        replayed = (
            set(previous.sequences) if result.resumed else frozenset()
        )
        keep = [
            position
            for position, sequence in enumerate(result.sequences)
            if sequence not in replayed
        ]
        offset = max(previous.indices, default=-1) + 1
        previous.indices.extend(offset + rank for rank in range(len(keep)))
        for name in WINDOW_LISTS[1:]:  # indices: re-based above
            values = getattr(result, name)
            getattr(previous, name).extend(values[p] for p in keep)
        for name in (*DAMAGE_COUNTERS, "nacks_sent"):
            setattr(
                previous, name, getattr(previous, name) + getattr(result, name)
            )
        previous.clean_close = result.clean_close
        if previous.error is None:
            previous.error = result.error
    return merged


@dataclass
class GatewayStats(LossAccounting):
    """Aggregate view of one gateway's lifetime.

    Since the telemetry refactor this dataclass is a *read model*: the
    gateway publishes every event to its
    :class:`~repro.telemetry.MetricsRegistry` and
    :attr:`IngestGateway.stats` materializes this view from a registry
    snapshot on access.  The field vocabulary (and the tests that read
    it) are unchanged; the counters now also persist through the
    metrics sinks and merge across process-pool workers.

    ``streams`` counts distinct stream identities (``record:channel``)
    rather than sessions: a reconnecting stream id contributes one
    stream however many sessions it opened (``sessions_opened`` keeps
    counting sessions).  The inherited
    :class:`~repro.ingest.channel.LossAccounting` fields are the
    lossy-channel damage and two-tier recovery outcomes summed across
    all sessions.
    """

    sessions_opened: int = 0
    sessions_completed: int = 0
    sessions_errored: int = 0
    #: distinct stream identities served (a reconnect is not a new one)
    streams: int = 0
    windows_decoded: int = 0
    batches: int = 0
    flushes_full: int = 0
    flushes_deadline: int = 0
    flushes_drain: int = 0
    #: partial batches taken at once by an idle solver
    flushes_idle: int = 0
    cross_stream_batches: int = 0
    nacks_sent: int = 0
    #: ``None`` until the first window decodes — "no data yet" must
    #: not be reported as a perfect 0.0 latency
    max_latency_s: float | None = None


class _Session:
    """Gateway-side state of one connected node link."""

    def __init__(
        self,
        session_id: int,
        handshake: Handshake,
        writer,
        max_pending: int,
        telemetry: MetricsRegistry,
    ) -> None:
        self.id = session_id
        self.handshake = handshake
        self.writer = writer
        self.payload = PacketPayloadDecoder(
            handshake.config, codebook=handshake.codebook
        )
        self.dc_offset = 1 << (handshake.config.adc_bits - 1)
        self.quota = asyncio.Semaphore(max_pending)
        self.group: "_GroupPool | None" = None  # set by the gateway
        # telemetry series are labeled by stream identity, not session
        # id: a reconnecting node keeps accumulating its own series
        self.stream_key = f"{handshake.record}:{handshake.channel}"
        self.meter = telemetry.meter(stream=self.stream_key)
        self.tracker = SequenceTracker(meter=self.meter)
        # a reconnecting node declares where it resumes (protocol.py:
        # Handshake.resume): baseline the tracker there so the prefix
        # an earlier session already carried is not charged as lost.
        # The recovery anchor still awaits a keyframe, so the *windows*
        # resync exactly as a loss would — resume fixes the accounting.
        self.tracker.expected = handshake.resume
        #: the two-tier recovery front-end; wired by the gateway in
        #: _register (it owns the NACK send path and the budget)
        self.recovery: StreamRecovery | None = None
        #: arrival time of each frame recovery holds behind a gap, by
        #: sequence: the machine stays time-free, the gateway keeps it
        self.held_since: dict[int, float] = {}
        self.windows_submitted = 0
        self.outstanding = 0
        self.closed = False
        self.all_done = asyncio.Event()
        self.result = IngestStreamResult(
            session_id=session_id,
            record=handshake.record,
            channel=handshake.channel,
            clean_close=False,
            error=None,
            opened_unix=time.time(),
            resumed=handshake.resumed,
        )

    def check_done(self) -> None:
        """Release finalization once every in-flight window decoded."""
        if self.closed and self.outstanding == 0:
            self.all_done.set()


class _GroupPool:
    """Pending measurement columns of one operator group."""

    def __init__(
        self, key: tuple, config, precision: str, label: str = "g0"
    ) -> None:
        self.key = key
        self.label = label  # short stable telemetry label ("g0", "g1")
        self.config = config
        self.precision = precision
        self.pending: deque[_PendingWindow] = deque()
        self.event = asyncio.Event()
        self.drain_task: asyncio.Task | None = None

    def has_orphans(self) -> bool:
        """Pending windows whose stream already ended — these must
        flush now (partial batch) instead of waiting for batch-mates
        that will never come."""
        return any(window.session.closed for window in self.pending)


class IngestGateway:
    """Accept live node links and decode them through pooled solves.

    Parameters
    ----------
    batch_size:
        Widest solve; batches fill across every stream currently
        connected to the same operator group.  They fill only behind
        a busy solver: while fewer than ``workers`` solves are in
        flight, a group flushes whatever is pending at once (the
        ``idle`` trigger), so a lone real-time stream is never held
        hostage to batching.
    flush_ms:
        Flush deadline: the longest a pending window waits while
        *another* operator group's solve holds the solver — after
        this many milliseconds from frame arrival it flushes even
        though the solver is busy and the batch is not full.  Finite
        and positive.
    workers:
        Unset, one solve per CPU that BLAS leaves free on threads of
        this process (one per usable CPU with BLAS on one thread, else
        one at a time); ``0`` or ``1``, one at a time; ``>= 2``, a
        persistent process pool of that many workers
        (:func:`~repro.fleet.executor.solve_slots`).  The bound is
        gateway-wide, so batches of one group may decode concurrently.
        A partial batch leaves on ``idle`` only while fewer solves than
        processes in use (:attr:`workers`; one in-process) are in
        flight.
    max_pending:
        Per-stream backpressure bound: a session stops reading frames
        while this many of its windows await decoding.  Default
        ``4 * batch_size``.
    telemetry:
        The :class:`~repro.telemetry.MetricsRegistry` every event is
        published to; a private registry is created when omitted.
        :attr:`stats` and each stream's damage accounting are read
        models over this registry.
    nack_budget:
        Per-hold tier-2 budget: at most this many sequences (re-NACKs
        included) are NACKed for retransmission while one recovery
        hold is open; a gap that would exceed it falls back to
        keyframe resync immediately.  It refills when the hold closes.
        After ``BYE`` the link stays open :data:`NACK_DEADLINE_S` for
        retransmissions still owed.
    session_id_base:
        First session id this gateway assigns.  A federation front
        door gives each gateway a disjoint range so stream ids stay
        unique across the fleet; standalone gateways keep 0.
    """

    def __init__(
        self,
        batch_size: int = 32,
        flush_ms: float = DEFAULT_FLUSH_MS,
        workers: int | None = None,
        max_pending: int | None = None,
        telemetry: MetricsRegistry | None = None,
        nack_budget: int = 8,
        session_id_base: int = 0,
    ) -> None:
        if batch_size < 1:
            raise ConfigurationError(
                f"batch_size must be >= 1, got {batch_size}"
            )
        # spelled so NaN fails too: a NaN deadline never expires, so a
        # window pooled behind a busy solver would never be acked
        if not 0.0 < flush_ms < math.inf:
            raise ConfigurationError(
                f"flush_ms must be finite and positive, got {flush_ms}"
            )
        if workers is not None and workers < 0:
            raise ConfigurationError(f"workers must be >= 0, got {workers}")
        if max_pending is not None and max_pending < 1:
            raise ConfigurationError(
                f"max_pending must be >= 1, got {max_pending}"
            )
        if nack_budget < 0:
            raise ConfigurationError(
                f"nack_budget must be >= 0, got {nack_budget}"
            )
        if session_id_base < 0:
            raise ConfigurationError(
                f"session_id_base must be >= 0, got {session_id_base}"
            )
        self.nack_budget = nack_budget
        self.batch_size = batch_size
        self.flush_s = flush_ms / 1000.0
        #: processes solving (1 in-process): the ``idle`` bound
        self.workers = workers if workers else 1
        self._requested_workers = workers
        self.telemetry = telemetry if telemetry is not None else MetricsRegistry()
        self.max_pending = (
            max_pending if max_pending is not None else 4 * batch_size
        )
        #: completed stream results, in session-open order
        self.results: list[IngestStreamResult] = []
        #: per-flush composition log: ``(group_key, [(session_id,
        #: window_index), ...], reason)`` — lets tests and the bench
        #: replay the exact pooled blocks through the offline solver
        self.batch_log: list[tuple[tuple, list[tuple[int, int]], str]] = []

        self._groups: dict[tuple, _GroupPool] = {}
        self._sessions: dict[int, _Session] = {}
        # a federation assigns each gateway a disjoint id range, so
        # session ids stay unique fleet-wide and a reconnecting stream's
        # sessions on different gateways never collide when merged
        self._next_session_id = session_id_base
        self._quiescing = False
        self._closing = False
        self._server: asyncio.AbstractServer | None = None
        self._conn_tasks: set[asyncio.Task] = set()
        # conn tasks already past their read loop, waiting out their
        # session's drain: close() must not cancel these (see there)
        self._draining_tasks: set[asyncio.Task] = set()
        self._solve_tasks: set[asyncio.Task] = set()
        #: solves submitted and not yet returned, across every group:
        #: the idle trigger's signal
        self._inflight = 0
        self._executor: SolveExecutor | None = None  # started on first flush
        self.port: int | None = None

    # ------------------------------------------------------------------
    # telemetry read models
    # ------------------------------------------------------------------
    @property
    def stats(self) -> GatewayStats:
        """The aggregate :class:`GatewayStats` view, materialized from
        the telemetry registry on access."""
        return gateway_stats_from(self.telemetry)

    def merged_results(self) -> dict[str, IngestStreamResult]:
        """Completed results aggregated per stream identity.

        A node that reconnects opens a new *session*, but it is still
        the same *stream* (``record:channel``); counting its sessions
        as two streams — and reading only the newest session's
        counters — silently dropped the first session's damage
        accounting.  See :func:`merge_stream_results` (the same merge
        a federation front door applies across gateways).
        """
        return merge_stream_results(self.results)


    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self, host: str = "127.0.0.1", port: int = 0) -> int:
        """Bind the TCP listener; returns the actual port (``port=0``
        asks the OS for a free one)."""
        self._server = await asyncio.start_server(
            self._handle_connection, host, port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self.port

    def connect_local(self):
        """Open an in-process link: returns ``(reader, writer)`` for a
        node-side client, with the gateway serving the other end.

        The transport for tests and benches: no sockets, same frames,
        same session code path as TCP.
        """
        if self._closing or self._quiescing:
            raise ConfigurationError("gateway is closed")
        client_reader = asyncio.StreamReader()
        server_reader = asyncio.StreamReader()
        client_writer = _LoopbackWriter(server_reader)
        server_writer = _LoopbackWriter(client_reader)
        # _handle_connection self-registers in _conn_tasks
        asyncio.create_task(
            self._handle_connection(server_reader, server_writer)
        )
        return client_reader, client_writer

    async def close(self, *, drain_s: float = 30.0) -> None:
        """Stop accepting, drain in-flight work, release executors.

        Closing is two-phase.  **Drain** (bounded by ``drain_s``):
        the listener stops, every link's read loop is cancelled, and
        each session runs its normal stream-end path — pending
        windows flush as partial batches, in-flight solves complete
        and route their results — while the drain loops and the
        solver pool are still alive.  Only then **teardown**:
        ``_closing`` flips (failing any flush that would reach a dead
        pool), the drain loops stop, and the executors shut down.
        Setting ``_closing`` *first* — the old order — made the
        stream-end drain itself fail its batches: a close racing a
        long solve dropped completed results and errored the
        sessions.  Sessions still stuck past the deadline are
        abandoned with a warning rather than wedging ``close()``
        forever.
        """
        self._quiescing = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        loop = asyncio.get_running_loop()
        deadline = loop.time() + drain_s
        # cut the read loops; each session's finally-path finalize
        # marks it closed and wakes its group, so stragglers flush as
        # partial batches and results publish before teardown.  Tasks
        # already draining (past their read loop, e.g. a BYE'd session
        # awaiting a slow solve) are left alone — cancelling them would
        # kill the finalize itself; _settle waits for them, and the
        # deadline path below still abandons any that wedge.
        for task in list(self._conn_tasks):
            if task not in self._draining_tasks:
                task.cancel()
        stuck = await self._settle(self._conn_tasks, deadline)
        if stuck:
            warnings.warn(
                f"ingest gateway close(): {len(stuck)} session(s) still "
                f"draining after {drain_s:.1f}s; abandoning their "
                "results",
                RuntimeWarning,
            )
            for task in stuck:
                task.cancel()
            await asyncio.gather(*stuck, return_exceptions=True)
        # every cleanly finalized session has routed all its windows,
        # so only abandoned sessions' solves can still be running here
        late = await self._settle(self._solve_tasks, deadline)
        for task in late:
            task.cancel()
        if late:
            await asyncio.gather(*late, return_exceptions=True)
        self._closing = True
        for group in self._groups.values():
            if group.drain_task is not None:
                group.drain_task.cancel()
        drains = [
            g.drain_task
            for g in self._groups.values()
            if g.drain_task is not None
        ]
        if drains:
            await asyncio.gather(*drains, return_exceptions=True)
        if self._executor is not None:
            self._executor.close()
            self._executor = None

    async def _settle(
        self, tasks: set[asyncio.Task], deadline: float
    ) -> set[asyncio.Task]:
        """Await ``tasks`` until ``deadline``; returns the stragglers.

        The set is re-snapshotted each round because a settling
        session can schedule new solve tasks (its partial-batch
        flush) that must also drain before pool teardown.
        """
        loop = asyncio.get_running_loop()
        while True:
            pending = {task for task in tasks if not task.done()}
            if not pending:
                return set()
            timeout = deadline - loop.time()
            if timeout <= 0:
                return pending
            await asyncio.wait(pending, timeout=timeout)

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        """Serve one node link end to end (both transports)."""
        # self-register so close() can cancel mid-stream links — TCP
        # handler tasks are spawned by asyncio.start_server, which does
        # not hand them to us any other way
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
            task.add_done_callback(self._conn_tasks.discard)
        session: _Session | None = None
        watchdog: _IdleWatchdog | None = None
        try:
            body = await read_hello(reader)
            if body is None:
                return
            handshake = Handshake.from_body(body)
            session = self._register(handshake, writer)
            self._send_json(
                session,
                FrameKind.WELCOME,
                # echo the version the node actually speaks, so a v1
                # node is never promised v2 frames
                {"protocol": handshake.protocol, "stream_id": session.id},
            )
            await writer.drain()
            watchdog = _IdleWatchdog(
                reader,
                IDLE_DEADLINE_WINDOWS * handshake.config.packet_seconds,
            )
            while True:
                watchdog.reading()
                frame = await read_frame(reader)
                watchdog.stop()
                if frame is None:
                    break  # mid-stream disconnect (no BYE)
                kind, body = frame
                if kind is FrameKind.PACKET:
                    await self._submit(session, body)
                elif kind is FrameKind.PARITY:
                    await self._submit(session, body, kind=kind)
                elif kind is FrameKind.BYE:
                    declared = None
                    if body:
                        # a BYE may declare how many windows were sent,
                        # so a trailing loss (no later packet to reveal
                        # the gap) is still accounted
                        declared = decode_json_body(body).get("windows")
                        if declared is not None:
                            try:
                                declared = int(declared)
                            except (
                                TypeError,
                                ValueError,
                                OverflowError,
                            ) as exc:
                                raise ProtocolError(
                                    f"invalid BYE window count "
                                    f"{declared!r}"
                                ) from exc
                    events = session.recovery.bye(declared)
                    await self._admit_events(session, events)
                    session.result.clean_close = True
                    if session.recovery.holding:
                        # a fec session may still be owed retransmits
                        # (tail gap / outstanding NACKs): keep reading
                        # for a bounded deadline before giving up
                        await self._await_retransmits(session, reader)
                    break
                else:
                    raise ProtocolError(
                        f"unexpected {kind.name} frame from a node"
                    )
        except (ProtocolError, PacketFormatError, DecodingError) as exc:
            if session is not None:
                session.meter.inc("ingest_sessions_errored")
                session.result.error = str(exc)
            else:
                # failed before the handshake: no stream to label
                self.telemetry.inc("ingest_sessions_errored")
            try:
                writer.write(
                    encode_json_frame(FrameKind.ERROR, {"error": str(exc)})
                )
                await writer.drain()
            except (ConnectionError, RuntimeError):
                pass
        except (ConnectionError, asyncio.CancelledError):
            pass  # dropped link or gateway shutdown: finalize below
        finally:
            if watchdog is not None:
                watchdog.cancel()
            if session is not None:
                # mark before the first await: from here the task is on
                # its stream-end path (waiting for its own drain flush
                # and in-flight solves), and close() must wait for it
                # rather than cancel it — a cancel landing inside
                # _finalize killed the very drain close() was promising
                # and dropped the session's completed results
                current = asyncio.current_task()
                if current is not None:
                    self._draining_tasks.add(current)
                    current.add_done_callback(self._draining_tasks.discard)
                await self._finalize(session)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, RuntimeError):
                pass

    def _register(self, handshake: Handshake, writer) -> _Session:
        """Admit a handshaken link: create its session and group."""
        session = _Session(
            self._next_session_id,
            handshake,
            writer,
            self.max_pending,
            self.telemetry,
        )
        self._next_session_id += 1
        self._sessions[session.id] = session
        session.recovery = StreamRecovery(
            session.tracker,
            session.payload,
            fec=handshake.fec,
            nack_budget=self.nack_budget,
            # NACKs ride the existing best-effort ack channel, sent
            # from the read loop — never from the solve path
            on_nack=lambda sequences, s=session: self._send_json(
                s,
                FrameKind.NACK,
                {"sequences": [int(seq) for seq in sequences]},
            ),
        )
        session.meter.inc("ingest_sessions_opened")
        key = solve_key(handshake.config, handshake.precision)
        if key not in self._groups:
            # the smallest free label: groups come and go, and a label
            # names one ingest_queue_depth series
            taken = {group.label for group in self._groups.values()}
            group = _GroupPool(
                key,
                handshake.config,
                handshake.precision,
                label=next(
                    f"g{i}" for i in itertools.count() if f"g{i}" not in taken
                ),
            )
            group.drain_task = asyncio.create_task(self._drain(group))
            self._groups[key] = group
        session.group = self._groups[key]
        return session

    async def _submit(
        self,
        session: _Session,
        body: bytes,
        kind: FrameKind = FrameKind.PACKET,
    ) -> None:
        """Admit one PACKET/PARITY frame through recovery and pool
        whatever windows it releases.

        Awaiting the session quota *here* is the backpressure
        mechanism: while this stream has ``max_pending`` windows in
        flight, its read loop stops consuming frames.  The quota is
        acquired before any per-frame work — CRC parse, sequence
        check, entropy decode — so a node flooding the link cannot
        spend gateway CPU beyond its backpressure bound; a cancelled
        wait (disconnect mid-backpressure) holds no permit and has
        registered nothing, so nothing leaks.  A recovery drain can
        release several windows from one frame; each past the first
        acquires its own permit, preserving the bound.
        """
        # latency is "frame arrival to reconstruction" (protocol.py):
        # stamp before stages 1-2 and before the quota wait, so a
        # window queued behind backpressure reports its true age
        arrived = asyncio.get_running_loop().time()
        await session.quota.acquire()
        recovery = session.recovery
        if kind is FrameKind.PARITY:
            events = recovery.on_parity(body)
        else:
            events = recovery.on_packet(body)
            if recovery.holding:
                sequence = header_sequence(body)
                if recovery.held(sequence):
                    session.held_since.setdefault(sequence, arrived)
        await self._admit_events(
            session, events, arrived=arrived, permit_held=True
        )

    async def _admit_events(
        self,
        session: _Session,
        events,
        arrived: float | None = None,
        permit_held: bool = False,
    ) -> None:
        """Pool every ACCEPTed window recovery released.  The caller's
        already-held permit (if any) covers the first accept; further
        accepts from the same drain each acquire their own.  A window
        that waited behind a gap has its wait observed as
        ``ingest_stage_seconds{stage="hold"}``."""
        if arrived is None:
            arrived = asyncio.get_running_loop().time()
        for verdict, packet in events:
            if verdict is FrameVerdict.RESYNC_SKIP:
                session.held_since.pop(packet.sequence, None)
            if verdict is not FrameVerdict.ACCEPT:
                # discarded frame (corrupt / duplicate / stale / late
                # retransmit / resync skip): accounted in the session
                # tracker, never pooled
                continue
            if packet.sequence in session.held_since:
                held_s = arrived - session.held_since.pop(packet.sequence)
                self.telemetry.observe(
                    "ingest_stage_seconds", held_s, stage="hold"
                )
            else:
                held_s = 0.0
            if permit_held:
                permit_held = False
            else:
                await session.quota.acquire()
            self._pool_window(session, packet, arrived, held_s)
        if permit_held:
            session.quota.release()

    def _pool_window(
        self, session: _Session, packet, arrived: float, held_s: float
    ) -> None:
        """Stages 1-2 on one accepted packet, then pool its column."""
        y_q = session.payload.decode_payload(packet)
        column = session.payload.quantizer.dequantize(y_q)
        window = _PendingWindow(
            session=session,
            index=session.windows_submitted,
            sequence=packet.sequence,
            column=column,
            fraction=session.handshake.config.lam,
            t_submit=arrived,
            held_s=held_s,
        )
        session.windows_submitted += 1
        session.outstanding += 1
        group = session.group
        group.pending.append(window)
        self.telemetry.set_gauge(
            "ingest_queue_depth", len(group.pending), group=group.label
        )
        group.event.set()

    async def _await_retransmits(self, session: _Session, reader) -> None:
        """Post-BYE grace window: keep serving retransmissions (and a
        late parity) until recovery is satisfied or the deadline runs
        out.  Whatever is still missing afterwards is given up in
        :meth:`_finalize` — the same :meth:`StreamRecovery.give_up`
        path an offline replay takes at end of stream."""
        loop = asyncio.get_running_loop()
        deadline = loop.time() + NACK_DEADLINE_S
        while session.recovery.holding:
            timeout = deadline - loop.time()
            if timeout <= 0:
                return
            try:
                frame = await asyncio.wait_for(read_frame(reader), timeout)
            except (asyncio.TimeoutError, ProtocolError):
                return
            if frame is None:
                return  # node hung up: give up in _finalize
            kind, body = frame
            if kind in (FrameKind.PACKET, FrameKind.PARITY):
                await self._submit(session, body, kind=kind)
            # anything else post-BYE is noise; keep waiting

    async def _finalize(self, session: _Session) -> None:
        """Flush the stream's stragglers, then publish its result."""
        # drain the recovery layer first: a gap still open at link end
        # is given up, its held frames admitted through the plain
        # resync path (idempotent; a no-op for fec-off sessions)
        try:
            await self._admit_events(session, session.recovery.give_up())
        except (DecodingError, PacketFormatError) as exc:
            if session.result.error is None:
                session.result.error = str(exc)
                session.meter.inc("ingest_sessions_errored")
        session.closed = True
        # wake the drain loop: this session's pending windows are now
        # orphans and must decode as a partial batch (other sessions'
        # batching is untouched — the orphan check is per window)
        session.group.event.set()
        session.check_done()
        await session.all_done.wait()
        self._sessions.pop(session.id, None)
        # a HELLO may name any operator: the group of the last session
        # to leave goes with it, so groups and their flush loops stay
        # bounded by the sessions open
        group = session.group
        if not group.pending and all(
            other.group is not group for other in self._sessions.values()
        ):
            group.drain_task.cancel()
            del self._groups[group.key]
        # concurrent batch solves may have completed out of order:
        # restore stream order so callers see windows as the node sent
        # them, then copy the stream's damage accounting into the
        # result view (the telemetry counters were published live by
        # the session's SequenceTracker meter)
        result = session.result.ordered()
        for name in DAMAGE_COUNTERS:
            setattr(result, name, getattr(session.tracker.accounting, name))
        result.nacks_sent = session.recovery.nacks_sent
        self.results.append(result)
        if session.result.error is None:
            session.meter.inc("ingest_sessions_completed")

    # ------------------------------------------------------------------
    # batching and decode
    # ------------------------------------------------------------------
    def _flush_plan(
        self, group: _GroupPool, now: float
    ) -> tuple[str | None, float]:
        """Decide whether (and why) to flush this group right now.

        Returns ``(reason, next_due)``: a non-``None`` reason means
        flush immediately; otherwise ``next_due`` is the loop time at
        which the deadline fires.  Triggers, in precedence order:
        ``full`` (``batch_size`` columns pending), ``deadline`` (the
        oldest has waited ``flush_ms``), ``drain`` (orphaned windows
        of an ended stream) and ``idle`` (fewer than ``workers``
        solves in flight gateway-wide: holding the batch would only
        idle the solver).  With no trigger due the group waits for a
        completing solve — which wakes every group with pending
        windows — or for the deadline, whichever comes first.
        """
        if len(group.pending) >= self.batch_size:
            return "full", now
        deadline_at = group.pending[0].t_submit + self.flush_s
        if now >= deadline_at:
            return "deadline", now
        if group.has_orphans():
            return "drain", now
        if self._inflight < self.workers:
            return "idle", now
        return None, deadline_at

    async def _drain(self, group: _GroupPool) -> None:
        """Per-group flush loop: full / deadline / drain / idle."""
        loop = asyncio.get_running_loop()
        while True:
            if group.pending:
                reason, next_due = self._flush_plan(group, loop.time())
                if reason is not None:
                    await self._dispatch(group)
                    continue
                timeout = max(next_due - loop.time(), 0.0)
            else:
                timeout = None
            try:
                await asyncio.wait_for(group.event.wait(), timeout)
            except asyncio.TimeoutError:
                pass
            group.event.clear()

    async def _dispatch(self, group: _GroupPool) -> None:
        """One flush: take a solve slot, *then* pop a batch and submit it.

        The slot comes first so a batch is composed as late as possible:
        while every slot is taken the drain loop waits here, windows
        keep pooling, and the flush decision (and its reason) is made
        against what pends when a slot comes free.
        The queue wait of every member — frame arrival to submit — is
        observed as ``ingest_stage_seconds{stage="queue"}``.
        """
        if self._executor is None:
            self._executor = SolveExecutor(
                self._requested_workers, threaded=True
            )
            self.workers = self._executor.workers  # 1 after a fallback
        slot = self._executor.slot
        await slot.acquire()
        if self._closing or self._executor is None:
            # close() may have shut the executor down while this flush
            # waited for its slot; submitting then raises outside the
            # route path and silently kills the drain loop
            slot.release()
            batch = list(group.pending)
            group.pending.clear()
            self._fail_batch(batch, ConfigurationError("gateway is closed"))
            return
        loop = asyncio.get_running_loop()
        reason, _ = self._flush_plan(group, loop.time())
        if reason is None:
            # an idle flush lost its solver while waiting for the slot:
            # another group's solve is in flight now, so these windows
            # wait for it to complete (or for their deadline)
            slot.release()
            return
        count = min(self.batch_size, len(group.pending))
        batch = [group.pending.popleft() for _ in range(count)]
        self.telemetry.inc("ingest_flushes", reason=reason)
        self.telemetry.observe(
            "ingest_flush_width",
            count,
            buckets=DEFAULT_SIZE_BUCKETS,
        )
        self.telemetry.set_gauge(
            "ingest_queue_depth", len(group.pending), group=group.label
        )
        if len({w.session.id for w in batch}) > 1:
            self.telemetry.inc("ingest_cross_stream_batches")
        self.batch_log.append(
            (group.key, [(w.session.id, w.index) for w in batch], reason)
        )

        task = {
            "config": dataclasses.asdict(group.config),
            "precision": group.precision,
            "block": np.stack([w.column for w in batch], axis=1),
            "fractions": np.asarray(
                [w.fraction for w in batch], dtype=np.float64
            ),
            "max_iterations": group.config.max_iterations,
            "tolerance": group.config.tolerance,
        }
        # stamped after the slot wait: ingest_solve_seconds measures
        # the solve, not executor contention
        started = loop.time()
        # solve_measurement_block is looked up in this module at every
        # dispatch, so a tracer (or a test) can wrap it here
        future = asyncio.wrap_future(
            self._executor.submit(solve_measurement_block, task)
        )
        self._inflight += 1
        solve = asyncio.create_task(
            self._route_async(batch, future, slot, started)
        )
        self._solve_tasks.add(solve)
        solve.add_done_callback(self._solve_tasks.discard)
        # observed once the solve is under way, off its critical path
        for window in batch:
            self.telemetry.observe(
                "ingest_stage_seconds",
                started - window.t_submit,
                stage="queue",
            )

    async def _route_async(
        self,
        batch: list[_PendingWindow],
        future: asyncio.Future,
        slot: asyncio.Semaphore,
        started: float,
    ) -> None:
        """Await one submitted solve, free its solver, and scatter its
        results."""
        error = None
        try:
            out = await future
        except Exception as exc:  # repro-lint: disable=RL005 — waiting sessions must unblock on any solve failure; _fail_batch propagates the error
            error = exc
        finally:
            slot.release()
            self._inflight -= 1
            # a solver came free: every group holding windows re-plans
            # now (the idle trigger), not only the one this batch left
            for group in self._groups.values():
                if group.pending:
                    group.event.set()
        if error is not None:
            self._fail_batch(batch, error)
            return
        solve_seconds = asyncio.get_running_loop().time() - started
        self.telemetry.observe("ingest_solve_seconds", solve_seconds)
        # one loop turn before routing: the drain loop (woken by the
        # slot) submits the next batch first and the loop's select()
        # hands that solve the GIL.  Routing first wakes the read
        # loops (quota permits) into the drain loop's turn, and their
        # stage 1-2 backlog plus the acks' JSON hold the GIL while the
        # solve thread waits: a measured ~1.7 ms of idle solver per
        # saturated batch (solver_busy_share 0.963 vs 0.986; it was
        # 6 ms while stage 1 still walked its payloads bit by bit)
        await asyncio.sleep(0)
        self._route(batch, out, started)

    def _fail_batch(self, batch: list[_PendingWindow], exc: Exception) -> None:
        """A solve died: unblock its windows so nothing deadlocks.

        Marks every contributing session errored (reported to the node
        in an ERROR frame), releases the backpressure quota and the
        outstanding counts — a wedged solve must never leave
        :meth:`_finalize` (and therefore :meth:`close`) waiting
        forever.  The drain loop keeps serving other batches.
        """
        message = f"decode failed: {exc}"
        warnings.warn(
            f"ingest gateway dropped a batch of {len(batch)} window(s): "
            f"{message}",
            RuntimeWarning,
        )
        for window in batch:
            session = window.session
            if session.result.error is None:
                session.result.error = message
                session.meter.inc("ingest_sessions_errored")
                self._send_json(
                    session, FrameKind.ERROR, {"error": message}
                )
            session.quota.release()
            session.outstanding -= 1
            session.check_done()

    def _route(
        self, batch: list[_PendingWindow], out: dict, started: float
    ) -> None:
        """Scatter one solved block back to its streams, in order.

        Each window's ``solve`` stage (submit to here) and ``route``
        stage (here to its DECODED frame written) are observed; with
        ``hold`` and ``queue`` they cover its latency, taken from the
        same clock stamps."""
        loop = asyncio.get_running_loop()
        t_done = loop.time()
        # a process-pool worker records its own delta snapshot and
        # ships it home with the results; merging here is what keeps
        # the plane whole across the pool boundary
        worker_delta = out.get("telemetry")
        if worker_delta is not None:
            self.telemetry.absorb(worker_delta)
        for column, window in enumerate(batch):
            session = window.session
            samples = out["signals"][:, column] + session.dc_offset
            iterations = int(out["iterations"][column])
            seconds = float(out["seconds"][column])
            latency = t_done - window.t_submit + window.held_s
            result = session.result
            result.indices.append(window.index)
            result.sequences.append(window.sequence)
            result.iterations.append(iterations)
            result.decode_seconds.append(seconds)
            result.latencies_s.append(latency)
            result.samples_adu.append(samples)
            session.meter.inc("ingest_windows_decoded")
            self.telemetry.observe(
                "ingest_window_latency_seconds", latency
            )
            self.telemetry.observe(
                "ingest_stage_seconds", t_done - started, stage="solve"
            )
            accounting = session.tracker.accounting
            self._send_json(
                session,
                FrameKind.DECODED,
                {
                    "sequence": window.sequence,
                    "iterations": iterations,
                    "latency_ms": 1000.0 * latency,
                    # running damage accounting, so a node (and the
                    # serve --simulate table) sees channel losses
                    # without a side channel
                    **{
                        name: getattr(accounting, name)
                        for name in ACK_DAMAGE_FIELDS
                    },
                },
            )
            self.telemetry.observe(
                "ingest_stage_seconds", loop.time() - t_done, stage="route"
            )
            session.quota.release()
            session.outstanding -= 1
            session.check_done()

    #: per-link cap on bytes buffered for unread gateway->node frames;
    #: past this, acks are dropped rather than queued without bound
    ACK_BUFFER_LIMIT = 1 << 20

    def _send_json(
        self, session: _Session, kind: FrameKind, payload: dict
    ) -> None:
        """Best-effort frame to a node; dropped links are tolerated.

        Acks are advisory: a node that streams packets but never reads
        its socket must not grow the gateway's send buffer without
        bound, so once a link's transport holds
        :data:`ACK_BUFFER_LIMIT` unread bytes further frames to it are
        dropped (decoding and results are unaffected).
        """
        writer = session.writer
        try:
            transport = getattr(writer, "transport", None)
            if (
                transport is not None
                and transport.get_write_buffer_size() > self.ACK_BUFFER_LIMIT
            ):
                return
            writer.write(encode_json_frame(kind, payload))
        except (ConnectionError, RuntimeError):
            pass


def gateway_stats_from(telemetry: MetricsRegistry) -> GatewayStats:
    """Materialize the :class:`GatewayStats` read model from any
    registry holding the ingest metric families — a live gateway's
    own registry, or a federation front door's roll-up of its
    workers' snapshot deltas (the counters merge associatively, so
    the aggregate view is exact either way)."""
    snap = telemetry.snapshot()

    def total(name: str) -> int:
        return int(snap.counter_total(name))

    def flushes(reason: str) -> int:
        return int(snap.counter_value("ingest_flushes", reason=reason))

    latency = snap.histogram_total("ingest_window_latency_seconds")
    return GatewayStats(
        sessions_opened=total("ingest_sessions_opened"),
        sessions_completed=total("ingest_sessions_completed"),
        sessions_errored=total("ingest_sessions_errored"),
        streams=len(snap.label_values("ingest_sessions_opened", "stream")),
        windows_decoded=total("ingest_windows_decoded"),
        batches=total("ingest_flushes"),
        flushes_full=flushes("full"),
        flushes_deadline=flushes("deadline"),
        flushes_drain=flushes("drain"),
        flushes_idle=flushes("idle"),
        cross_stream_batches=total("ingest_cross_stream_batches"),
        nacks_sent=total("ingest_nacks_sent"),
        **{name: total(f"ingest_{name}") for name in DAMAGE_COUNTERS},
        max_latency_s=(
            latency.max if latency is not None and latency.total else None
        ),
    )


__all__ = [
    "DEFAULT_FLUSH_MS",
    "NACK_DEADLINE_S",
    "GatewayStats",
    "IngestGateway",
    "IngestStreamResult",
    "gateway_stats_from",
    "merge_stream_results",
]
