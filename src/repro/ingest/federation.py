"""Multi-gateway federation: a consistent-hash front door over N
gateway worker processes.

One :class:`~repro.ingest.gateway.IngestGateway` is bounded by a
single event loop and (for stages 1-2) a single core.  The federation
front door scales the ingest tier *horizontally* without giving up
the property that makes pooled solves fast: every stream of one
operator group must land on the same gateway, because the group's
shared ``A = Phi Psi^-1`` precompute and its cross-stream batch pool
live in that gateway's process.

The design is a routing tier, not a decode tier:

- :class:`FederationFrontDoor` owns the public TCP listener.  It
  frame-parses exactly one frame per link — the ``HELLO`` — recovers
  the stream's *operator key* (the same
  :func:`~repro.core.decoder.operator_key` the offline fleet groups
  streams by), and looks the key up on a seeded consistent
  hash ring (:class:`~repro.utils.hashring.HashRing`) whose nodes are
  the gateway workers.  All streams of one operator group therefore
  land on one gateway, keeping its ``A`` precompute hot and its
  cross-stream batching intact.
- The chosen worker is dialed on its loopback port, the ``HELLO`` is
  forwarded byte-identically (re-encoded through the same
  :func:`~repro.ingest.protocol.encode_frame` that produced it), and
  from then on the front door is a pure byte pump in both directions
  — no mid-stream re-framing, no protocol state, so the decoded
  output is bit-identical to a node dialing the gateway directly
  (``tests/ingest/test_federation.py::TestBitIdentity`` pins this).
- Each worker is a separate OS process running a plain
  :class:`~repro.ingest.gateway.IngestGateway` on its own event loop
  and a fresh :class:`~repro.telemetry.MetricsRegistry`, supervised
  over a :func:`multiprocessing.Pipe` control channel (ready /
  stats / shutdown).  Platforms without working multiprocessing fall
  back to daemon threads, mirroring the fleet engine's warn-once
  idiom (scale-out is lost; semantics are not).

**Failover.**  The supervisor heartbeats every worker through the
control pipe (the heartbeat doubles as the telemetry pull, below).  A
worker that dies — process exit, pipe EOF, or
:data:`HEARTBEAT_MISSES` consecutive silent beats — is removed from the
ring, which by the ring's segment property remaps *only the dead
worker's key range*; every other stream's placement is untouched.
The dead worker's live node links are cut (counted in
``federation_reroutes``); each node's
:class:`~repro.ingest.client.NodeClient` reconnects with backoff,
sends a fresh ``HELLO`` with ``resume`` set, and the front door
routes it to the segment's new owner, where the stream replays from
its retransmit ring (fec) or re-anchors at the next keyframe — so a
gateway death damages each of its streams by at most
``keyframe_interval`` windows, and nothing else in the fleet.

**Telemetry roll-up.**  Each worker publishes to its own registry;
the supervisor periodically pulls
:meth:`~repro.telemetry.MetricsSnapshot.delta_since` deltas over the
control pipe and :meth:`~repro.telemetry.MetricsRegistry.absorb`-s
them into the front door's registry — the same associative monoid
merge the in-gateway process pool already uses, now one level up.
:meth:`FederationFrontDoor.federation_stats` and
:meth:`FederationFrontDoor.merged_results` are read models over the
rolled-up registry and the collected
:class:`~repro.ingest.gateway.IngestStreamResult` lists.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import threading
import warnings
from dataclasses import dataclass, field

from ..errors import ConfigurationError, ProtocolError
from ..fleet.executor import pin_blas_to_one_thread
from ..core.decoder import operator_key
from ..telemetry import MetricsRegistry, MetricsSnapshot
from ..utils.hashring import HashRing
from .gateway import (
    GatewayStats,
    IngestGateway,
    IngestStreamResult,
    gateway_stats_from,
    merge_stream_results,
)
from .protocol import FrameKind, Handshake, encode_frame, encode_json_frame, read_hello

#: session-id range width per gateway: gateway ``i`` numbers its
#: sessions from ``i * stride``, so ids stay unique fleet-wide and
#: :func:`~repro.ingest.gateway.merge_stream_results` can merge a
#: reconnecting stream's sessions from different gateways
SESSION_ID_STRIDE = 1 << 20

#: bytes per proxy read: large enough to amortize the pump loop,
#: small enough that backpressure still propagates promptly
_PUMP_CHUNK = 1 << 16

#: the backend plane (front door -> gateway workers) is always loopback
_BACKEND_HOST = "127.0.0.1"

#: :class:`~repro.utils.hashring.HashRing` parameters.  Fixed: the seed
#: *is* placement reproducibility across runs and machines, and 64
#: virtual nodes per gateway balance the few operator groups a fleet has.
RING_SEED = 2011
RING_REPLICAS = 64

#: supervision cadence: each ``HEARTBEAT_S`` the supervisor pulls a
#: stats delta from every worker (liveness probe + telemetry roll-up);
#: ``HEARTBEAT_MISSES`` consecutive failures declare it dead.  Fixed:
#: a 3 s bound sits inside the node's reconnect backoff, and process
#: exit / pipe EOF are noticed at once whatever the beat.
HEARTBEAT_S = 1.0
HEARTBEAT_MISSES = 3


# ----------------------------------------------------------------------
# worker side: one gateway process behind a control pipe
# ----------------------------------------------------------------------
def _gateway_worker_main(conn, gateway_options: dict) -> None:
    """Body of one gateway worker: the fallback thread's entry point,
    and :func:`_gateway_process_main`'s once BLAS is pinned.

    Module-level so it pickles under every multiprocessing start
    method.  ``gateway_options`` are the gateway's constructor options
    (scalars and a frozen config dataclass) — the worker builds
    everything else itself.
    """
    try:
        asyncio.run(_gateway_worker(conn, gateway_options))
    finally:
        try:
            conn.close()
        except OSError:
            pass


def _gateway_process_main(conn, gateway_options: dict) -> None:
    """Entry point of a gateway worker in its own process: N gateways
    share N CPUs, so its BLAS runs on one thread.  The thread fallback
    enters at :func:`_gateway_worker_main` instead — the setting is
    process-global and would pin the front door's process too."""
    pin_blas_to_one_thread()
    _gateway_worker_main(conn, gateway_options)


async def _gateway_worker(conn, gateway_options: dict) -> None:
    """Host one :class:`IngestGateway` and serve the control pipe.

    Control protocol (parent -> worker, each tagged with a
    monotonically increasing integer so stale replies of a timed-out
    request are discarded):

    - ``(tag, "stats")`` — reply ``(tag, "stats", delta_dict)`` where
      ``delta_dict`` is the registry's change since the last pull
      (:meth:`MetricsSnapshot.delta_since`); doubles as the heartbeat.
    - ``(tag, "shutdown")`` — drain and close the gateway, then reply
      ``(tag, "closed", results, final_delta_dict, batch_log)``.

    The unsolicited ``("ready", port)`` message announces the
    gateway's ephemeral listen port right after startup.  Pipe EOF
    (the front door died) closes the gateway and exits.
    """
    registry = MetricsRegistry()
    gateway = IngestGateway(telemetry=registry, **gateway_options)
    port = await gateway.start(_BACKEND_HOST, 0)
    loop = asyncio.get_running_loop()
    await loop.run_in_executor(None, conn.send, ("ready", port))
    shipped = MetricsSnapshot.empty()
    shutdown_tag: int | None = None
    while True:
        try:
            message = await loop.run_in_executor(None, conn.recv)
        except (EOFError, OSError):
            break  # front door gone: close and exit
        if not isinstance(message, tuple) or len(message) < 2:
            continue
        tag, kind = message[0], message[1]
        if kind == "stats":
            snapshot = registry.snapshot()
            delta = snapshot.delta_since(shipped)
            shipped = snapshot
            await loop.run_in_executor(
                None, conn.send, (tag, "stats", delta.to_dict())
            )
        elif kind == "shutdown":
            shutdown_tag = tag
            break
        else:
            await loop.run_in_executor(
                None, conn.send, (tag, "error", f"unknown control {kind!r}")
            )
    await gateway.close()
    if shutdown_tag is not None:
        final = registry.snapshot().delta_since(shipped)
        try:
            conn.send(
                (
                    shutdown_tag,
                    "closed",
                    gateway.results,
                    final.to_dict(),
                    gateway.batch_log,
                )
            )
        except (OSError, ValueError):
            pass  # parent died mid-shutdown; nothing left to report to


# ----------------------------------------------------------------------
# front-door side
# ----------------------------------------------------------------------
@dataclass
class _GatewayWorker:
    """Front-door handle of one gateway worker."""

    gateway_id: str
    runner: object  # multiprocessing.Process | threading.Thread
    conn: object  # parent end of the control pipe
    in_process: bool  # thread fallback (no isolation, no kill)
    port: int = -1
    alive: bool = True
    #: serializes control-pipe request/reply round trips
    lock: asyncio.Lock = field(default_factory=asyncio.Lock)
    #: live proxy sessions currently routed to this worker
    sessions: set = field(default_factory=set)
    next_tag: int = 0
    missed_beats: int = 0


class _ProxySession:
    """One node link spliced to its backend gateway link."""

    def __init__(self, node_reader, node_writer, backend_reader, backend_writer):
        self.node_reader = node_reader
        self.node_writer = node_writer
        self.backend_reader = backend_reader
        self.backend_writer = backend_writer

    def cut(self) -> None:
        """Sever both halves (the worker died): the node sees EOF and
        reconnects through the front door; the ring, updated by then,
        routes it to the segment's new owner."""
        for writer in (self.backend_writer, self.node_writer):
            try:
                writer.close()
            except (ConnectionError, RuntimeError):
                pass

    async def pump(self) -> None:
        """Pump bytes both ways until the link winds down.

        Node EOF half-closes the backend (the gateway still owes
        DECODED acks for in-flight windows); the backend closing ends
        the session.  If the backend side ends *first* (worker death
        or gateway shutdown) the node side is cut — nothing more can
        reach it."""
        upstream = asyncio.create_task(
            self._pump(self.node_reader, self.backend_writer, half_close=True)
        )
        downstream = asyncio.create_task(
            self._pump(self.backend_reader, self.node_writer, half_close=False)
        )
        try:
            done, _ = await asyncio.wait(
                {upstream, downstream}, return_when=asyncio.FIRST_COMPLETED
            )
            if upstream in done and downstream not in done:
                # node finished sending: wait for the gateway to flush
                # its remaining acks and close its side
                await downstream
        finally:
            for task in (upstream, downstream):
                task.cancel()
            await asyncio.gather(upstream, downstream, return_exceptions=True)
            self.cut()

    @staticmethod
    async def _pump(reader, writer, *, half_close: bool) -> None:
        try:
            while True:
                data = await reader.read(_PUMP_CHUNK)
                if not data:
                    break
                writer.write(data)
                await writer.drain()
        except (ConnectionError, OSError):
            return  # peer vanished; the other direction winds down too
        try:
            if half_close and writer.can_write_eof():
                writer.write_eof()
            else:
                writer.close()
        except (ConnectionError, OSError, RuntimeError):
            pass


@dataclass
class FederationStats:
    """Read model over the front door's rolled-up registry."""

    gateways: int  #: workers started
    gateways_alive: int  #: workers currently alive
    streams_routed: int  #: node links routed by operator key
    reroutes: int  #: live links cut by a gateway death
    #: links routed per gateway id (placement balance view)
    streams_by_gateway: dict[str, int]
    #: rolled-up ingest totals (fresh up to the last stats pull)
    sessions_opened: int
    windows_decoded: int
    windows_lost: int


class FederationFrontDoor:
    """Route node links across N gateway worker processes.

    Parameters
    ----------
    gateways:
        Worker process count.  ``1`` is a valid (supervised) fleet of
        one; the CLI keeps ``--gateways 1`` on the plain in-process
        gateway path instead, byte-identically to before.
    telemetry:
        The front door's own registry — the roll-up target.  Workers
        always build private registries; their deltas are absorbed
        here.
    **gateway_options:
        Every other keyword is an option of
        :class:`~repro.ingest.gateway.IngestGateway` (``batch_size``,
        ``flush_ms``, ``workers``, ``max_pending``, ``nack_budget``),
        documented and
        validated there and forwarded to each worker's gateway
        untouched.  ``telemetry`` and ``session_id_base`` are the
        front door's to assign (a private registry and a disjoint id
        range per worker).
    """

    def __init__(
        self,
        gateways: int = 2,
        *,
        telemetry: MetricsRegistry | None = None,
        **gateway_options,
    ) -> None:
        if gateways < 1:
            raise ConfigurationError(
                f"gateways must be >= 1, got {gateways}"
            )
        # validated by the constructor that owns them, in the parent (a
        # gateway builds no executor or socket until started); naming
        # session_id_base here makes a caller's own one a TypeError
        IngestGateway(session_id_base=0, **gateway_options)
        self.gateways = gateways
        self.telemetry = (
            telemetry if telemetry is not None else MetricsRegistry()
        )
        self.ring = HashRing(seed=RING_SEED, replicas=RING_REPLICAS)
        #: ``(operator_key, gateway_id)`` per routed link, in arrival
        #: order — lets tests assert placement determinism
        self.route_log: list[tuple[tuple, str]] = []
        #: stream identity -> gateway id of its latest placement; a
        #: returning stream whose previous gateway died is a reroute
        self._placements: dict[str, str] = {}
        #: completed stream results collected from shut-down workers
        self.results: list[IngestStreamResult] = []
        #: per-gateway batch composition logs, collected at shutdown
        self.batch_logs: dict[str, list] = {}
        self.port: int | None = None

        self._gateway_options = gateway_options
        #: cleared for good the first time a gateway process cannot
        #: start; every later gateway then runs as a thread
        self._use_processes = True
        self._workers: dict[str, _GatewayWorker] = {}
        self._server: asyncio.AbstractServer | None = None
        self._supervisor_task: asyncio.Task | None = None
        self._conn_tasks: set[asyncio.Task] = set()
        self._closed = False
        #: generous bounds for worker startup and drain-then-shutdown
        self._spawn_timeout_s = 30.0
        self._shutdown_timeout_s = 60.0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self, host: str = "127.0.0.1", port: int = 0) -> int:
        """Spawn the workers, then bind the public listener.

        Workers are spawned *before* the listener exists so forked
        children never inherit (and pin open) the public socket.
        Returns the bound port.
        """
        for index in range(self.gateways):
            worker = await self._spawn(index)
            self._workers[worker.gateway_id] = worker
            self.ring.add(worker.gateway_id)
        self.telemetry.set_gauge(
            "federation_gateways", len(self._alive_workers())
        )
        self._server = await asyncio.start_server(
            self._handle_node, host, port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._supervisor_task = asyncio.create_task(self._supervise())
        return self.port

    async def close(self) -> None:
        """Stop routing, shut every worker down, collect its results
        and final telemetry delta."""
        if self._closed:
            return
        self._closed = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._supervisor_task is not None:
            self._supervisor_task.cancel()
            await asyncio.gather(
                self._supervisor_task, return_exceptions=True
            )
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(
                *list(self._conn_tasks), return_exceptions=True
            )
        for worker in self._workers.values():
            await self._shutdown_worker(worker)
        self.telemetry.set_gauge("federation_gateways", 0)

    async def _spawn(self, index: int) -> _GatewayWorker:
        """Start gateway worker ``index`` and wait for its ready
        announcement (which carries the ephemeral backend port)."""
        parent_conn, child_conn = multiprocessing.Pipe()
        options = dict(
            self._gateway_options, session_id_base=index * SESSION_ID_STRIDE
        )
        # the federation's parallelism is its gateway count, so a
        # gateway solves one batch at a time unless it was given a pool
        if options.get("workers") is None:
            options["workers"] = 1
        runner = None
        if self._use_processes:
            try:
                runner = multiprocessing.Process(
                    target=_gateway_process_main,
                    args=(child_conn, options),
                    daemon=True,
                )
                runner.start()
            except (ImportError, OSError, ValueError) as exc:
                # platform fallback, mirroring the fleet engine: warn
                # once and run every gateway as a daemon thread (no
                # core scale-out, identical semantics)
                warnings.warn(
                    f"federation falling back to in-process gateways: "
                    f"multiprocessing unavailable ({exc})",
                    RuntimeWarning,
                )
                self._use_processes = False
                runner = None
        if runner is None:
            runner = threading.Thread(
                target=_gateway_worker_main,
                args=(child_conn, options),
                daemon=True,
                name=f"federation-gw{index}",
            )
            runner.start()
        else:
            child_conn.close()  # the child process holds its own end
        worker = _GatewayWorker(
            gateway_id=f"gw{index}",
            runner=runner,
            conn=parent_conn,
            in_process=not self._use_processes,
        )
        loop = asyncio.get_running_loop()
        ready = await loop.run_in_executor(
            None, parent_conn.poll, self._spawn_timeout_s
        )
        if not ready:
            raise ConfigurationError(
                f"federation gateway {worker.gateway_id} did not start "
                f"within {self._spawn_timeout_s:.0f}s"
            )
        message = await loop.run_in_executor(None, parent_conn.recv)
        if (
            not isinstance(message, tuple)
            or len(message) != 2
            or message[0] != "ready"
        ):
            raise ConfigurationError(
                f"federation gateway {worker.gateway_id} sent "
                f"{message!r} instead of its ready announcement"
            )
        worker.port = int(message[1])
        return worker

    def _alive_workers(self) -> list[_GatewayWorker]:
        return [w for w in self._workers.values() if w.alive]

    # ------------------------------------------------------------------
    # control pipe
    # ------------------------------------------------------------------
    async def _request(
        self, worker: _GatewayWorker, kind: str, timeout: float
    ) -> tuple:
        """One tagged request/reply round trip on a worker's pipe.

        Serialized per worker; replies whose tag does not match (left
        over from a timed-out earlier request) are discarded.  Raises
        ``TimeoutError`` / ``EOFError`` / ``OSError`` — the caller
        decides whether that makes the worker dead.
        """
        loop = asyncio.get_running_loop()
        async with worker.lock:
            worker.next_tag += 1
            tag = worker.next_tag
            await loop.run_in_executor(None, worker.conn.send, (tag, kind))
            deadline = loop.time() + timeout
            while True:
                remaining = deadline - loop.time()
                if remaining <= 0:
                    raise TimeoutError(
                        f"{worker.gateway_id} did not answer {kind!r} "
                        f"within {timeout:.1f}s"
                    )
                # poll in short slices so a cancelled round trip never
                # strands an executor thread on a long block
                ready = await loop.run_in_executor(
                    None, worker.conn.poll, min(remaining, 0.25)
                )
                if not ready:
                    continue
                reply = await loop.run_in_executor(None, worker.conn.recv)
                if (
                    isinstance(reply, tuple)
                    and len(reply) >= 2
                    and reply[0] == tag
                ):
                    return reply

    async def _supervise(self) -> None:
        """Heartbeat every worker; one round trip doubles as the
        telemetry roll-up pull (stats delta absorbed on success)."""
        while True:
            await asyncio.sleep(HEARTBEAT_S)
            for worker in self._alive_workers():
                if not worker.runner.is_alive():
                    await self._declare_dead(worker, "worker exited")
                    continue
                try:
                    reply = await self._request(
                        worker, "stats", timeout=HEARTBEAT_S
                    )
                except (TimeoutError, OSError, EOFError):
                    worker.missed_beats += 1
                    if (
                        worker.missed_beats >= HEARTBEAT_MISSES
                        or not worker.runner.is_alive()
                    ):
                        await self._declare_dead(worker, "heartbeat lost")
                    continue
                worker.missed_beats = 0
                self.telemetry.absorb(reply[2])

    async def _declare_dead(
        self, worker: _GatewayWorker, reason: str
    ) -> None:
        """A worker is gone: shrink the ring (remapping only its
        segment) and cut its live links so their nodes reconnect."""
        if not worker.alive:
            return
        worker.alive = False
        if worker.gateway_id in self.ring:
            self.ring.remove(worker.gateway_id)
        self.telemetry.set_gauge(
            "federation_gateways", len(self._alive_workers())
        )
        warnings.warn(
            f"federation gateway {worker.gateway_id} lost ({reason}); "
            f"remapping its ring segment to the surviving gateways",
            RuntimeWarning,
        )
        # cut whatever links are still spliced (most wind down on
        # their own when the worker's sockets die); the reroute
        # counter increments when each stream's reconnect is actually
        # remapped in _open_backend
        for session in list(worker.sessions):
            session.cut()
        try:
            worker.conn.close()
        except OSError:
            pass
        if isinstance(worker.runner, multiprocessing.Process):
            worker.runner.terminate()

    async def kill_gateway(self, gateway_id: str) -> None:
        """Hard-kill one worker process (failover testing).  The
        supervisor's bookkeeping runs immediately rather than waiting
        a heartbeat."""
        worker = self._workers[gateway_id]
        if worker.in_process:
            raise ConfigurationError(
                "cannot kill a thread-mode federation gateway"
            )
        worker.runner.kill()
        await asyncio.get_running_loop().run_in_executor(
            None, worker.runner.join, self._spawn_timeout_s
        )
        await self._declare_dead(worker, "killed")

    async def _shutdown_worker(self, worker: _GatewayWorker) -> None:
        """Orderly worker shutdown: drain the gateway, collect its
        results, batch log and final telemetry delta."""
        if worker.alive:
            try:
                reply = await self._request(
                    worker, "shutdown", timeout=self._shutdown_timeout_s
                )
                self.results.extend(reply[2])
                self.telemetry.absorb(reply[3])
                self.batch_logs[worker.gateway_id] = reply[4]
            except (TimeoutError, OSError, EOFError):
                warnings.warn(
                    f"federation gateway {worker.gateway_id} did not "
                    f"shut down cleanly; its results are lost",
                    RuntimeWarning,
                )
            worker.alive = False  # repro-lint: disable=RL008 — idempotent: a concurrent _declare_dead only ever writes False too, and a worker dying mid-await lands in the except arm above
        try:
            worker.conn.close()
        except OSError:
            pass
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(
            None, worker.runner.join, self._spawn_timeout_s
        )
        if (
            isinstance(worker.runner, multiprocessing.Process)
            and worker.runner.is_alive()
        ):
            worker.runner.terminate()
            await loop.run_in_executor(None, worker.runner.join, 5.0)

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    async def _handle_node(self, reader, writer) -> None:
        """Serve one public link: parse the HELLO, route, then pump."""
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
            task.add_done_callback(self._conn_tasks.discard)
        try:
            body = await read_hello(reader)
            if body is None:
                return
            handshake = Handshake.from_body(body)
            key = operator_key(handshake.config, handshake.precision)
            stream_key = f"{handshake.record}:{handshake.channel}"
            worker, session = await self._open_backend(
                key, stream_key, body, reader, writer
            )
            worker.sessions.add(session)
            try:
                await session.pump()
            finally:
                worker.sessions.discard(session)
        except ProtocolError as exc:
            # refused before routing: no gateway will ever count it
            self.telemetry.inc("ingest_sessions_errored")
            self._send_error(writer, str(exc))
        except LookupError:
            self._send_error(writer, "no federation gateway available")
        except (ConnectionError, asyncio.CancelledError):
            pass  # dropped link or front-door shutdown
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, RuntimeError):
                pass

    async def _open_backend(
        self,
        key: tuple,
        stream_key: str,
        hello_body: bytes,
        node_reader,
        node_writer,
    ) -> tuple[_GatewayWorker, _ProxySession]:
        """Ring-route ``key`` and splice a backend link, forwarding
        the HELLO byte-identically.  A refused dial declares that
        worker dead on the spot and retries on the shrunken ring."""
        while True:
            gateway_id = self.ring.lookup(key)  # LookupError: ring empty
            worker = self._workers[gateway_id]
            try:
                backend_reader, backend_writer = await asyncio.open_connection(
                    _BACKEND_HOST, worker.port
                )
            except OSError:
                await self._declare_dead(worker, "backend dial refused")
                continue
            backend_writer.write(encode_frame(FrameKind.HELLO, hello_body))
            await backend_writer.drain()
            self.telemetry.inc("federation_streams", gateway=gateway_id)
            self.route_log.append((key, gateway_id))
            # a stream coming back after its gateway died has been
            # remapped to this segment's new owner: that *is* the
            # reroute (counting at declare-death time raced the proxy
            # sessions, which wind down before the death is ruled)
            previous = self._placements.get(stream_key)
            if (
                previous is not None
                and previous != gateway_id
                and previous in self._workers
                and not self._workers[previous].alive
            ):
                self.telemetry.inc(
                    "federation_reroutes", gateway=previous
                )
            self._placements[stream_key] = gateway_id
            return worker, _ProxySession(
                node_reader, node_writer, backend_reader, backend_writer
            )

    def _send_error(self, writer, message: str) -> None:
        try:
            writer.write(
                encode_json_frame(FrameKind.ERROR, {"error": message})
            )
        except (ConnectionError, RuntimeError):
            pass

    # ------------------------------------------------------------------
    # read models
    # ------------------------------------------------------------------
    @property
    def stats(self) -> GatewayStats:
        """The fleet-wide :class:`~repro.ingest.gateway.GatewayStats`
        aggregate, materialized from the rolled-up registry — the
        same read model a single gateway exposes, summed across
        workers by the monoid merge (fresh up to the last stats
        pull; complete after :meth:`close`)."""
        return gateway_stats_from(self.telemetry)

    def federation_stats(self) -> FederationStats:
        """The roll-up view (fresh up to the supervisor's last stats
        pull; complete after :meth:`close`)."""
        snap = self.telemetry.snapshot()
        return FederationStats(
            gateways=len(self._workers) or self.gateways,
            gateways_alive=len(self._alive_workers()),
            streams_routed=int(snap.counter_total("federation_streams")),
            reroutes=int(snap.counter_total("federation_reroutes")),
            streams_by_gateway={
                gid: int(
                    snap.counter_value("federation_streams", gateway=gid)
                )
                for gid in self._workers
            },
            sessions_opened=int(
                snap.counter_total("ingest_sessions_opened")
            ),
            windows_decoded=int(
                snap.counter_total("ingest_windows_decoded")
            ),
            windows_lost=int(snap.counter_total("ingest_windows_lost")),
        )

    def merged_results(self) -> dict[str, IngestStreamResult]:
        """Collected stream results merged per stream identity — the
        same :func:`~repro.ingest.gateway.merge_stream_results` a
        single gateway applies to its own reconnects, here across
        gateway id ranges."""
        return merge_stream_results(self.results)


__all__ = [
    "SESSION_ID_STRIDE",
    "FederationFrontDoor",
    "FederationStats",
]
