"""Federation front door: routing, identity, roll-up, failover.

Every test drives a real :class:`~repro.ingest.FederationFrontDoor`
over TCP on loopback.  The functional tests (routing, bit-identity,
telemetry roll-up) run the workers in thread mode — same code path
minus the fork, fast and sandbox-proof — by making
``multiprocessing.Process`` fail to start, so the front door takes its
real platform fallback and warns; the failover test requires real
worker processes (you cannot kill a thread) and skips where
multiprocessing cannot spawn.
"""

from __future__ import annotations

import asyncio
import dataclasses
import multiprocessing

import numpy as np
import pytest
from telemetry_oracle import gauge_value

from repro.core import EcgMonitorSystem
from repro.errors import ConfigurationError
from repro.core.decoder import operator_key
from repro.ingest import (
    FederationFrontDoor,
    IngestGateway,
    NodeClient,
    merge_stream_results,
)
from repro.ingest import federation as federation_module
from repro.ingest.federation import RING_REPLICAS, RING_SEED
from repro.utils import HashRing


class _UnstartableProcess(multiprocessing.Process):
    """A worker process whose start fails the way it does on a
    platform without working multiprocessing."""

    def start(self):
        raise OSError("process start blocked by the test")


@pytest.fixture()
def thread_gateways(monkeypatch):
    """Every gateway the front door spawns runs as a thread: its
    process cannot start, so the real fallback branch runs and emits
    its one RuntimeWarning, which the test must see."""
    monkeypatch.setattr(
        federation_module.multiprocessing, "Process", _UnstartableProcess
    )
    with pytest.warns(
        RuntimeWarning, match="falling back to in-process gateways"
    ):
        yield


def _system(config, record):
    system = EcgMonitorSystem(config)
    system.calibrate(record)
    return system


def _serial_reference(system, record, max_packets):
    """Fresh serial decode with the node's codebook (ground truth)."""
    reference = EcgMonitorSystem(system.config)
    reference.encoder.codebook = system.encoder.codebook
    reference.decoder.codebook = system.encoder.codebook
    return reference.stream(
        record, max_packets=max_packets, keep_signals=True
    )


def _assert_matches_serial(result, serial):
    """Same solver trajectory and reconstruction as the serial path."""
    assert result.iterations == [p.iterations for p in serial.packets]
    np.testing.assert_allclose(
        np.concatenate(result.samples_adu),
        serial.reconstructed_adu,
        atol=1e-7,
    )


def _make_clients(
    small_config,
    database,
    specs,
    *,
    max_packets=4,
    interval_s=0.0,
    fec=False,
    reconnect=0,
):
    """One calibrated NodeClient per ``(record_name, group)`` spec."""
    clients = []
    for record_name, group in specs:
        record = database.load(record_name)
        config = dataclasses.replace(
            small_config, seed=small_config.seed + group
        )
        clients.append(
            NodeClient(
                _system(config, record),
                record,
                max_packets=max_packets,
                interval_s=interval_s,
                fec=fec,
                reconnect=reconnect,
            )
        )
    return clients


def _run_threaded(front_door, clients):
    """Start, stream every client, close; returns (reports, the front
    door's snapshot before close, its snapshot after)."""

    async def run():
        port = await front_door.start("127.0.0.1", 0)
        reports = await asyncio.gather(
            *[client.run_tcp("127.0.0.1", port) for client in clients]
        )
        live = front_door.telemetry.snapshot()
        await front_door.close()
        return reports, live, front_door.telemetry.snapshot()

    return asyncio.run(run())


class TestRouting:
    def test_groups_land_together_where_the_ring_predicts(
        self, small_config, database, thread_gateways
    ):
        """Same operator group => same gateway, and an offline ring
        with the same seed predicts which one."""
        specs = [("100", 0), ("101", 0), ("102", 1), ("103", 1)]
        clients = _make_clients(small_config, database, specs)
        front_door = FederationFrontDoor(
            gateways=2, batch_size=4, flush_ms=100.0
        )
        reports, _, _ = _run_threaded(front_door, clients)
        assert all(report.error is None for report in reports)

        oracle = HashRing(
            ("gw0", "gw1"), seed=RING_SEED, replicas=RING_REPLICAS
        )
        routed = dict(front_door.route_log)
        assert len(front_door.route_log) == 4
        for client, (_, group) in zip(clients, specs):
            key = operator_key(
                client.system.config, client.system.decoder.precision
            )
            assert routed[key] == oracle.lookup(key)
        # the two groups have distinct keys; each maps to exactly one
        # gateway (possibly the same one — the ring decides)
        keys = {
            operator_key(c.system.config, c.system.decoder.precision)
            for c in clients
        }
        assert len(keys) == 2

    def test_thread_fallback_mode_decodes_and_cannot_be_killed(
        self, small_config, database, thread_gateways
    ):
        clients = _make_clients(small_config, database, [("100", 0)])
        front_door = FederationFrontDoor(
            gateways=2, batch_size=4, flush_ms=100.0
        )

        async def run():
            port = await front_door.start("127.0.0.1", 0)
            report = await clients[0].run_tcp("127.0.0.1", port)
            with pytest.raises(ConfigurationError, match="thread"):
                await front_door.kill_gateway("gw0")
            await front_door.close()
            return report

        report = asyncio.run(run())
        assert report.error is None
        assert report.acked == report.sent == 4

    def test_silent_link_closed_at_the_handshake_deadline(
        self, small_config, database, monkeypatch, thread_gateways
    ):
        """A TCP link that never says HELLO is answered with an ERROR
        and closed at the handshake deadline instead of holding a
        front-door task forever; a healthy stream is untouched."""
        from repro.ingest import FrameKind, protocol, read_frame

        monkeypatch.setattr(protocol, "HANDSHAKE_TIMEOUT_S", 0.2)
        clients = _make_clients(small_config, database, [("100", 0)])
        front_door = FederationFrontDoor(
            gateways=2, batch_size=4, flush_ms=100.0
        )

        async def settled():
            while front_door._conn_tasks:
                await asyncio.sleep(0.01)

        async def silent_link(port):
            loop = asyncio.get_running_loop()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", port
            )
            connected = loop.time()
            frames = [await read_frame(reader) for _ in range(2)]
            elapsed = loop.time() - connected
            writer.close()
            return frames, elapsed

        async def run():
            port = await front_door.start("127.0.0.1", 0)
            silent, report = await asyncio.wait_for(
                asyncio.gather(
                    silent_link(port),
                    clients[0].run_tcp("127.0.0.1", port),
                ),
                timeout=30.0,
            )
            await asyncio.wait_for(settled(), timeout=5.0)
            await front_door.close()
            return silent, report

        (((kind, body), eof), elapsed), report = asyncio.run(run())
        assert kind is FrameKind.ERROR
        assert b"no HELLO within 0.2 s" in body
        assert eof is None  # the front door hung up
        assert elapsed < 1.0  # closed at the deadline, not some time later
        assert front_door.telemetry.counter_total("ingest_sessions_errored") == 1
        assert report.error is None
        assert report.acked == report.sent == 4


class TestBitIdentity:
    @pytest.mark.parametrize("batch_size", [4, 1])
    def test_federated_decode_matches_serial_reference(
        self, small_config, database, batch_size, thread_gateways
    ):
        """Per-stream output through the front door equals the serial
        single-system decode (the oracle the single-gateway tests pin
        against) and, at width 1, bit for bit a node dialing one
        plain gateway.

        Only width-1 batches on both legs make ``assert_array_equal``
        a claim about the front door: pooled-batch *composition* is
        arrival-timing dependent and BLAS reduction order varies with
        block width."""
        specs = [("100", 0), ("119", 1)]
        clients = _make_clients(small_config, database, specs)
        front_door = FederationFrontDoor(
            gateways=2,
            batch_size=batch_size,
            flush_ms=100.0,
        )
        reports, _, _ = _run_threaded(front_door, clients)
        assert all(report.error is None for report in reports)

        merged = merge_stream_results(front_door.results)
        assert set(merged) == {"100:0", "119:0"}
        for client in clients:
            result = merged[f"{client.record.name}:0"]
            assert result.clean_close
            assert result.windows_lost == 0
            _assert_matches_serial(
                result,
                _serial_reference(client.system, client.record, 4),
            )
        if batch_size != 1:
            return

        async def run_direct():
            gateway = IngestGateway(batch_size=1, flush_ms=100.0)
            port = await gateway.start("127.0.0.1", 0)
            await asyncio.gather(
                *[client.run_tcp("127.0.0.1", port) for client in clients]
            )
            await gateway.close()
            return merge_stream_results(gateway.results)

        direct = asyncio.run(run_direct())
        assert set(direct) == set(merged)
        for key, result in merged.items():
            for ours, theirs in zip(
                result.samples_adu, direct[key].samples_adu, strict=True
            ):
                np.testing.assert_array_equal(ours, theirs)


class TestTelemetryRollup:
    def test_front_door_registry_holds_fleet_wide_truth(
        self, small_config, database, thread_gateways
    ):
        specs = [("100", 0), ("101", 1), ("102", 1)]
        clients = _make_clients(small_config, database, specs)
        front_door = FederationFrontDoor(
            gateways=2, batch_size=4, flush_ms=100.0
        )
        reports, live, final = _run_threaded(front_door, clients)
        assert all(report.error is None for report in reports)

        assert len(front_door._workers) == 2
        assert gauge_value(live, "federation_gateways") == 2
        assert gauge_value(final, "federation_gateways") == 0  # after close
        assert final.counter_total("federation_streams") == 3
        assert final.counter_total("federation_reroutes") == 0
        assert sum(
            final.counter_value("federation_streams", gateway=gateway_id)
            for gateway_id in front_door._workers
        ) == 3
        # every gateway's ingest totals, rolled up into the registry
        # the sinks would export
        assert final.counter_total("ingest_sessions_opened") == 3
        assert final.counter_total("ingest_windows_decoded") == 3 * 4
        assert final.counter_total("ingest_windows_lost") == 0
        assert final.counter_total("ingest_sessions_completed") == 3
        assert final.counter_total("ingest_sessions_errored") == 0

    def test_session_id_ranges_disjoint_across_gateways(
        self, small_config, database, thread_gateways
    ):
        from repro.ingest import SESSION_ID_STRIDE

        specs = [("100", 0), ("101", 1), ("102", 2), ("103", 3)]
        clients = _make_clients(small_config, database, specs)
        front_door = FederationFrontDoor(
            gateways=2, batch_size=4, flush_ms=100.0
        )
        reports, _, _ = _run_threaded(front_door, clients)
        assert all(report.error is None for report in reports)
        routed = dict(front_door.route_log)
        for client, report in zip(clients, reports):
            key = operator_key(
                client.system.config, client.system.decoder.precision
            )
            index = int(routed[key].removeprefix("gw"))
            assert (
                index * SESSION_ID_STRIDE
                <= report.stream_id
                < (index + 1) * SESSION_ID_STRIDE
            )


class TestFailover:
    def test_kill_one_gateway_reroutes_with_bounded_damage(
        self, small_config, database
    ):
        """Kill the busiest gateway mid-stream: its fec nodes
        reconnect through the front door, replay from their keyframe
        anchor, and every window still decodes — zero loss, ≤
        keyframe_interval resync damage (zero here, thanks to the
        anchor), and the reroute is counted against the dead
        gateway."""
        specs = [("100", 0), ("119", 1), ("217", 2)]
        clients = _make_clients(
            small_config,
            database,
            specs,
            max_packets=8,
            interval_s=0.08,
            fec=True,
            reconnect=5,
        )
        front_door = FederationFrontDoor(
            gateways=2, batch_size=4, flush_ms=100.0
        )

        async def run():
            port = await front_door.start("127.0.0.1", 0)
            if any(
                worker.in_process
                for worker in front_door._workers.values()
            ):
                await front_door.close()
                pytest.skip("multiprocessing unavailable; thread fallback")
            streams = [
                asyncio.ensure_future(
                    client.run_tcp("127.0.0.1", port)
                )
                for client in clients
            ]
            await asyncio.sleep(0.25)
            # kill mid-stream, not mid-handshake: a node whose HELLO is
            # on the victim but whose WELCOME is not back fails with
            # ProtocolError instead of reconnecting.  Every link is
            # usually up ~50-90 ms after start, but a stalled event loop
            # (a full garbage collection of a large test process) can
            # push that past the 0.25 s above
            loop = asyncio.get_running_loop()
            deadline = loop.time() + 10.0
            while loop.time() < deadline and not all(
                client._next_unsent >= 1 for client in clients
            ):
                await asyncio.sleep(0.01)
            victim = max(
                front_door._workers.values(),
                key=lambda worker: len(worker.sessions),
            )
            assert victim.sessions, "no gateway had a live session yet"
            await front_door.kill_gateway(victim.gateway_id)
            reports = await asyncio.gather(*streams)
            await front_door.close()
            return reports, victim.gateway_id

        with pytest.warns(RuntimeWarning, match="killed"):
            reports, victim_id = asyncio.run(run())

        keyframe_interval = small_config.keyframe_interval
        assert all(report.error is None for report in reports)
        assert any(report.reconnects >= 1 for report in reports)
        final = front_door.telemetry.snapshot()
        assert final.counter_total("federation_reroutes") >= 1
        assert final.counter_total("ingest_windows_lost") == 0
        merged = merge_stream_results(front_door.results)
        for client, report in zip(clients, reports):
            result = merged[f"{client.record.name}:0"]
            # the hard damage bound from ISSUE.md: a gateway death
            # costs each of its streams at most one resync epoch
            assert (
                result.windows_lost + result.windows_resynced
                <= keyframe_interval
            )
            # and the fec anchor replay actually achieves zero
            assert result.windows_lost == 0
            assert result.windows_resynced == 0
            # every window decoded (acked can exceed sent: keyframe
            # replays after the reconnect are re-acked by the new
            # gateway and count again in the cumulative total)
            assert len(result.iterations) == 8
            assert report.sent == 8
            assert report.acked >= report.sent


    def test_silent_worker_is_declared_dead_on_missed_heartbeats(
        self, small_config, database, monkeypatch, thread_gateways
    ):
        """A worker that stops answering its control pipe (alive, but
        wedged) is ruled dead after HEARTBEAT_MISSES silent beats:
        removed from the ring, its live links cut, its streams
        re-routed to the survivor."""
        import time

        monkeypatch.setattr(federation_module, "HEARTBEAT_S", 0.1)

        class SilentPipe:
            """The parent end of a control pipe whose worker went
            quiet: requests vanish, nothing ever comes back."""

            def __init__(self, conn):
                self.conn = conn

            def send(self, message):
                pass

            def poll(self, timeout):
                time.sleep(timeout)
                return False

            def close(self):
                self.conn.close()  # EOF lets the worker thread exit

        clients = _make_clients(
            small_config,
            database,
            [("100", 0)],
            max_packets=16,
            interval_s=0.08,
            fec=True,
            reconnect=5,
        )
        front_door = FederationFrontDoor(
            gateways=2, batch_size=4, flush_ms=100.0
        )

        async def run():
            port = await front_door.start("127.0.0.1", 0)
            stream = asyncio.ensure_future(
                clients[0].run_tcp("127.0.0.1", port)
            )
            await asyncio.sleep(0.2)
            victim = max(
                front_door._workers.values(),
                key=lambda worker: len(worker.sessions),
            )
            assert victim.sessions, "no gateway had a live session yet"
            victim.conn = SilentPipe(victim.conn)
            report = await asyncio.wait_for(stream, 20.0)
            live = front_door.telemetry.snapshot()
            in_ring = victim.gateway_id in front_door.ring
            await front_door.close()
            return report, victim, live, in_ring

        with pytest.warns(RuntimeWarning, match="heartbeat lost"):
            report, victim, live, in_ring = asyncio.run(run())
        assert not victim.alive and not in_ring
        assert gauge_value(live, "federation_gateways") == 1
        assert not victim.sessions  # its links were cut
        assert report.error is None
        assert report.reconnects >= 1
        assert front_door.telemetry.counter_total("federation_reroutes") == 1
        # the survivor decoded the replayed tail from the fec anchor
        survivor = merge_stream_results(front_door.results)["100:0"]
        assert survivor.sequences[-1] == 15
        assert survivor.windows_lost == 0


class TestBlasThreads:
    @pytest.mark.parametrize("processes", [True, False])
    def test_gateway_process_runs_blas_on_one_thread(
        self, request, monkeypatch, blas_on_two_threads, processes
    ):
        """N gateway processes share N CPUs, so each runs BLAS on one
        thread; the thread fallback shares the front door's process
        and leaves its setting alone.  The worker body is replaced by
        one that announces its largest BLAS thread count in the ready
        message's port slot."""

        async def announce_blas_threads(conn, gateway_options):
            conn.send(("ready", max(blas_on_two_threads())))

        monkeypatch.setattr(
            federation_module, "_gateway_worker", announce_blas_threads
        )
        if not processes:
            request.getfixturevalue("thread_gateways")
        front_door = FederationFrontDoor(gateways=1)
        worker = asyncio.run(front_door._spawn(0))
        worker.runner.join(timeout=30)
        assert not worker.runner.is_alive()
        if processes and worker.in_process:
            pytest.skip("multiprocessing unavailable; thread fallback")
        assert worker.port == (1 if processes else 2)
        assert min(blas_on_two_threads()) == 2  # the front door's own


class TestSolveSlots:
    @pytest.mark.parametrize("processes", [True, False])
    @pytest.mark.parametrize("workers", [None, 0, 1, 2])
    def test_each_gateway_solves_one_batch_at_a_time(
        self, request, monkeypatch, processes, workers
    ):
        """The federation's parallelism is its gateway count, so with
        ``workers`` unset each gateway (process or fallback thread)
        keeps one solve slot, where a standalone gateway with BLAS on
        one thread takes one per usable CPU; an explicit value is forwarded as given.  The
        worker body announces the bound its options give in the ready
        message's port slot."""

        import repro.fleet.executor as executor_module

        async def announce_solve_slots(conn, gateway_options):
            IngestGateway(**gateway_options)  # options it accepts
            slots = executor_module.solve_slots(gateway_options["workers"])
            conn.send(("ready", slots))

        # a standalone gateway would take 4 (a forked worker inherits
        # it), as a gateway process with its BLAS pinned would
        monkeypatch.setattr(executor_module, "usable_cpus", lambda: 4)
        monkeypatch.setattr(executor_module, "blas_threads", lambda: 1)
        monkeypatch.setattr(
            federation_module, "_gateway_worker", announce_solve_slots
        )
        if not processes:
            request.getfixturevalue("thread_gateways")
        front_door = FederationFrontDoor(gateways=1, workers=workers)
        worker = asyncio.run(front_door._spawn(0))
        worker.runner.join(timeout=30)
        assert not worker.runner.is_alive()
        assert worker.port == (2 if workers == 2 else 1)


class TestValidation:
    def test_constructor_rejects_bad_shapes(self):
        with pytest.raises(ConfigurationError, match="gateways"):
            FederationFrontDoor(gateways=0)

    def test_gateway_options_validated_by_the_gateway_constructor(self):
        """Forwarded options are checked in the parent, by the one
        constructor that owns them — not as N worker start-up
        failures, and not by a second copy of the checks."""
        with pytest.raises(ConfigurationError, match="batch_size"):
            FederationFrontDoor(gateways=2, batch_size=0)
        with pytest.raises(ConfigurationError, match="flush_ms"):
            FederationFrontDoor(gateways=2, flush_ms=float("nan"))
        with pytest.raises(TypeError, match="workers_per_gateway"):
            FederationFrontDoor(gateways=2, workers_per_gateway=2)
        # the id range is the front door's to assign
        with pytest.raises(TypeError, match="session_id_base"):
            FederationFrontDoor(gateways=2, session_id_base=7)

    def test_non_finite_flush_deadline_rejected(self):
        """The front door inherits the gateway's flush_ms check: a NaN
        or infinite deadline never fires, so it is refused up front."""
        for flush_ms in (float("nan"), float("inf")):
            with pytest.raises(ConfigurationError, match="finite"):
                FederationFrontDoor(
                    gateways=2, flush_ms=flush_ms
                )

    def test_kill_unknown_gateway_rejected(self, thread_gateways):
        front_door = FederationFrontDoor(gateways=2)

        async def run():
            await front_door.start("127.0.0.1", 0)
            try:
                with pytest.raises(KeyError):
                    await front_door.kill_gateway("gw9")
            finally:
                await front_door.close()

        asyncio.run(run())
