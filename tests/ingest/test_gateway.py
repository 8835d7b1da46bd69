"""Gateway behavior: pooling, flush triggers, faults, backpressure.

Each test drives a real :class:`~repro.ingest.IngestGateway` over the
in-process loopback transport (same session code path as TCP) inside
``asyncio.run``; the decoded output is pinned against the serial
per-stream reference exactly like the fleet tests.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import threading

import numpy as np
import pytest

import repro.coding.codebook as codebook_module
import repro.fleet.executor as executor_module
import repro.ingest.gateway as gateway_module
from repro.coding import Codebook, train_codebook
from repro.core import EcgMonitorSystem
from repro.core.decoder import PacketPayloadDecoder
from repro.errors import ConfigurationError
from repro.fleet.engine import solve_measurement_block
from repro.ingest import (
    FrameKind,
    Handshake,
    IngestGateway,
    NodeClient,
    encode_frame,
    encode_json_frame,
    encoded_packets,
    read_frame,
)


def _damaged(result) -> int:
    """Windows a stream did not decode (lost + resynced)."""
    return result.windows_lost + result.windows_resynced


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


async def _drain_sessions(gateway):
    """Wait for every connection handler to finish."""
    while gateway._conn_tasks:
        await asyncio.gather(
            *list(gateway._conn_tasks), return_exceptions=True
        )


def _hello(system, record):
    return Handshake(
        record=record.name,
        channel=0,
        config=system.config,
        codebook=system.encoder.codebook,
    ).to_frame()


def _packet(packet):
    return encode_frame(FrameKind.PACKET, packet.to_bytes())


async def _next_decoded(reader, timeout=30.0):
    """The body of the next DECODED ack on a node link."""
    while True:
        frame = await asyncio.wait_for(read_frame(reader), timeout)
        assert frame is not None, "link closed before a DECODED ack"
        kind, body = frame
        if kind is FrameKind.DECODED:
            return json.loads(body)


async def _wait_until(predicate, timeout=30.0):
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while not predicate():
        assert loop.time() < deadline, "condition not reached in time"
        await asyncio.sleep(0.005)


#: a parked solve gives up waiting after this long, so a failing test
#: cannot wedge the executor's shutdown
PARK_TIMEOUT_S = 60.0


class _ParkedSolves:
    """Hold the gateway's next ``remaining`` solves until released.

    Wraps ``gateway.solve_measurement_block``, which the gateway looks
    up on every dispatch.  A parked solve keeps its executor slot and
    counts as in flight, so windows arriving meanwhile pool instead of
    leaving at once on the ``idle`` trigger: this is how a test holds
    windows in the pool.
    """

    def __init__(self, monkeypatch) -> None:
        original = gateway_module.solve_measurement_block
        self.gate = threading.Event()
        self.remaining = 1
        self.parked = 0
        lock = threading.Lock()

        def parked_solve(task):
            with lock:
                park = self.remaining > 0
                if park:
                    self.remaining -= 1
                    self.parked += 1
            if park:
                self.gate.wait(PARK_TIMEOUT_S)
            return original(task)

        monkeypatch.setattr(
            gateway_module, "solve_measurement_block", parked_solve
        )

    async def wait_parked(self, count=1):
        await _wait_until(lambda: self.parked >= count)

    def release(self):
        self.gate.set()


@pytest.fixture
def parked(monkeypatch):
    parking = _ParkedSolves(monkeypatch)
    yield parking
    parking.release()  # never leave a solve thread waiting


def _solve_threads(monkeypatch, count):
    """An in-process gateway bound of ``count`` solves on any machine:
    that many CPUs, BLAS on one thread."""
    monkeypatch.setattr(executor_module, "usable_cpus", lambda: count)
    monkeypatch.setattr(executor_module, "blas_threads", lambda: 1)


@pytest.fixture
def two_cpus(monkeypatch):
    _solve_threads(monkeypatch, 2)


@pytest.fixture
def other_group(small_config, database, two_cpus):
    """A calibrated node on another sensing seed, so its windows form a
    second operator group, plus its first packet.  The gateway runs two
    solves at once, so the group under test can still dispatch beside
    the parked one."""
    record = database.load("119")
    system = _system(small_config.replace(seed=small_config.seed + 1), record)
    return system, record, encoded_packets(system, record, max_packets=1)[0]


async def _occupy_solver(gateway, parked, other_group):
    """Park one solve of *another* operator group: the solver is busy,
    so windows of the group under test wait for that solve to complete
    or for their deadline.  Returns the parked node's reader."""
    system, record, packet = other_group
    reader, writer = gateway.connect_local()
    writer.write(_hello(system, record))
    writer.write(_packet(packet))
    await parked.wait_parked()
    writer.write(encode_frame(FrameKind.BYE))
    return reader


def _flushes_of(gateway, record):
    """``(reason, width)`` of every logged flush of ``record``'s group."""
    session_ids = {
        session.id
        for session in gateway._sessions.values()
        if session.handshake.record == record.name
    } | {
        result.session_id
        for result in gateway.results
        if result.record == record.name
    }
    return [
        (reason, len(members))
        for _key, members, reason in gateway.batch_log
        if members[0][0] in session_ids
    ]


def _result_of(gateway, record):
    return next(r for r in gateway.results if r.record == record.name)


class TestPooledDecode:
    def test_two_clients_share_one_operator_group(
        self, small_config, database, parked
    ):
        """Same seed + basis => one group; a batch spans both streams
        and each stream still decodes exactly like its serial run."""
        records = [database.load("100"), database.load("119")]
        systems = [_system(small_config, record) for record in records]

        async def run():
            gateway = IngestGateway(batch_size=2, flush_ms=5000.0)
            links = [gateway.connect_local() for _ in systems]
            writers = []
            for (reader, writer), system, record in zip(
                links, systems, records
            ):
                writer.write(_hello(system, record))
                writers.append(writer)
            packets = [
                encoded_packets(system, record, max_packets=2)
                for system, record in zip(systems, records)
            ]
            # stream 0's first window takes the idle solver and parks
            # there; the rest arrive interleaved behind it, so the
            # next batch of 2 must mix the two sessions
            writers[0].write(_packet(packets[0][0]))
            await parked.wait_parked()
            for writer, packet in (
                (writers[1], packets[1][0]),
                (writers[0], packets[0][1]),
                (writers[1], packets[1][1]),
            ):
                writer.write(_packet(packet))
                await asyncio.sleep(0.01)  # let the session pool it
            parked.release()
            for writer in writers:
                writer.write(encode_frame(FrameKind.BYE))
            await _drain_sessions(gateway)
            await gateway.close()
            return gateway

        gateway = asyncio.run(run())
        assert len({key for key, _m, _r in gateway.batch_log}) == 1
        assert gateway.stats.cross_stream_batches >= 1
        assert gateway.stats.windows_decoded == 4
        results = sorted(gateway.results, key=lambda r: r.session_id)
        for system, record, result in zip(systems, records, results):
            assert result.clean_close
            _assert_matches_serial(
                result, _serial_reference(system, record, max_packets=2)
            )

    def test_distinct_seeds_form_distinct_groups(
        self, small_config, database
    ):
        record = database.load("100")
        other_config = small_config.replace(seed=small_config.seed + 1)
        systems = [
            _system(small_config, record),
            _system(other_config, record),
        ]

        async def run():
            gateway = IngestGateway(batch_size=4, flush_ms=100.0)
            clients = [
                NodeClient(system, record, max_packets=2, interval_s=0.0)
                for system in systems
            ]
            links = [gateway.connect_local() for _ in clients]
            await asyncio.gather(
                *[
                    client.run(reader, writer)
                    for client, (reader, writer) in zip(clients, links)
                ]
            )
            await gateway.close()
            return gateway

        gateway = asyncio.run(run())
        assert len({key for key, _m, _r in gateway.batch_log}) == 2
        assert gateway.stats.windows_decoded == 4
        for system, result in zip(
            systems, sorted(gateway.results, key=lambda r: r.session_id)
        ):
            _assert_matches_serial(
                result, _serial_reference(system, record, max_packets=2)
            )

    def test_flush_on_idle_deadline(
        self, small_config, database, parked, other_group
    ):
        """A lone stream with a part-filled batch decodes within the
        flush deadline instead of waiting for batch-mates forever: the
        link stays open (no BYE, no disconnect) and another group's
        solve keeps the solver busy, so only the deadline can trigger
        the flush."""
        record = database.load("100")
        system = _system(small_config, record)
        packets = encoded_packets(system, record, max_packets=3)

        async def run():
            gateway = IngestGateway(batch_size=64, flush_ms=50.0)
            await _occupy_solver(gateway, parked, other_group)
            reader, writer = gateway.connect_local()
            writer.write(_hello(system, record))
            for packet in packets:
                writer.write(_packet(packet))
            # deadline-flushed DECODED acks, while the solver stays busy
            decoded = [await _next_decoded(reader) for _ in packets]
            still_parked = not parked.gate.is_set()
            parked.release()
            writer.write(encode_frame(FrameKind.BYE))
            await _drain_sessions(gateway)
            await gateway.close()
            return gateway, decoded, still_parked

        gateway, decoded, still_parked = asyncio.run(run())
        assert still_parked
        assert gateway.stats.flushes_deadline >= 1
        assert {reason for reason, _ in _flushes_of(gateway, record)} == {
            "deadline"
        }
        assert _result_of(gateway, record).num_windows == 3
        # the oldest window waited out the whole deadline
        assert decoded[0]["latency_ms"] >= 50.0
        _assert_matches_serial(
            _result_of(gateway, record),
            _serial_reference(system, record, max_packets=3),
        )

    def test_process_pool_workers_match_serial(
        self, small_config, database
    ):
        """Live intra-group sharding: batches of one operator group
        decode on a process pool, trajectories identical to serial."""
        record = database.load("100")
        system = _system(small_config, record)

        async def run():
            gateway = IngestGateway(
                batch_size=2, flush_ms=100.0, workers=2
            )
            reader, writer = gateway.connect_local()
            client = NodeClient(
                system, record, max_packets=4, interval_s=0.0
            )
            report = await asyncio.wait_for(
                client.run(reader, writer), timeout=120.0
            )
            await gateway.close()
            return gateway, report

        gateway, report = asyncio.run(run())
        assert report.acked == 4
        result = gateway.results[0]
        assert result.indices == [0, 1, 2, 3]  # re-sorted if needed
        _assert_matches_serial(
            result, _serial_reference(system, record, max_packets=4)
        )

    def test_same_operator_groups_never_share_a_solve(
        self, small_config, database
    ):
        """Regression: two streams on one sensing matrix that differ
        only in ``tolerance`` land in two solve groups (each with its
        own drain loop) but on ONE cached solver, whose workspace
        serves one caller at a time.  Their flushes used to run
        concurrently on the solve threads and scribble over each
        other's iterates; every delivered window must equal the serial
        replay of its logged batch."""
        import dataclasses

        from repro.core.decoder import PacketPayloadDecoder
        from repro.fleet.engine import solve_measurement_block

        windows = 20  # all of the session corpus's 20 s records
        record = database.load("100")
        configs = [small_config, small_config.replace(tolerance=3e-4)]
        systems = [_system(config, record) for config in configs]

        async def run():
            gateway = IngestGateway(batch_size=4, flush_ms=5000.0)
            clients = [
                NodeClient(
                    system, record, max_packets=windows, interval_s=0.0
                )
                for system in systems
            ]
            links = [gateway.connect_local() for _ in clients]
            await asyncio.wait_for(
                asyncio.gather(
                    *[
                        client.run(reader, writer)
                        for client, (reader, writer) in zip(clients, links)
                    ]
                ),
                timeout=120.0,
            )
            await _drain_sessions(gateway)
            await gateway.close()
            return gateway

        gateway = asyncio.run(run())
        assert len({key for key, _m, _r in gateway.batch_log}) == 2
        results = {r.session_id: r.ordered() for r in gateway.results}
        configs_of = {}
        columns = {}
        for result, system in zip(gateway.results, systems):
            assert result.error is None and result.num_windows == windows
            configs_of[result.session_id] = system.config
            block = PacketPayloadDecoder(
                system.config, codebook=system.encoder.codebook
            ).measurement_block(
                encoded_packets(system, record, max_packets=windows),
                np.float64,
            )
            for index in range(windows):
                columns[(result.session_id, index)] = block[:, index]
        dc_offset = 1 << (small_config.adc_bits - 1)
        for _key, members, _reason in gateway.batch_log:
            config = configs_of[members[0][0]]
            block = np.stack([columns[member] for member in members], axis=1)
            out = solve_measurement_block(
                {
                    "config": dataclasses.asdict(config),
                    "precision": "float64",
                    "block": block,
                    "fractions": np.full(block.shape[1], config.lam),
                    "batch_size": block.shape[1],
                    "max_iterations": config.max_iterations,
                    "tolerance": config.tolerance,
                }
            )
            for column, (session_id, index) in enumerate(members):
                np.testing.assert_array_equal(
                    results[session_id].samples_adu[index],
                    out["signals"][:, column] + dc_offset,
                )

    def test_platform_without_pools_solves_on_threads(
        self, small_config, database, monkeypatch
    ):
        """workers=2 on a platform that cannot start a pool: the
        executor's one warning (the fleet's message), then the gateway
        serves from its solve threads."""
        import repro.fleet.executor as executor_module

        def no_pool(*args, **kwargs):
            raise OSError("no sem_open here")

        monkeypatch.setattr(executor_module, "ProcessPoolExecutor", no_pool)
        record = database.load("100")
        system = _system(small_config, record)

        async def run():
            gateway = IngestGateway(batch_size=2, flush_ms=100.0, workers=2)
            reader, writer = gateway.connect_local()
            client = NodeClient(
                system, record, max_packets=4, interval_s=0.0
            )
            await asyncio.wait_for(client.run(reader, writer), timeout=60.0)
            await gateway.close()
            return gateway

        with pytest.warns(
            RuntimeWarning, match="process pool unavailable"
        ) as caught:
            gateway = asyncio.run(run())
        assert len(caught) == 1
        assert gateway.workers == 1
        _assert_matches_serial(
            gateway.results[0].ordered(),
            _serial_reference(system, record, max_packets=4),
        )

    def test_gateway_validation(self):
        with pytest.raises(ConfigurationError):
            IngestGateway(batch_size=0)
        with pytest.raises(ConfigurationError):
            IngestGateway(flush_ms=0.0)
        # regression: NaN passed the old `flush_ms <= 0` check, and a
        # window pooled behind a busy solver was then never acked
        for flush_ms in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ConfigurationError, match="finite"):
                IngestGateway(flush_ms=flush_ms)
        with pytest.raises(ConfigurationError):
            IngestGateway(workers=-1)
        with pytest.raises(ConfigurationError):
            IngestGateway(max_pending=0)


def _live_drains():
    """The gateway's flush loops still running in this event loop."""
    return [
        task
        for task in asyncio.all_tasks()
        if task.get_coro().__name__ == "_drain" and not task.done()
    ]


class TestGroupLifetime:
    """A group lives while a session of it is open: a HELLO may name
    any seed, so groups that outlived their sessions grew the gateway
    (a group and a flush loop per seed ever seen) without bound."""

    def test_sequential_distinct_seeds_leave_no_group(
        self, small_config, database
    ):
        record = database.load("100")
        systems = [
            _system(
                small_config.replace(seed=small_config.seed + 11 + i),
                record,
            )
            for i in range(4)
        ]

        async def run():
            gateway = IngestGateway(batch_size=2, flush_ms=50.0)
            for system in systems:
                client = NodeClient(
                    system, record, max_packets=2, interval_s=0.0
                )
                await client.run(*gateway.connect_local())
                await _drain_sessions(gateway)
            await asyncio.sleep(0)  # let the cancelled loops unwind
            left = (len(gateway._groups), len(_live_drains()))
            await gateway.close()
            return gateway, left

        gateway, left = asyncio.run(run())
        assert left == (0, 0)
        assert gateway.stats.windows_decoded == 8
        assert len({key for key, _m, _r in gateway.batch_log}) == 4
        # one group at a time: every one took the smallest free label
        snap = gateway.telemetry.snapshot()
        assert snap.label_values("ingest_queue_depth", "group") == {"g0"}
        for system, result in zip(
            systems, sorted(gateway.results, key=lambda r: r.session_id)
        ):
            _assert_matches_serial(
                result, _serial_reference(system, record, max_packets=2)
            )

    def test_new_group_takes_the_smallest_free_label(
        self, small_config, database
    ):
        """g0 and g1 open, g0's session ends: the next group is g0 —
        numbering by group count named it g1, the label of the live
        group."""
        record = database.load("100")
        systems = [
            _system(
                small_config.replace(seed=small_config.seed + 21 + i),
                record,
            )
            for i in range(3)
        ]

        async def run():
            gateway = IngestGateway(batch_size=2, flush_ms=50.0)
            links = [gateway.connect_local() for _ in range(2)]
            for (_reader, writer), system in zip(links, systems):
                writer.write(_hello(system, record))
            await _wait_until(lambda: len(gateway._groups) == 2)
            links[0][1].write(encode_frame(FrameKind.BYE))
            await _wait_until(lambda: len(gateway._sessions) == 1)
            reader, writer = gateway.connect_local()
            writer.write(_hello(systems[2], record))
            await _wait_until(lambda: len(gateway._sessions) == 2)
            labels = sorted(g.label for g in gateway._groups.values())
            for _reader, writer in (links[1], (reader, writer)):
                writer.write(encode_frame(FrameKind.BYE))
            await _drain_sessions(gateway)
            await gateway.close()
            return labels

        assert asyncio.run(run()) == ["g0", "g1"]

    def test_session_joining_a_finalizing_group_decodes_bit_identically(
        self, small_config, database, parked
    ):
        """Session B registers on A's key while A is finalizing (its
        window parked in the solver): A's leaving keeps the group B is
        using, B decodes exactly the replay of its logged batches, and
        the group goes once B leaves too."""
        records = [database.load("100"), database.load("119")]
        first, second = (_system(small_config, r) for r in records)
        packet = encoded_packets(first, records[0], max_packets=1)[0]

        async def run():
            gateway = IngestGateway(batch_size=2, flush_ms=50.0)
            _reader, writer = gateway.connect_local()
            writer.write(_hello(first, records[0]))
            writer.write(_packet(packet))
            await parked.wait_parked()
            writer.write(encode_frame(FrameKind.BYE))
            await _wait_until(
                lambda: any(s.closed for s in gateway._sessions.values())
            )
            client = NodeClient(
                second, records[1], max_packets=3, interval_s=0.0
            )
            joined = asyncio.create_task(
                client.run(*gateway.connect_local())
            )
            await _wait_until(lambda: len(gateway._sessions) == 2)
            shared = len({id(s.group) for s in gateway._sessions.values()})
            parked.release()
            await joined
            await _drain_sessions(gateway)
            left = len(gateway._groups)
            await gateway.close()
            return gateway, shared, left

        gateway, shared, left = asyncio.run(run())
        assert (shared, left) == (1, 0)
        results = sorted(gateway.results, key=lambda r: r.session_id)
        assert [r.error for r in results] == [None, None]
        assert [r.num_windows for r in results] == [1, 3]
        _assert_matches_serial(
            results[0], _serial_reference(first, records[0], max_packets=1)
        )
        joined = results[1]
        columns = PacketPayloadDecoder(
            small_config, codebook=second.encoder.codebook
        ).measurement_block(
            encoded_packets(second, records[1], max_packets=3), np.float64
        )
        dc_offset = second.encoder.dc_offset
        replayed = 0
        for _key, members, _reason in gateway.batch_log:
            indices = [i for sid, i in members if sid == joined.session_id]
            if not indices:
                continue
            assert len(indices) == len(members)
            out = solve_measurement_block(
                {
                    "config": dataclasses.asdict(small_config),
                    "precision": "float64",
                    "block": columns[:, indices],
                    "fractions": np.full(len(indices), small_config.lam),
                    "max_iterations": small_config.max_iterations,
                    "tolerance": small_config.tolerance,
                }
            )
            for column, index in enumerate(indices):
                np.testing.assert_array_equal(
                    joined.samples_adu[index],
                    out["signals"][:, column] + dc_offset,
                )
                replayed += 1
        assert replayed == 3


class TestIdleDispatch:
    """The work-conserving rule: a group flushes whatever is pending the
    moment fewer than ``workers`` solves are in flight; batches form only
    behind a busy solver, and ``flush_ms`` bounds the wait behind another
    group's solve."""

    def test_lone_window_on_an_idle_gateway_leaves_at_once(
        self, small_config, database
    ):
        record = database.load("100")
        system = _system(small_config, record)
        packet = encoded_packets(system, record, max_packets=1)[0]

        async def run():
            gateway = IngestGateway(batch_size=64, flush_ms=60_000.0)
            reader, writer = gateway.connect_local()
            writer.write(_hello(system, record))
            writer.write(_packet(packet))
            decoded = await _next_decoded(reader)
            writer.write(encode_frame(FrameKind.BYE))
            await _drain_sessions(gateway)
            await gateway.close()
            return gateway, decoded

        gateway, decoded = asyncio.run(run())
        # seconds at most (the first solve builds the operator), never
        # the 60 s deadline
        assert decoded["latency_ms"] < 10_000.0
        assert [r for _k, _m, r in gateway.batch_log] == ["idle"]
        assert gateway.stats.flushes_idle == 1

    def test_windows_behind_a_parked_solve_leave_as_one_batch(
        self, small_config, database, parked
    ):
        """Windows of two streams that arrive while the solver is busy
        pool, then leave together — one cross-stream batch — when it
        comes free."""
        records = [database.load("100"), database.load("119")]
        systems = [_system(small_config, record) for record in records]
        packets = [
            encoded_packets(system, record, max_packets=2)
            for system, record in zip(systems, records)
        ]

        async def run():
            gateway = IngestGateway(batch_size=64, flush_ms=60_000.0)
            links = [gateway.connect_local() for _ in systems]
            for (_reader, writer), system, record in zip(
                links, systems, records
            ):
                writer.write(_hello(system, record))
            writers = [writer for _reader, writer in links]
            writers[0].write(_packet(packets[0][0]))
            await parked.wait_parked()
            writers[0].write(_packet(packets[0][1]))
            writers[1].write(_packet(packets[1][0]))
            await asyncio.sleep(0.05)  # both pooled behind the solve
            held = len(gateway.batch_log)
            parked.release()
            for reader, _writer in links:
                await _next_decoded(reader)
            for writer in writers:
                writer.write(encode_frame(FrameKind.BYE))
            await _drain_sessions(gateway)
            await gateway.close()
            return gateway, held

        gateway, held = asyncio.run(run())
        assert held == 1  # only the parked solve had left
        by_record = {r.record: r.session_id for r in gateway.results}
        first, second = (by_record[record.name] for record in records)
        assert [(m, r) for _k, m, r in gateway.batch_log] == [
            ([(first, 0)], "idle"),
            ([(first, 1), (second, 0)], "idle"),
        ]
        assert gateway.stats.cross_stream_batches == 1

    def test_busy_solver_of_another_group_holds_until_the_deadline(
        self, small_config, database, parked, other_group
    ):
        """Group B's lone window, behind group A's parked solve, leaves
        on ``deadline`` at about ``flush_ms`` — not earlier."""
        record = database.load("100")
        system = _system(small_config, record)
        packet = encoded_packets(system, record, max_packets=1)[0]
        flush_ms = 200.0

        async def run():
            gateway = IngestGateway(batch_size=64, flush_ms=flush_ms)
            await _occupy_solver(gateway, parked, other_group)
            reader, writer = gateway.connect_local()
            writer.write(_hello(system, record))
            writer.write(_packet(packet))
            decoded = await _next_decoded(reader)
            still_parked = not parked.gate.is_set()
            parked.release()
            writer.write(encode_frame(FrameKind.BYE))
            await _drain_sessions(gateway)
            await gateway.close()
            return gateway, decoded, still_parked

        gateway, decoded, still_parked = asyncio.run(run())
        assert still_parked
        assert _flushes_of(gateway, record) == [("deadline", 1)]
        # the deadline is measured from frame arrival, so the latency
        # the ack reports cannot undercut it
        assert flush_ms <= decoded["latency_ms"] < flush_ms + 5_000.0

    def test_completing_solve_dispatches_another_group_at_once(
        self, small_config, database, parked, other_group
    ):
        """Releasing group A's solve before group B's deadline wakes B,
        which leaves at once with reason ``idle``."""
        record = database.load("100")
        system = _system(small_config, record)
        packet = encoded_packets(system, record, max_packets=1)[0]

        async def run():
            gateway = IngestGateway(batch_size=64, flush_ms=60_000.0)
            await _occupy_solver(gateway, parked, other_group)
            reader, writer = gateway.connect_local()
            writer.write(_hello(system, record))
            writer.write(_packet(packet))
            await asyncio.sleep(0.05)  # pooled behind A's solve
            held = list(_flushes_of(gateway, record))
            parked.release()
            decoded = await _next_decoded(reader)
            writer.write(encode_frame(FrameKind.BYE))
            await _drain_sessions(gateway)
            await gateway.close()
            return gateway, decoded, held

        gateway, decoded, held = asyncio.run(run())
        assert held == []
        assert _flushes_of(gateway, record) == [("idle", 1)]
        assert decoded["latency_ms"] < 10_000.0

    def test_two_workers_run_two_idle_flushes_concurrently(
        self, small_config, database, monkeypatch, parked
    ):
        """``workers=2``: the idle rule admits a second flush while one
        solve is in flight, and holds a third window behind the two."""
        import concurrent.futures

        import repro.fleet.executor as executor_module

        # a two-worker pool in this process, so the parked wrapper is
        # the one the workers call; the pool's BLAS-pin initializer is
        # dropped, since in threads it would pin this whole process
        monkeypatch.setattr(
            executor_module,
            "ProcessPoolExecutor",
            lambda max_workers, initializer: (
                concurrent.futures.ThreadPoolExecutor(max_workers)
            ),
        )
        parked.remaining = 2
        record = database.load("100")
        system = _system(small_config, record)
        packets = encoded_packets(system, record, max_packets=3)

        async def run():
            gateway = IngestGateway(
                batch_size=64, flush_ms=60_000.0, workers=2
            )
            reader, writer = gateway.connect_local()
            writer.write(_hello(system, record))
            writer.write(_packet(packets[0]))
            await parked.wait_parked(1)
            writer.write(_packet(packets[1]))
            await parked.wait_parked(2)  # both solves in flight at once
            writer.write(_packet(packets[2]))
            await asyncio.sleep(0.05)
            held = [(r, len(m)) for _k, m, r in gateway.batch_log]
            parked.release()
            for _ in packets:
                await _next_decoded(reader)
            writer.write(encode_frame(FrameKind.BYE))
            await _drain_sessions(gateway)
            await gateway.close()
            return gateway, held

        gateway, held = asyncio.run(run())
        assert gateway.workers == 2
        assert held == [("idle", 1), ("idle", 1)]
        assert [r for _k, _m, r in gateway.batch_log] == ["idle"] * 3
        _assert_matches_serial(
            gateway.results[0],
            _serial_reference(system, record, max_packets=3),
        )

    def test_in_process_full_batches_of_one_group_overlap(
        self, small_config, database, monkeypatch, parked
    ):
        """In-process, two full batches of one operator group solve at
        once (the bound is gateway-wide, not per operator), while a
        partial batch still leaves on ``idle`` only once nothing is in
        flight — though a slot is free for it."""
        _solve_threads(monkeypatch, 4)
        parked.remaining = 3
        record = database.load("100")
        system = _system(small_config, record)
        packets = encoded_packets(system, record, max_packets=6)

        async def run():
            gateway = IngestGateway(batch_size=2, flush_ms=60_000.0)
            reader, writer = gateway.connect_local()
            writer.write(_hello(system, record))
            writer.write(_packet(packets[0]))
            try:
                await parked.wait_parked(1)  # the lone first window: idle
                for count, pair in ((2, packets[1:3]), (3, packets[3:5])):
                    for packet in pair:
                        writer.write(_packet(packet))
                    await parked.wait_parked(count)
                writer.write(_packet(packets[5]))
                await asyncio.sleep(0.05)
                held = [(r, len(m)) for _k, m, r in gateway.batch_log]
                free = gateway._executor.slot._value
                bound = gateway._executor.bound
            finally:
                parked.release()
            for _ in packets:
                await _next_decoded(reader)
            writer.write(encode_frame(FrameKind.BYE))
            await _drain_sessions(gateway)
            await gateway.close()
            return gateway, held, free, bound

        gateway, held, free, bound = asyncio.run(run())
        assert gateway.workers == 1 and bound == 4
        assert held == [("idle", 1), ("full", 2), ("full", 2)]
        assert free == 1  # the partial batch waited beside a free slot
        assert [r for _k, _m, r in gateway.batch_log] == [
            "idle",
            "full",
            "full",
            "idle",
        ]
        _assert_matches_serial(
            gateway.results[0],
            _serial_reference(system, record, max_packets=6),
        )

    def test_distinct_operators_share_one_bound(
        self, small_config, database, monkeypatch, parked
    ):
        """Solves of different operator groups draw on one in-flight
        bound: with two slots and two parked solves, a third group's
        deadline flush waits for a slot.  (A semaphore per operator let
        every group run a solve, and grew by one per node-supplied
        operator for the life of the process.)"""
        _solve_threads(monkeypatch, 2)
        parked.remaining = 3
        record = database.load("100")
        nodes = []
        for offset in range(3):
            system = _system(
                small_config.replace(seed=small_config.seed + 7 + offset),
                record,
            )
            nodes.append(
                (system, encoded_packets(system, record, max_packets=1)[0])
            )

        async def run():
            gateway = IngestGateway(batch_size=64, flush_ms=20.0)
            links = []
            try:
                for count, (system, packet) in enumerate(nodes, start=1):
                    reader, writer = gateway.connect_local()
                    writer.write(_hello(system, record))
                    writer.write(_packet(packet))
                    links.append((reader, writer))
                    if count < 3:
                        await parked.wait_parked(count)
                await asyncio.sleep(0.3)  # well past the third's deadline
                held = (parked.parked, len(gateway.batch_log))
            finally:
                parked.release()
            for reader, writer in links:
                await _next_decoded(reader)
                writer.write(encode_frame(FrameKind.BYE))
            await _drain_sessions(gateway)
            await gateway.close()
            return gateway, held

        gateway, held = asyncio.run(run())
        assert held == (2, 2)
        assert len({key for key, _m, _r in gateway.batch_log}) == 3
        assert [r for _k, _m, r in gateway.batch_log][-1] == "deadline"

    def test_unpaced_stream_still_fills_every_batch(
        self, small_config, database
    ):
        """Under load batching is untouched: an unpaced 64-window node
        at ``batch_size=16`` flushes only full batches, apart from the
        stream's tail."""
        from repro.ecg import SyntheticMitBih

        windows = 64
        record = SyntheticMitBih(
            duration_s=windows * small_config.packet_seconds + 4.0,
            seed=2011,
        ).load("100")
        system = _system(small_config, record)

        async def run():
            gateway = IngestGateway(batch_size=16, flush_ms=250.0)
            reader, writer = gateway.connect_local()
            client = NodeClient(
                system, record, max_packets=windows, interval_s=0.0
            )
            report = await asyncio.wait_for(
                client.run(reader, writer), timeout=120.0
            )
            await gateway.close()
            return gateway, report

        gateway, report = asyncio.run(run())
        assert report.acked == windows
        flushes = [(r, len(m)) for _k, m, r in gateway.batch_log]
        body = flushes[:-1] if flushes[-1][0] != "full" else flushes
        assert body and all(flush == ("full", 16) for flush in body)
        assert sum(width for _r, width in flushes) == windows

    def test_queue_wait_is_published_per_window(
        self, small_config, database
    ):
        """``ingest_stage_seconds{stage="queue"}`` gets one observation
        per decoded window, and on a paced stream it sits far under
        ``flush_ms`` — the wait the idle trigger removed."""
        record = database.load("100")
        system = _system(small_config, record)
        flush_ms = 250.0

        async def run():
            gateway = IngestGateway(batch_size=16, flush_ms=flush_ms)
            reader, writer = gateway.connect_local()
            client = NodeClient(
                system, record, max_packets=6, interval_s=0.05
            )
            await asyncio.wait_for(client.run(reader, writer), timeout=60.0)
            await gateway.close()
            return gateway

        gateway = asyncio.run(run())
        queue = gateway.telemetry.snapshot().histogram(
            "ingest_stage_seconds", stage="queue"
        )
        assert queue.total == gateway.stats.windows_decoded == 6
        assert queue.percentile(50) < 0.1 * flush_ms / 1000.0

    def test_failed_solve_still_wakes_other_groups(
        self, small_config, database, monkeypatch, other_group
    ):
        """A solve that dies frees the solver like one that returns:
        group B's window, pooled behind group A's failing solve, leaves
        on ``idle`` as soon as A fails, and no solve stays counted as
        in flight."""
        original = gateway_module.solve_measurement_block
        gate = threading.Event()
        entered = threading.Event()

        def failing_first_solve(task):
            if not entered.is_set():
                entered.set()
                gate.wait(PARK_TIMEOUT_S)
                raise RuntimeError("kaboom")
            return original(task)

        monkeypatch.setattr(
            gateway_module, "solve_measurement_block", failing_first_solve
        )
        record = database.load("100")
        system = _system(small_config, record)
        packet = encoded_packets(system, record, max_packets=1)[0]
        a_system, a_record, a_packet = other_group

        async def run():
            # a deadline well past the idle path's few ms, yet short
            # enough that a missed wake fails on "deadline", not a hang
            gateway = IngestGateway(batch_size=64, flush_ms=10_000.0)
            _a_reader, a_writer = gateway.connect_local()
            a_writer.write(_hello(a_system, a_record))
            a_writer.write(_packet(a_packet))
            await _wait_until(entered.is_set)
            reader, writer = gateway.connect_local()
            writer.write(_hello(system, record))
            writer.write(_packet(packet))
            await asyncio.sleep(0.05)  # pooled behind A's solve
            held = list(_flushes_of(gateway, record))
            with pytest.warns(RuntimeWarning, match="dropped a batch"):
                gate.set()
                decoded = await _next_decoded(reader)
            for link in (a_writer, writer):
                link.write(encode_frame(FrameKind.BYE))
            await _drain_sessions(gateway)
            await gateway.close()
            return gateway, decoded, held

        try:
            gateway, decoded, held = asyncio.run(run())
        finally:
            gate.set()  # never leave a solve thread waiting
        assert held == []
        assert _flushes_of(gateway, record) == [("idle", 1)]
        assert decoded["latency_ms"] < 10_000.0
        assert gateway._inflight == 0
        assert _result_of(gateway, record).error is None
        assert _result_of(gateway, a_record).error is not None


class TestFlushPlan:
    """``_flush_plan`` has exactly four triggers, in precedence order
    ``full`` → ``deadline`` → ``drain`` → ``idle``; with none due it
    waits for the deadline."""

    FLUSH_MS = 100.0

    def _plan(self, config, ages, *, inflight, workers=None, closed=False):
        """Plan a group whose pending windows arrived ``ages`` seconds
        before ``now``, with ``inflight`` solves running gateway-wide."""
        from types import SimpleNamespace

        gateway = IngestGateway(
            batch_size=4, flush_ms=self.FLUSH_MS, workers=workers
        )
        gateway._inflight = inflight
        group = gateway_module._GroupPool(("k",), config, "float64")
        session = SimpleNamespace(closed=closed)
        now = 1_000.0
        for index, age in enumerate(ages):
            group.pending.append(
                gateway_module._PendingWindow(
                    session=session,
                    index=index,
                    sequence=index,
                    column=np.zeros(config.m),
                    fraction=0.5,
                    t_submit=now - age,
                )
            )
        return gateway._flush_plan(group, now), now

    def test_full_batch_leaves_behind_a_busy_solver(self, small_config):
        (reason, due), now = self._plan(
            small_config, [0.0] * 4, inflight=1, closed=True
        )
        assert (reason, due) == ("full", now)

    def test_deadline_precedes_drain_and_idle(self, small_config):
        (reason, due), now = self._plan(
            small_config, [0.2, 0.0], inflight=0, closed=True
        )
        assert (reason, due) == ("deadline", now)

    def test_ended_stream_drains_before_idle(self, small_config):
        for inflight in (1, 0):
            (reason, due), now = self._plan(
                small_config, [0.01], inflight=inflight, closed=True
            )
            assert (reason, due) == ("drain", now)

    def test_idle_solver_takes_a_partial_batch(self, small_config):
        (reason, due), now = self._plan(small_config, [0.01], inflight=0)
        assert (reason, due) == ("idle", now)

    def test_busy_solver_holds_until_the_oldest_deadline(self, small_config):
        (reason, due), now = self._plan(
            small_config, [0.03, 0.01], inflight=1
        )
        assert reason is None
        assert due == pytest.approx(now - 0.03 + self.FLUSH_MS / 1000.0)

    def test_idle_bound_is_the_worker_count(self, small_config):
        (reason, _), _ = self._plan(
            small_config, [0.01], inflight=1, workers=2
        )
        assert reason == "idle"
        (reason, _), _ = self._plan(
            small_config, [0.01], inflight=2, workers=2
        )
        assert reason is None


class TestFaults:
    def test_mid_stream_disconnect_flushes_partial_batch(
        self, small_config, database, parked, other_group
    ):
        """A dropped link's pending windows still decode: the partial
        batch drains instead of rotting in the pool."""
        record = database.load("100")
        system = _system(small_config, record)
        packets = encoded_packets(system, record, max_packets=4)

        async def run():
            # batch far larger than what arrives + long deadline + a
            # busy solver: only the disconnect drain can flush these
            # two windows
            gateway = IngestGateway(batch_size=64, flush_ms=60_000.0)
            await _occupy_solver(gateway, parked, other_group)
            reader, writer = gateway.connect_local()
            writer.write(_hello(system, record))
            for packet in packets[:2]:
                writer.write(_packet(packet))
            await asyncio.sleep(0.05)  # let the session pool them
            writer.close()  # abrupt: no BYE
            # the stream finalizes with the other solve still parked
            await _wait_until(lambda: len(gateway.results) == 1)
            parked.release()
            await _drain_sessions(gateway)
            await gateway.close()
            return gateway

        gateway = asyncio.run(run())
        assert gateway.stats.flushes_drain >= 1
        assert _flushes_of(gateway, record) == [("drain", 2)]
        assert len(gateway.results) == 2
        result = _result_of(gateway, record)
        assert not result.clean_close
        assert result.error is None
        assert result.num_windows == 2
        serial = _serial_reference(system, record, max_packets=2)
        _assert_matches_serial(result, serial)

    def test_truncated_frame_mid_stream(self, small_config, database):
        """EOF inside a frame is a protocol error: the session errors
        out, the client is told, and completed windows are kept."""
        record = database.load("100")
        system = _system(small_config, record)
        packets = encoded_packets(system, record, max_packets=2)

        async def run():
            gateway = IngestGateway(batch_size=1, flush_ms=100.0)
            reader, writer = gateway.connect_local()
            writer.write(_hello(system, record))
            writer.write(
                encode_frame(FrameKind.PACKET, packets[0].to_bytes())
            )
            # a frame announcing 500 body bytes, delivering 10
            writer.write((500).to_bytes(4, "big") + b"\x02" + b"x" * 10)
            await asyncio.sleep(0.05)
            writer.close()
            frames = []
            while True:
                frame = await read_frame(reader)
                if frame is None:
                    break
                frames.append(frame)
            await _drain_sessions(gateway)
            await gateway.close()
            return gateway, frames

        gateway, frames = asyncio.run(run())
        assert gateway.stats.sessions_errored == 1
        kinds = [kind for kind, _ in frames]
        assert kinds[0] is FrameKind.WELCOME
        assert FrameKind.ERROR in kinds
        error_body = json.loads(
            [body for kind, body in frames if kind is FrameKind.ERROR][0]
        )
        assert "truncated frame" in error_body["error"]
        # the window decoded before the fault is retained
        result = gateway.results[0]
        assert result.error is not None
        assert result.num_windows == 1

    def test_unknown_protocol_version_rejected(
        self, small_config, database
    ):
        """The handshake's codec version gate: a node speaking an
        unknown revision gets a reasoned ERROR, not silence."""
        record = database.load("100")
        system = _system(small_config, record)

        async def run():
            gateway = IngestGateway(batch_size=2, flush_ms=100.0)
            reader, writer = gateway.connect_local()
            payload = Handshake(
                record=record.name, channel=0, config=system.config
            ).to_payload()
            payload["protocol"] = 99
            writer.write(encode_json_frame(FrameKind.HELLO, payload))
            frame = await read_frame(reader)
            await _drain_sessions(gateway)
            await gateway.close()
            return gateway, frame

        gateway, frame = asyncio.run(run())
        kind, body = frame
        assert kind is FrameKind.ERROR
        assert "unsupported protocol version" in json.loads(body)["error"]
        assert gateway.stats.sessions_errored == 1
        assert gateway.results == []  # never admitted

    def test_corrupt_packet_crc_counted_not_fatal(
        self, small_config, database
    ):
        """A bit-flipped on-air packet must not kill the link: the
        frame is counted, stage 2 resyncs, and the stream recovers at
        the next keyframe."""
        config = small_config.replace(keyframe_interval=4)
        record = database.load("100")
        system = _system(config, record)
        packets = encoded_packets(system, record, max_packets=5)
        wire = bytearray(packets[0].to_bytes())
        wire[-1] ^= 0xFF  # break the CRC of the first keyframe

        async def run():
            gateway = IngestGateway(batch_size=1, flush_ms=50.0)
            reader, writer = gateway.connect_local()
            writer.write(_hello(system, record))
            writer.write(encode_frame(FrameKind.PACKET, bytes(wire)))
            for packet in packets[1:]:
                writer.write(
                    encode_frame(FrameKind.PACKET, packet.to_bytes())
                )
            writer.write(encode_frame(FrameKind.BYE))
            await asyncio.sleep(0.05)  # let the session task start
            await _drain_sessions(gateway)
            await gateway.close()
            return gateway

        gateway = asyncio.run(run())
        assert gateway.stats.sessions_errored == 0
        result = gateway.results[0]
        assert result.clean_close and result.error is None
        assert result.frames_corrupt == 1
        # the corrupted window surfaces as a loss through the gap the
        # next good frame reveals; diffs 1-3 are unusable until the
        # keyframe at sequence 4 re-anchors the chain
        assert result.windows_lost == 1
        assert result.windows_resynced == 3
        assert result.sequences == [4]
        serial = _serial_reference(system, record, max_packets=5)
        n = config.n
        np.testing.assert_allclose(
            result.samples_adu[0],
            serial.reconstructed_adu[4 * n : 5 * n],
            atol=1e-7,
        )

    def test_invalid_bye_window_count_is_protocol_error(
        self, small_config, database
    ):
        """A malformed BYE body must fail like any other protocol
        violation (ERROR frame + errored session), not crash the
        handler silently."""
        record = database.load("100")
        system = _system(small_config, record)

        async def run():
            gateway = IngestGateway(batch_size=2, flush_ms=100.0)
            reader, writer = gateway.connect_local()
            writer.write(_hello(system, record))
            writer.write(
                encode_json_frame(FrameKind.BYE, {"windows": "abc"})
            )
            frames = []
            while True:
                frame = await read_frame(reader)
                if frame is None:
                    break
                frames.append(frame)
            await _drain_sessions(gateway)
            await gateway.close()
            return gateway, frames

        gateway, frames = asyncio.run(run())
        assert gateway.stats.sessions_errored == 1
        error_body = json.loads(
            [body for kind, body in frames if kind is FrameKind.ERROR][0]
        )
        assert "invalid BYE window count" in error_body["error"]
        assert not gateway.results[0].clean_close

    def test_zero_packet_close_leaves_group_batching_alone(
        self, small_config, database, parked, other_group
    ):
        """A session that says HELLO and leaves without streaming must
        not force other streams' pending windows into early partial
        flushes — the stream-end drain is scoped to the closing
        stream's own windows."""
        record = database.load("100")
        system = _system(small_config, record)
        packets = encoded_packets(system, record, max_packets=2)

        async def run():
            gateway = IngestGateway(batch_size=2, flush_ms=60_000.0)
            # a busy solver: the keeper's window can only wait
            await _occupy_solver(gateway, parked, other_group)
            keeper_reader, keeper = gateway.connect_local()
            keeper.write(_hello(system, record))
            keeper.write(_packet(packets[0]))
            await asyncio.sleep(0.05)  # window pooled, batch half full
            # a second node joins the group and leaves with no packets
            ghost_reader, ghost = gateway.connect_local()
            ghost.write(_hello(system, record))
            ghost.write(encode_frame(FrameKind.BYE))
            await asyncio.sleep(0.1)
            flushed_early = list(_flushes_of(gateway, record))
            # the keeper's second window completes the batch normally
            keeper.write(_packet(packets[1]))
            keeper.write(encode_frame(FrameKind.BYE))
            await _wait_until(lambda: _flushes_of(gateway, record))
            parked.release()
            await _drain_sessions(gateway)
            await gateway.close()
            return gateway, flushed_early

        gateway, flushed_early = asyncio.run(run())
        assert flushed_early == []  # ghost close triggered no flush
        assert _flushes_of(gateway, record) == [("full", 2)]
        assert gateway.stats.flushes_full == 1
        assert sorted(  # ghost, keeper
            r.num_windows for r in gateway.results if r.record == record.name
        ) == [0, 2]

    def test_solve_failure_unblocks_sessions(
        self, small_config, database, monkeypatch
    ):
        """A dying solve must not wedge the gateway: its windows are
        failed, the node gets an ERROR, and close() still returns."""
        import repro.ingest.gateway as gateway_module

        def exploding_solve(task):
            raise RuntimeError("kaboom")

        monkeypatch.setattr(
            gateway_module, "solve_measurement_block", exploding_solve
        )
        record = database.load("100")
        system = _system(small_config, record)
        packets = encoded_packets(system, record, max_packets=2)

        async def run():
            gateway = IngestGateway(batch_size=2, flush_ms=100.0)
            reader, writer = gateway.connect_local()
            writer.write(_hello(system, record))
            for packet in packets:
                writer.write(
                    encode_frame(FrameKind.PACKET, packet.to_bytes())
                )
            writer.write(encode_frame(FrameKind.BYE))
            with pytest.warns(RuntimeWarning, match="dropped a batch"):
                await asyncio.wait_for(_drain_sessions(gateway), timeout=30.0)
                await asyncio.wait_for(gateway.close(), timeout=30.0)
            frames = []
            while True:
                frame = await read_frame(reader)
                if frame is None:
                    break
                frames.append(frame)
            return gateway, frames

        gateway, frames = asyncio.run(run())
        assert gateway.stats.sessions_errored == 1
        assert gateway.stats.windows_decoded == 0
        result = gateway.results[0]
        assert result.error is not None and "kaboom" in result.error
        error_bodies = [
            json.loads(body)
            for kind, body in frames
            if kind is FrameKind.ERROR
        ]
        assert error_bodies and "kaboom" in error_bodies[0]["error"]

    def test_solve_failure_releases_the_slot(self):
        """Whatever the executor (thread or process pool), a failed
        solve takes one path: _route_async's broad except (carrying a
        justified repro-lint RL005 suppression) must catch ANY failure
        the future raises, fail the batch, and release the executor
        slot — a leaked slot would wedge every later flush of that
        operator at the semaphore."""

        async def run():
            gateway = IngestGateway(batch_size=2, flush_ms=100.0)
            slot = asyncio.Semaphore(1)
            await slot.acquire()
            failed = {}
            gateway._fail_batch = lambda batch, exc: failed.update(
                batch=batch, exc=exc
            )
            future = asyncio.get_running_loop().create_future()
            future.set_exception(RuntimeError("pool kaboom"))
            batch = [object(), object()]
            await gateway._route_async(batch, future, slot, 0.0)
            return failed, slot.locked()

        failed, still_locked = asyncio.run(run())
        assert isinstance(failed["exc"], RuntimeError)
        assert failed["batch"] and len(failed["batch"]) == 2
        assert not still_locked  # the slot came back

    def test_dispatch_revalidates_executor_after_slot_wait(
        self, small_config
    ):
        """close() can shut the executor down while _dispatch waits
        for its slot.  The post-acquire re-check must route the pending
        windows to _fail_batch and release the slot instead of
        submitting to a dead executor — that RuntimeError would escape
        the drain loop and silently stop all flushing."""
        from collections import deque
        from types import SimpleNamespace

        async def run():
            gateway = IngestGateway(
                batch_size=1, flush_ms=100.0, workers=2
            )
            # ...close() ran while the flush waited for its slot
            gateway._closing = True
            failed = {}
            gateway._fail_batch = lambda batch, exc: failed.update(
                batch=batch, exc=exc
            )
            window = SimpleNamespace(
                session=SimpleNamespace(id="s0"),
                index=0,
                column=np.zeros(small_config.m),
                fraction=0.5,
            )
            group = SimpleNamespace(
                key=("k",),
                label="g0",
                config=small_config,
                precision="float64",
                pending=deque([window]),
            )
            await gateway._dispatch(group)
            executor = gateway._executor
            executor.close()
            return failed, group, executor.slot._value == executor.bound

        failed, group, all_free = asyncio.run(run())
        assert isinstance(failed["exc"], ConfigurationError)
        assert len(failed["batch"]) == 1 and not group.pending
        assert all_free  # the slot came back

    def test_packet_before_hello_rejected(self, small_config, database):
        record = database.load("100")
        system = _system(small_config, record)
        packets = encoded_packets(system, record, max_packets=1)

        async def run():
            gateway = IngestGateway()
            reader, writer = gateway.connect_local()
            writer.write(
                encode_frame(FrameKind.PACKET, packets[0].to_bytes())
            )
            frame = await read_frame(reader)
            await _drain_sessions(gateway)
            await gateway.close()
            return frame

        kind, body = asyncio.run(run())
        assert kind is FrameKind.ERROR
        assert "expected HELLO" in json.loads(body)["error"]

    def test_silent_link_closed_at_the_handshake_deadline(
        self, small_config, database, monkeypatch
    ):
        """A link that connects and never says HELLO used to hold its
        connection task for the life of the gateway.  It is answered
        with an ERROR and closed at the handshake deadline, and a
        healthy stream sharing the loop completes untouched."""
        from repro.ingest import protocol

        monkeypatch.setattr(protocol, "HANDSHAKE_TIMEOUT_S", 0.1)
        record = database.load("100")
        system = _system(small_config, record)

        async def silent_link(gateway):
            loop = asyncio.get_running_loop()
            reader, _writer = gateway.connect_local()  # never written to
            connected = loop.time()
            frames = [await read_frame(reader) for _ in range(2)]
            return frames, loop.time() - connected

        async def run():
            gateway = IngestGateway(batch_size=2, flush_ms=50.0)
            silent, report = await asyncio.wait_for(
                asyncio.gather(
                    silent_link(gateway),
                    NodeClient(system, record, max_packets=2).run(
                        *gateway.connect_local()
                    ),
                ),
                timeout=30.0,
            )
            await asyncio.wait_for(_drain_sessions(gateway), timeout=5.0)
            await gateway.close()
            return gateway, silent, report

        gateway, (((kind, body), eof), elapsed), report = asyncio.run(run())
        assert kind is FrameKind.ERROR
        assert "no HELLO within 0.1 s" in json.loads(body)["error"]
        assert eof is None  # the gateway hung up
        assert elapsed < 1.0  # closed at the deadline, not some time later
        assert not gateway._conn_tasks
        assert gateway.stats.sessions_errored == 1
        assert gateway.stats.sessions_opened == 1
        assert report.error is None and report.acked == 2

    @pytest.mark.parametrize(
        "hostile",
        [
            # a 32 GiB dense synthesis basis
            {"n": 1 << 16},
            # a solve that may run two billion iterations under the
            # shared operator's lock
            {"max_iterations": 2_000_000_000},
            # an unbounded recovery hold cap (4 * keyframe_interval)
            {"keyframe_interval": 10**9},
        ],
        ids=["window", "iterations", "keyframe_interval"],
    )
    def test_oversized_hello_refused_before_any_build(self, hostile):
        """A HELLO names the operator the gateway will rebuild and the
        budgets its solves and recovery holds run under: a field past
        the protocol's caps is answered with an ERROR frame, and
        nothing was built or scheduled for it."""
        from repro.config import SystemConfig
        from repro.core.decoder import build_resources

        config = SystemConfig(**{"n": 512, "m": 256, "d": 12, **hostile})
        built = build_resources.cache_info().misses

        async def run():
            gateway = IngestGateway()
            reader, writer = gateway.connect_local()
            writer.write(
                Handshake(record="100", channel=0, config=config).to_frame()
            )
            frame = await read_frame(reader)
            await _drain_sessions(gateway)
            await gateway.close()
            return gateway, frame

        gateway, (kind, body) = asyncio.run(run())
        assert kind is FrameKind.ERROR
        assert "exceeds" in json.loads(body)["error"]
        assert gateway.stats.sessions_errored == 1
        assert gateway.stats.sessions_opened == 0
        assert build_resources.cache_info().misses == built


    @pytest.mark.parametrize("field", ["lam", "tolerance"])
    def test_non_finite_hello_refused(self, field):
        """A HELLO whose ``lam`` / ``tolerance`` is the bare JSON
        ``NaN`` used to be accepted: every solve of its group then ran
        to the iteration cap under the shared operator's lock and
        delivered non-finite samples as DECODED."""
        from repro.config import SystemConfig
        from repro.ingest.protocol import encode_json_frame

        payload = Handshake(
            record="100", channel=0, config=SystemConfig()
        ).to_payload()
        payload["config"][field] = float("nan")

        async def run():
            gateway = IngestGateway()
            reader, writer = gateway.connect_local()
            writer.write(encode_json_frame(FrameKind.HELLO, payload))
            frame = await read_frame(reader)
            await _drain_sessions(gateway)
            await gateway.close()
            return gateway, frame

        gateway, (kind, body) = asyncio.run(run())
        assert kind is FrameKind.ERROR
        assert "finite" in json.loads(body)["error"]
        assert gateway.stats.sessions_errored == 1
        assert gateway.stats.sessions_opened == 0

    def test_codeword_length_bomb_refused_and_neighbour_unharmed(
        self, small_config, database
    ):
        """A 40-odd-byte HELLO codebook naming one 10^7-bit codeword
        used to size `HuffmanCode`'s tables (and an O(length) loop) on
        the event loop, stalling every stream for minutes.  It is
        answered with an ERROR at the handshake, promptly, and a
        healthy stream sharing the loop completes."""
        import time

        record = database.load("100")
        system = _system(small_config, record)
        bomb = Handshake(
            record="119", channel=0, config=small_config
        ).to_payload()
        bomb["codebook"] = {"offset": 0, "lengths": [1, 10**7]}

        async def run():
            gateway = IngestGateway(batch_size=2, flush_ms=50.0)
            healthy = asyncio.create_task(
                NodeClient(system, record, max_packets=2).run(
                    *gateway.connect_local()
                )
            )
            await asyncio.sleep(0)
            reader, writer = gateway.connect_local()
            started = time.perf_counter()
            writer.write(encode_json_frame(FrameKind.HELLO, bomb))
            frame = await read_frame(reader)
            refused_s = time.perf_counter() - started
            report = await asyncio.wait_for(healthy, timeout=30.0)
            await _drain_sessions(gateway)
            await gateway.close()
            return gateway, frame, refused_s, report

        gateway, (kind, body), refused_s, report = asyncio.run(run())
        assert kind is FrameKind.ERROR
        assert "invalid handshake codebook" in json.loads(body)["error"]
        assert refused_s < 0.05
        assert gateway.stats.sessions_errored == 1
        assert gateway.stats.sessions_opened == 1
        assert report.error is None and report.acked == 2
        assert gateway.stats.windows_decoded == 2

    @pytest.mark.parametrize("symbols", [65_536, 250_000])
    def test_alphabet_bomb_refused_and_neighbour_unharmed(
        self, small_config, database, symbols
    ):
        """A HELLO codebook of 16-bit codewords sized only by the 1 MiB
        frame cap: 65,536 of them (a complete code) used to open a
        session after ~90 ms of table building on the event loop, and
        250,000 were refused by the Kraft check only after ~110 ms.
        Both HELLOs (192 KiB and 732 KiB) are refused at the HELLO
        size cap before they are parsed (``Handshake.from_body`` still
        refuses such a codebook at the alphabet cap:
        ``tests/ingest/test_protocol.py``), no session opens for them,
        and a healthy stream sharing the loop completes."""
        record = database.load("100")
        system = _system(small_config, record)
        bomb = Handshake(
            record="119", channel=0, config=small_config
        ).to_payload()
        bomb["codebook"] = {"offset": -256, "lengths": [16] * symbols}
        hello = encode_frame(
            FrameKind.HELLO, json.dumps(bomb, separators=(",", ":")).encode()
        )

        async def run():
            gateway = IngestGateway(batch_size=2, flush_ms=50.0)
            healthy = asyncio.create_task(
                NodeClient(system, record, max_packets=2).run(
                    *gateway.connect_local()
                )
            )
            await asyncio.sleep(0)
            reader, writer = gateway.connect_local()
            writer.write(hello)
            try:
                frame = await asyncio.wait_for(read_frame(reader), 10.0)
            except asyncio.TimeoutError:
                frame = None  # no answer: the session opened
            report = await asyncio.wait_for(healthy, timeout=30.0)
            await gateway.close()
            return gateway, frame, report

        gateway, frame, report = asyncio.run(run())
        assert frame is not None, "the hostile HELLO opened a session"
        kind, body = frame
        assert kind is FrameKind.ERROR
        error = json.loads(body)["error"]
        assert "65536-byte cap" in error
        assert gateway.stats.sessions_errored == 1
        assert gateway.stats.sessions_opened == 1
        assert report.error is None and report.acked == 2
        assert gateway.stats.windows_decoded == 2


def _fast_cadence(config, period_s=0.02):
    """``config`` declaring a window period of ``period_s``: the idle
    deadline is ``IDLE_DEADLINE_WINDOWS`` of them.  The sample rate
    only sets the node's cadence; the operator and every decoded bit
    are those of ``config``."""
    return config.replace(sample_rate_hz=round(config.n / period_s))


class TestIdleDeadline:
    """A link silent between HELLO and BYE for ``IDLE_DEADLINE_WINDOWS``
    of its own declared window periods used to hold its session, its
    pooled windows and its recovery ring forever."""

    def test_link_quiet_after_hello_is_closed_at_the_deadline(
        self, small_config, database
    ):
        record = database.load("100")
        system = _system(small_config, record)
        config = _fast_cadence(small_config)
        deadline_s = (
            gateway_module.IDLE_DEADLINE_WINDOWS * config.packet_seconds
        )

        async def run():
            loop = asyncio.get_running_loop()
            gateway = IngestGateway()
            reader, writer = gateway.connect_local()
            writer.write(
                Handshake(
                    record=record.name,
                    channel=0,
                    config=config,
                    codebook=system.encoder.codebook,
                ).to_frame()
            )
            welcome = await read_frame(reader)
            quiet_from = loop.time()
            frames = [
                await asyncio.wait_for(read_frame(reader), 30.0)
                for _ in range(2)
            ]
            elapsed = loop.time() - quiet_from
            await _drain_sessions(gateway)
            await gateway.close()
            return gateway, welcome, frames, elapsed

        gateway, welcome, ((kind, body), eof), elapsed = asyncio.run(run())
        assert welcome[0] is FrameKind.WELCOME
        assert kind is FrameKind.ERROR
        assert "silent for 0.1 s" in json.loads(body)["error"]
        assert eof is None  # the gateway hung up
        assert deadline_s <= elapsed < deadline_s + 1.0
        assert gateway.stats.sessions_errored == 1
        (result,) = gateway.results
        assert "silent" in result.error
        assert not result.clean_close

    def test_link_quiet_after_packets_decodes_its_pooled_windows(
        self, small_config, database, parked
    ):
        """The windows a dead link left in the pool still decode, through
        the mid-stream-disconnect drain: one solve is parked, so the
        later two are pooled when the link goes quiet."""
        record = database.load("100")
        system = _system(small_config, record)
        packets = encoded_packets(system, record, max_packets=3)

        async def run():
            gateway = IngestGateway(batch_size=64, flush_ms=60_000.0)
            reader, writer = gateway.connect_local()
            writer.write(
                Handshake(
                    record=record.name,
                    channel=0,
                    config=_fast_cadence(small_config),
                    codebook=system.encoder.codebook,
                ).to_frame()
            )
            for packet in packets:
                writer.write(_packet(packet))
            await parked.wait_parked()
            frames = []
            while True:
                frame = await asyncio.wait_for(read_frame(reader), 30.0)
                if frame is None:
                    break
                frames.append(frame)
                if frame[0] is FrameKind.ERROR:
                    # the session is finalizing: let its windows go
                    parked.release()
            await _drain_sessions(gateway)
            await gateway.close()
            return gateway, frames

        gateway, frames = asyncio.run(run())
        kinds = [kind for kind, _ in frames]
        assert kinds.count(FrameKind.ERROR) == 1
        assert kinds.count(FrameKind.DECODED) == 3
        assert gateway.stats.sessions_errored == 1
        result = gateway.results[0]
        assert "silent" in result.error
        _assert_matches_serial(
            result, _serial_reference(system, record, max_packets=3)
        )

    def test_session_parked_on_its_own_quota_is_not_timed_out(
        self, small_config, database, parked
    ):
        """Only the node's silence counts: a session whose read loop
        waits on its own backpressure quota for many deadlines is not
        the node's fault, and ends cleanly once the solver frees."""
        record = database.load("100")
        system = _system(small_config, record)
        packets = encoded_packets(system, record, max_packets=4)
        config = _fast_cadence(small_config)
        deadline_s = (
            gateway_module.IDLE_DEADLINE_WINDOWS * config.packet_seconds
        )

        async def run():
            gateway = IngestGateway(
                batch_size=64, flush_ms=60_000.0, max_pending=2
            )
            reader, writer = gateway.connect_local()
            writer.write(
                Handshake(
                    record=record.name,
                    channel=0,
                    config=config,
                    codebook=system.encoder.codebook,
                ).to_frame()
            )
            for packet in packets:
                writer.write(_packet(packet))
            writer.write(
                encode_json_frame(FrameKind.BYE, {"windows": len(packets)})
            )
            await parked.wait_parked()
            # window 0 solving (parked), window 1 pooled, frame 2
            # waiting on the quota: five deadlines pass
            await asyncio.sleep(5 * deadline_s)
            parked.release()
            await asyncio.wait_for(_drain_sessions(gateway), 30.0)
            await gateway.close()
            return gateway

        gateway = asyncio.run(run())
        assert gateway.stats.sessions_errored == 0
        (result,) = gateway.results
        assert result.error is None and result.clean_close
        assert result.num_windows == 4


class TestDefaultCodebookHello:
    """``"codebook": null`` in a HELLO names the default codebook.  The
    gateway used to train that table on the event loop for every such
    session (9–30 ms of stall each); every session now shares the
    process's one default codebook."""

    @staticmethod
    def _bare_node(config, database):
        """An uncalibrated node's first windows: coded with the default
        codebook, two of the three as Huffman difference packets."""
        record = database.load("100")
        return record, encoded_packets(
            EcgMonitorSystem(config), record, max_packets=3
        )

    @staticmethod
    async def _stream(gateway, config, record, packets, codebook, channel):
        reader, writer = gateway.connect_local()
        writer.write(
            Handshake(
                record=record.name,
                channel=channel,
                config=config,
                codebook=codebook,
            ).to_frame()
        )
        for packet in packets:
            writer.write(_packet(packet))
        for _ in packets:
            await _next_decoded(reader)
        writer.write(encode_frame(FrameKind.BYE))

    def test_sessions_train_the_default_codebook_at_most_once(
        self, small_config, database, monkeypatch
    ):
        record, packets = self._bare_node(small_config, database)
        calls = []
        original = codebook_module.package_merge_lengths

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(codebook_module, "package_merge_lengths", counted)

        async def run():
            gateway = IngestGateway(batch_size=1)
            await asyncio.gather(
                *[
                    self._stream(
                        gateway, small_config, record, packets, None, channel
                    )
                    for channel in range(4)
                ]
            )
            await _drain_sessions(gateway)
            await gateway.close()
            return gateway

        gateway = asyncio.run(run())
        assert gateway.stats.sessions_opened == 4
        assert gateway.stats.windows_decoded == 4 * len(packets)
        assert len(calls) <= 1

    def test_null_codebook_decodes_like_the_default_lengths(
        self, small_config, database
    ):
        record, packets = self._bare_node(small_config, database)

        def decode(codebook):
            async def run():
                # width-1 solves: both runs take the same solver path
                gateway = IngestGateway(batch_size=1)
                await self._stream(
                    gateway, small_config, record, packets, codebook, 0
                )
                await _drain_sessions(gateway)
                await gateway.close()
                return gateway.results[0]

            return asyncio.run(run())

        bare = decode(None)
        payload = json.loads(train_codebook().to_json())
        sent = decode(Codebook.from_payload(payload))
        assert bare.num_windows == sent.num_windows == len(packets)
        for got, want in zip(bare.samples_adu, sent.samples_adu):
            np.testing.assert_array_equal(got, want)


class TestUnexpectedFrames:
    def test_ack_loop_reports_unexpected_kind_and_exits(
        self, small_config, database
    ):
        """A frame kind the gateway never sends on the ack path (here a
        looped-back HELLO) must surface in report.error and end the
        receive loop instead of being silently dropped."""
        from repro.ingest import NodeReport

        record = database.load("100")
        client = NodeClient(
            _system(small_config, record), record, max_packets=1
        )

        async def run():
            reader = asyncio.StreamReader()
            reader.feed_data(
                encode_json_frame(FrameKind.HELLO, {"record": "100"})
            )
            reader.feed_eof()
            report = NodeReport(record="100", channel=0)
            await asyncio.wait_for(
                client._receive(reader, None, 1, report), timeout=2.0
            )
            return report

        report = asyncio.run(run())
        assert report.error == "unexpected frame kind HELLO"
        assert report.acked == 0


class TestLossResilience:
    """Sequence-gap recovery: drops, reorders, duplicates are survived
    with bounded, accounted damage (the PR-4 tentpole)."""

    def _run_stream(self, system, record, wires, declared=None):
        """Drive one loopback session over an explicit wire sequence."""

        async def run():
            gateway = IngestGateway(batch_size=4, flush_ms=50.0)
            reader, writer = gateway.connect_local()
            writer.write(_hello(system, record))
            for wire in wires:
                writer.write(encode_frame(FrameKind.PACKET, wire))
            if declared is None:
                writer.write(encode_frame(FrameKind.BYE))
            else:
                writer.write(
                    encode_json_frame(
                        FrameKind.BYE, {"windows": declared}
                    )
                )
            await asyncio.sleep(0.05)  # let the session task start
            await _drain_sessions(gateway)
            await gateway.close()
            return gateway

        return asyncio.run(run())

    def _assert_windows_match_serial(self, result, serial, config):
        """Each delivered window equals the serial decode of the same
        sequence (resynced chains re-anchor exactly)."""
        n = config.n
        for samples, sequence in zip(result.samples_adu, result.sequences):
            np.testing.assert_allclose(
                samples,
                serial.reconstructed_adu[sequence * n : (sequence + 1) * n],
                atol=1e-7,
            )

    def test_dropped_diff_resyncs_at_next_keyframe(
        self, small_config, database
    ):
        """Losing one difference packet costs the gap plus the diffs up
        to the next keyframe — never the whole stream."""
        config = small_config.replace(keyframe_interval=4)
        record = database.load("100")
        system = _system(config, record)
        packets = encoded_packets(system, record, max_packets=8)
        wires = [
            p.to_bytes() for i, p in enumerate(packets) if i != 2
        ]

        gateway = self._run_stream(system, record, wires, declared=8)
        assert gateway.stats.sessions_errored == 0
        result = gateway.results[0]
        assert result.error is None
        # window 2 lost; window 3 (a diff past the gap) resynced; the
        # keyframe at 4 re-arms and 4-7 decode
        assert result.sequences == [0, 1, 4, 5, 6, 7]
        assert result.windows_lost == 1
        assert result.windows_resynced == 1
        assert result.frames_corrupt == 0
        assert result.frames_duplicate == 0
        serial = _serial_reference(system, record, max_packets=8)
        self._assert_windows_match_serial(result, serial, config)

    def test_lost_keyframe_waits_for_following_keyframe(
        self, small_config, database
    ):
        """Dropping a *keyframe* stalls the stream for one full
        keyframe interval: the resync state machine must hold through
        every diff of the orphaned segment and re-arm only at the
        following keyframe, with the damage fully attributed."""
        config = small_config.replace(keyframe_interval=4)
        record = database.load("100")
        system = _system(config, record)
        packets = encoded_packets(system, record, max_packets=9)
        assert packets[4].kind.name == "KEYFRAME"  # the victim
        wires = [
            p.to_bytes() for i, p in enumerate(packets) if i != 4
        ]

        gateway = self._run_stream(system, record, wires, declared=9)
        result = gateway.results[0]
        assert result.error is None
        # diffs 5-7 arrive but cannot anchor anywhere; keyframe 8 ends
        # the outage
        assert result.sequences == [0, 1, 2, 3, 8]
        assert result.windows_lost == 1
        assert result.windows_resynced == 3
        # one loss event, keyframe_interval-bounded damage, all of it
        # accounted
        damage = result.windows_lost + result.windows_resynced
        assert damage == config.keyframe_interval
        assert result.num_windows + damage == 9
        serial = _serial_reference(system, record, max_packets=9)
        self._assert_windows_match_serial(result, serial, config)

    def test_duplicates_and_stale_frames_dropped_idempotently(
        self, small_config, database
    ):
        config = small_config.replace(keyframe_interval=4)
        record = database.load("100")
        system = _system(config, record)
        packets = encoded_packets(system, record, max_packets=4)
        wires = [
            packets[0].to_bytes(),
            packets[1].to_bytes(),
            packets[1].to_bytes(),  # true duplicate
            packets[2].to_bytes(),
            packets[3].to_bytes(),
            packets[0].to_bytes(),  # stale (far behind)
        ]

        gateway = self._run_stream(system, record, wires, declared=4)
        result = gateway.results[0]
        assert result.error is None
        assert result.sequences == [0, 1, 2, 3]
        assert result.frames_duplicate == 2
        assert result.windows_lost == 0
        assert result.windows_resynced == 0
        serial = _serial_reference(system, record, max_packets=4)
        _assert_matches_serial(result, serial)

    def test_bye_declared_count_accounts_trailing_loss(
        self, small_config, database
    ):
        """A tail loss leaves no later packet to reveal the gap; the
        BYE's declared window count closes the books."""
        record = database.load("100")
        system = _system(small_config, record)
        packets = encoded_packets(system, record, max_packets=4)
        wires = [p.to_bytes() for p in packets[:2]]

        gateway = self._run_stream(system, record, wires, declared=4)
        result = gateway.results[0]
        assert result.sequences == [0, 1]
        assert result.windows_lost == 2
        assert gateway.stats.windows_lost == 2

    def test_unanswered_nack_gives_up_at_the_deadline(
        self, small_config, database, monkeypatch
    ):
        """A fec node says BYE with a gap open and never answers the
        NACK (nor hangs up): the post-BYE grace window times out, the
        gap is given up and charged, and the session completes."""
        from repro.ingest import gateway as gateway_module

        monkeypatch.setattr(gateway_module, "NACK_DEADLINE_S", 0.05)
        config = small_config.replace(keyframe_interval=4)
        record = database.load("100")
        system = _system(config, record)
        packets = encoded_packets(system, record, max_packets=4)

        async def run():
            gateway = IngestGateway(batch_size=4, flush_ms=50.0)
            reader, writer = gateway.connect_local()
            writer.write(
                Handshake(
                    record=record.name,
                    channel=0,
                    config=config,
                    codebook=system.encoder.codebook,
                    fec=True,
                ).to_frame()
            )
            for index in (0, 1, 3):  # diff 2 lost, and no parity sent
                writer.write(
                    encode_frame(FrameKind.PACKET, packets[index].to_bytes())
                )
            writer.write(encode_json_frame(FrameKind.BYE, {"windows": 4}))
            await asyncio.sleep(0.02)  # let the session task start
            # the link stays open: only the deadline can end the wait
            await asyncio.wait_for(_drain_sessions(gateway), 5.0)
            still_open = not writer._closed
            await gateway.close()
            return gateway, still_open

        gateway, still_open = asyncio.run(run())
        assert still_open
        result = gateway.results[0]
        assert result.clean_close and result.error is None
        assert result.nacks_sent == 1
        # 2 given up as lost; 3 (a diff past the gap) resynced
        assert result.sequences == [0, 1]
        assert result.windows_lost == 1
        assert result.windows_resynced == 1
        assert result.windows_recovered == 0
        assert gateway.stats.sessions_completed == 1

    def test_held_window_latency_counts_its_hold(
        self, small_config, database
    ):
        """A window held behind a gap is timed from its own frame's
        arrival, not from the frame that released it: its latency, in
        the result and in its DECODED ack, is at least its hold, and
        the hold is observed as ``ingest_stage_seconds{stage="hold"}``."""
        config = small_config.replace(keyframe_interval=4)
        record = database.load("100")
        system = _system(config, record)
        packets = encoded_packets(system, record, max_packets=4)
        hold_s = 0.2

        async def run():
            gateway = IngestGateway(batch_size=4, flush_ms=50.0)
            reader, writer = gateway.connect_local()
            writer.write(
                Handshake(
                    record=record.name,
                    channel=0,
                    config=config,
                    codebook=system.encoder.codebook,
                    fec=True,
                ).to_frame()
            )
            for index in (0, 1, 3):  # 2 lost: 3 is held behind the gap
                writer.write(_packet(packets[index]))
            await asyncio.sleep(hold_s)
            writer.write(_packet(packets[2]))  # the retransmit fills it
            writer.write(encode_json_frame(FrameKind.BYE, {"windows": 4}))
            await asyncio.wait_for(_drain_sessions(gateway), 30.0)
            await gateway.close()
            acks = {}
            while (frame := await read_frame(reader)) is not None:
                if frame[0] is FrameKind.DECODED:
                    ack = json.loads(frame[1])
                    acks[ack["sequence"]] = ack["latency_ms"]
            return gateway, acks

        gateway, acks = asyncio.run(run())
        result = gateway.results[0]
        assert result.sequences == [0, 1, 2, 3]
        assert result.windows_recovered_retransmit == 1
        hold = gateway.telemetry.snapshot().histogram(
            "ingest_stage_seconds", stage="hold"
        )
        assert hold.total == 1  # only 3 waited behind the gap
        assert hold.sum > 0.9 * hold_s
        latency = dict(zip(result.sequences, result.latencies_s))
        assert latency[3] >= hold.sum
        assert acks[3] == pytest.approx(1000.0 * latency[3])
        # the retransmit itself was never held
        assert latency[2] < hold.sum

    def _run_lossy_client(
        self, system, record, channel, windows=9, fec=False
    ):
        """One NodeClient through ``channel`` into a loopback gateway."""

        async def run():
            gateway = IngestGateway(batch_size=4, flush_ms=50.0)
            reader, writer = gateway.connect_local()
            client = NodeClient(
                system,
                record,
                max_packets=windows,
                interval_s=0.0,
                lossy_channel=channel,
                fec=fec,
            )
            report = await asyncio.wait_for(
                client.run(reader, writer), timeout=60.0
            )
            await _drain_sessions(gateway)
            await gateway.close()
            return gateway.results[0], report, client.last_link

        return asyncio.run(run())

    def test_lossy_node_client_end_to_end(self, small_config, database):
        """NodeClient + LossyChannel over the loopback transport: the
        gateway's accounting agrees with the link's ground truth and
        the offline replay of the surviving packet set."""
        from repro.ingest import LossyChannel

        config = small_config.replace(keyframe_interval=4)
        record = database.load("100")
        system = _system(config, record)
        result, report, link = self._run_lossy_client(
            system, record, LossyChannel(drop_sequences=(2, 4), seed=7)
        )
        assert link.stats.frames_dropped == 2
        assert link.stats.dropped_sequences == [2, 4]
        assert result.error is None
        # drop of diff 2: window 3 resyncs; drop of keyframe 4: diffs
        # 5-7 resync; keyframe 8 recovers
        assert result.sequences == [0, 1, 8]
        assert result.windows_lost == 2
        assert result.windows_resynced == 4
        assert report.acked == result.num_windows
        assert report.windows_lost == 2
        self._assert_replay_agrees(system, result, link, windows=9)

    def _assert_replay_agrees(self, system, result, link, windows):
        """Offline replay of the recorded surviving packet set keeps
        the same books as the live gateway did."""
        from repro.ingest import replay_survivors

        accepted, accounting = replay_survivors(
            system.config,
            system.encoder.codebook,
            link.stats.delivered,
            windows_sent=windows,
        )
        assert [seq for seq, _ in accepted] == result.sequences
        for counter in (
            "windows_lost",
            "windows_resynced",
            "frames_corrupt",
            "frames_duplicate",
        ):
            assert getattr(accounting, counter) == getattr(result, counter)

    def test_mixed_impairments_live_equals_replay(
        self, small_config, database
    ):
        """Drops, reorders, duplicates and bit flips together (this
        seed deals at least one of each): the stream survives, nothing
        leaves the books, and the replay agrees counter for counter."""
        from repro.ingest import LossyChannel

        config = small_config.replace(keyframe_interval=4)
        record = database.load("100")
        system = _system(config, record)
        channel = LossyChannel(
            loss=0.1, reorder=0.15, duplicate=0.15, corrupt=0.1, seed=3
        )
        result, _, link = self._run_lossy_client(
            system, record, channel, windows=17
        )
        fates = link.stats
        assert fates.frames_dropped and fates.frames_reordered
        assert fates.frames_duplicated and fates.frames_corrupted
        assert result.error is None
        assert result.num_windows + _damaged(result) == 17
        self._assert_replay_agrees(system, result, link, windows=17)

    def test_fec_node_client_recovers_what_the_plain_one_loses(
        self, small_config, database
    ):
        """The same seeded iid-loss channel, fec off then on: parity
        and NACKed retransmits leave at most 2 % of the plain stream's
        damage (or one window), inside the byte-overhead budget of a
        4-window epoch (one parity body per 4 packets, plus resends)."""
        from repro.ingest import LossyChannel

        config = small_config.replace(keyframe_interval=4)
        record = database.load("100")
        system = _system(config, record)
        channel = LossyChannel(loss=0.1, seed=2011)
        plain, _, _ = self._run_lossy_client(
            system, record, channel, windows=17
        )
        result, report, _ = self._run_lossy_client(
            system, record, channel, windows=17, fec=True
        )
        assert plain.error is None and result.error is None
        assert _damaged(plain) >= 2  # the channel does bite
        assert _damaged(result) <= max(
            1, round(0.02 * _damaged(plain))
        )
        # both tiers worked: parity alone cannot cover this pattern
        assert result.windows_recovered_parity > 0
        assert result.windows_recovered_retransmit > 0
        assert result.num_windows + _damaged(result) == 17
        assert report.parity_bytes > 0
        recovery_bytes = report.parity_bytes + report.retransmit_bytes
        assert recovery_bytes <= 0.6 * report.packet_bytes


class TestOrderingRegression:
    def test_out_of_order_batch_completion_renormalized(
        self, small_config, database, parked, other_group
    ):
        """Process-pool solves can complete out of order; the ordered()
        accessor (and finalize) must restore window order across every
        positional list so samples_adu/latencies_s stay aligned."""
        record = database.load("100")
        system = _system(small_config, record)
        packets = encoded_packets(system, record, max_packets=2)

        async def run():
            gateway = IngestGateway(batch_size=64, flush_ms=60_000.0)
            await _occupy_solver(gateway, parked, other_group)
            reader, writer = gateway.connect_local()
            writer.write(_hello(system, record))
            for packet in packets:
                writer.write(_packet(packet))
            # pooled behind the busy solver, nothing flushed yet
            await asyncio.sleep(0.05)
            session = next(
                s
                for s in gateway._sessions.values()
                if s.handshake.record == record.name
            )
            pending = list(session.group.pending)
            session.group.pending.clear()
            assert [w.index for w in pending] == [0, 1]
            n = system.config.n

            def fake_out(marker):
                return {
                    "signals": np.full((n, 1), float(marker)),
                    "iterations": np.array([marker]),
                    "seconds": np.array([0.001]),
                }

            # force out-of-order completion: window 1's batch routes
            # before window 0's
            started = asyncio.get_running_loop().time()
            gateway._route([pending[1]], fake_out(1), started)
            gateway._route([pending[0]], fake_out(0), started)
            assert session.result.indices == [1, 0]  # completion order
            ordered = session.result.ordered()
            assert ordered.indices == [0, 1]
            assert ordered.sequences == [0, 1]
            assert ordered.iterations == [0, 1]
            # rows stayed aligned through the permutation
            for index in (0, 1):
                assert float(ordered.samples_adu[index][0]) == float(
                    index + session.dc_offset
                )
            writer.write(encode_frame(FrameKind.BYE))
            await asyncio.sleep(0.05)
            parked.release()
            await _drain_sessions(gateway)
            await gateway.close()
            return gateway

        gateway = asyncio.run(run())
        result = _result_of(gateway, record)
        assert result.indices == [0, 1]  # finalize normalized too


class TestNoDataReporting:
    def test_no_decoded_windows_report_none_not_zero(
        self, small_config, database
    ):
        """A stream that never decoded a window must report latency as
        no-data (None), not a perfect 0.0."""
        from repro.ingest import NodeReport

        record = database.load("100")
        system = _system(small_config, record)

        async def run():
            gateway = IngestGateway(batch_size=4, flush_ms=50.0)
            reader, writer = gateway.connect_local()
            writer.write(
                Handshake(
                    record=record.name,
                    channel=0,
                    config=system.config,
                    codebook=system.encoder.codebook,
                ).to_frame()
            )
            writer.write(encode_frame(FrameKind.BYE))  # zero packets
            await asyncio.sleep(0.05)  # let the session task start
            await _drain_sessions(gateway)
            await gateway.close()
            return gateway

        gateway = asyncio.run(run())
        assert gateway.stats.windows_decoded == 0
        assert gateway.stats.max_latency_s is None
        assert gateway.results[0].max_latency_s is None
        report = NodeReport(record=record.name, channel=0)
        assert report.max_gateway_latency_ms is None

    def test_latency_reported_when_windows_decode(
        self, small_config, database
    ):
        record = database.load("100")
        system = _system(small_config, record)

        async def run():
            gateway = IngestGateway(batch_size=1, flush_ms=50.0)
            reader, writer = gateway.connect_local()
            client = NodeClient(system, record, max_packets=1, interval_s=0.0)
            report = await asyncio.wait_for(
                client.run(reader, writer), timeout=60.0
            )
            await gateway.close()
            return gateway, report

        gateway, report = asyncio.run(run())
        assert gateway.stats.max_latency_s > 0.0
        assert report.max_gateway_latency_ms > 0.0


class TestBackpressure:
    def test_quota_bounds_batch_contributions(
        self, small_config, database
    ):
        """With max_pending=2 no flush can hold more than 2 windows of
        one stream, yet partial flushes keep the stream live end to
        end."""
        record = database.load("100")
        system = _system(small_config, record)

        async def run():
            gateway = IngestGateway(
                batch_size=64, flush_ms=40.0, max_pending=2
            )
            reader, writer = gateway.connect_local()
            client = NodeClient(
                system, record, max_packets=6, interval_s=0.0
            )
            report = await asyncio.wait_for(
                client.run(reader, writer), timeout=60.0
            )
            await gateway.close()
            return gateway, report

        gateway, report = asyncio.run(run())
        assert report.acked == 6
        assert gateway.stats.windows_decoded == 6
        for _key, members, _reason in gateway.batch_log:
            assert len(members) <= 2  # quota held the pool to 2 windows
        _assert_matches_serial(
            gateway.results[0],
            _serial_reference(system, record, max_packets=6),
        )

    def test_quota_gates_stage12_work(
        self, small_config, database, monkeypatch, parked, other_group
    ):
        """Regression: stages 1-2 must run *behind* the quota, so a
        flooding node cannot buy unbounded gateway CPU — with
        max_pending=1 and nothing flushing (another group's solve
        holds the solver), exactly one frame may be parsed, and a
        disconnect that cancels the quota wait leaks neither permits
        nor outstanding counts."""
        import repro.ingest.channel as channel_module

        parsed = {"count": 0}
        original = channel_module.EncodedPacket.from_bytes.__func__

        def counting_from_bytes(cls, data):
            parsed["count"] += 1
            return original(cls, data)

        monkeypatch.setattr(
            channel_module.EncodedPacket,
            "from_bytes",
            classmethod(counting_from_bytes),
        )
        record = database.load("100")
        system = _system(small_config, record)
        packets = encoded_packets(system, record, max_packets=3)

        async def run():
            gateway = IngestGateway(
                batch_size=64, flush_ms=60_000.0, max_pending=1
            )
            await _occupy_solver(gateway, parked, other_group)
            parsed["count"] = 0  # the busy group's own frame
            reader, writer = gateway.connect_local()
            writer.write(_hello(system, record))
            for packet in packets:
                writer.write(_packet(packet))
            await asyncio.sleep(0.1)
            session = next(
                s
                for s in gateway._sessions.values()
                if s.handshake.record == record.name
            )
            # frame 1 parsed and pooled; frame 2's read loop is parked
            # in quota.acquire() with no work done; frame 3 unread
            parsed_under_pressure = parsed["count"]
            # gateway shutdown cancels the parked acquire mid-wait
            # (the disconnect path _finalize must survive); the busy
            # group's solve is let go once that cancel has landed
            closing = asyncio.create_task(gateway.close())
            await _wait_until(lambda: len(gateway.results) == 1)
            parked.release()
            await asyncio.wait_for(closing, timeout=60.0)
            return gateway, session, parsed_under_pressure

        gateway, session, parsed_under_pressure = asyncio.run(run())
        assert parsed_under_pressure == 1
        # no leaks: the pending window decoded on the drain path and
        # released its permit; the cancelled waiter never held one
        assert session.outstanding == 0
        assert session.quota._value == 1
        assert len(gateway.results) == 2
        assert _result_of(gateway, record).num_windows == 1


class TestTcpTransport:
    def test_tcp_roundtrip(self, small_config, database):
        """The same session logic over a real socket."""
        record = database.load("100")
        system = _system(small_config, record)

        async def run():
            gateway = IngestGateway(batch_size=2, flush_ms=100.0)
            port = await gateway.start("127.0.0.1", 0)
            client = NodeClient(
                system, record, max_packets=3, interval_s=0.0
            )
            report = await asyncio.wait_for(
                client.run_tcp("127.0.0.1", port), timeout=60.0
            )
            # TCP handler tasks are owned by the server; wait for the
            # result to be published before closing
            for _ in range(200):
                if gateway.results:
                    break
                await asyncio.sleep(0.01)
            await gateway.close()
            return gateway, report

        gateway, report = asyncio.run(run())
        assert report.acked == 3
        assert report.error is None
        assert report.max_gateway_latency_ms > 0.0
        _assert_matches_serial(
            gateway.results[0],
            _serial_reference(system, record, max_packets=3),
        )


class TestStreamReconnect:
    """Regression: a reconnecting stream id must aggregate as ONE
    stream — previously per-stream aggregation keyed by session lost
    the first session's counters and counted the stream twice."""

    def _run_two_sessions(self, config, record, system):
        packets = encoded_packets(system, record, max_packets=6)

        async def run():
            gateway = IngestGateway(batch_size=4, flush_ms=50.0)
            # session 1: windows 0-1 delivered, window 2 lost, then the
            # link drops mid-stream (no BYE)
            reader, writer = gateway.connect_local()
            writer.write(
                Handshake(
                    record=record.name,
                    channel=0,
                    config=system.config,
                    codebook=system.encoder.codebook,
                ).to_frame()
            )
            for packet in (packets[0], packets[1], packets[3]):
                writer.write(
                    encode_frame(FrameKind.PACKET, packet.to_bytes())
                )
            await asyncio.sleep(0.2)
            writer.close()  # mid-stream disconnect
            for _ in range(200):
                if gateway.results:
                    break
                await asyncio.sleep(0.01)
            # session 2: the same node reconnects (fresh encoder state,
            # sequences restart at 0) and finishes cleanly
            reader, writer = gateway.connect_local()
            writer.write(
                Handshake(
                    record=record.name,
                    channel=0,
                    config=system.config,
                    codebook=system.encoder.codebook,
                ).to_frame()
            )
            for packet in packets[:2]:
                writer.write(
                    encode_frame(FrameKind.PACKET, packet.to_bytes())
                )
            writer.write(
                encode_json_frame(FrameKind.BYE, {"windows": 2})
            )
            for _ in range(400):
                if len(gateway.results) == 2:
                    break
                await asyncio.sleep(0.01)
            await _drain_sessions(gateway)
            await gateway.close()
            return gateway

        return asyncio.run(run())

    def test_sessions_merge_under_one_stream_key(
        self, small_config, database
    ):
        config = small_config.replace(keyframe_interval=8)
        record = database.load("100")
        system = _system(config, record)
        gateway = self._run_two_sessions(config, record, system)

        assert len(gateway.results) == 2  # sessions stay addressable
        stats = gateway.stats
        assert stats.sessions_opened == 2
        # the fix: one stream identity, not two
        assert stats.streams == 1

        merged = gateway.merged_results()
        assert set(merged) == {f"{record.name}:0"}
        stream = merged[f"{record.name}:0"]
        # both sessions' windows and BOTH sessions' damage counters:
        # session 1 lost window 2 (gap exposed by window 3's resync)
        first = min(gateway.results, key=lambda r: r.session_id)
        assert first.windows_lost + first.windows_resynced > 0
        assert stream.num_windows == sum(
            r.num_windows for r in gateway.results
        )
        assert stream.windows_lost == sum(
            r.windows_lost for r in gateway.results
        )
        assert stream.windows_resynced == sum(
            r.windows_resynced for r in gateway.results
        )
        assert stream.clean_close  # the final session ended cleanly
        # indices re-based: monotonic across the reconnect
        assert stream.indices == sorted(stream.indices)

        # telemetry agrees: the per-stream series accumulated across
        # sessions instead of forking
        snap = gateway.telemetry.snapshot()
        key = f"{record.name}:0"
        assert snap.counter_value(
            "ingest_sessions_opened", stream=key
        ) == 2
        assert snap.counter_value(
            "ingest_windows_decoded", stream=key
        ) == stream.num_windows
        assert snap.counter_value(
            "ingest_windows_lost", stream=key
        ) == stream.windows_lost

    def test_distinct_streams_do_not_merge(self, small_config, database):
        records = [database.load("100"), database.load("119")]
        systems = [_system(small_config, r) for r in records]

        async def run():
            gateway = IngestGateway(batch_size=2, flush_ms=50.0)
            for system, record in zip(systems, records):
                reader, writer = gateway.connect_local()
                client = NodeClient(
                    system, record, max_packets=2, interval_s=0.0
                )
                await asyncio.wait_for(
                    client.run(reader, writer), timeout=60.0
                )
            await _drain_sessions(gateway)
            await gateway.close()
            return gateway

        gateway = asyncio.run(run())
        assert gateway.stats.streams == 2
        assert set(gateway.merged_results()) == {
            f"{records[0].name}:0",
            f"{records[1].name}:0",
        }


class TestGatewayTelemetry:
    """The gateway's stat surfaces are views over the telemetry plane."""

    def test_stats_view_matches_registry(self, small_config, database):
        record = database.load("100")
        system = _system(small_config, record)

        async def run():
            gateway = IngestGateway(batch_size=2, flush_ms=60.0)
            reader, writer = gateway.connect_local()
            client = NodeClient(
                system, record, max_packets=4, interval_s=0.0
            )
            await asyncio.wait_for(client.run(reader, writer), timeout=60.0)
            await gateway.close()
            return gateway

        gateway = asyncio.run(run())
        stats = gateway.stats
        snap = gateway.telemetry.snapshot()
        assert stats.windows_decoded == 4
        assert stats.windows_decoded == int(
            snap.counter_total("ingest_windows_decoded")
        )
        assert stats.batches == int(snap.counter_total("ingest_flushes"))
        assert stats.sessions_completed == 1
        hist = snap.histogram_total("ingest_window_latency_seconds")
        assert hist.total == 4
        assert stats.max_latency_s == hist.max
        # flush width and solve time distributions exist
        assert snap.histogram_total("ingest_flush_width").total >= 1
        assert snap.histogram_total("ingest_solve_seconds").total >= 1
        # solve backend shipped its per-call delta into the same plane
        assert snap.counter_total("fleet_worker_tasks") >= 1

    @pytest.mark.parametrize("lossy", [False, True])
    def test_stages_add_up_to_the_window_latency(
        self, small_config, database, lossy
    ):
        """hold + queue + solve is each window's latency, from the same
        clock stamps, on a clean and on a lossy fec link; every decoded
        window is observed routed exactly once."""
        from repro.ingest import LossyChannel

        config = small_config.replace(keyframe_interval=4)
        record = database.load("100")
        system = _system(config, record)

        async def run():
            gateway = IngestGateway(batch_size=4, flush_ms=50.0)
            reader, writer = gateway.connect_local()
            client = NodeClient(
                system,
                record,
                max_packets=17,
                interval_s=0.0,
                lossy_channel=(
                    LossyChannel(loss=0.1, seed=2011) if lossy else None
                ),
                fec=lossy,
            )
            await asyncio.wait_for(client.run(reader, writer), timeout=60.0)
            await _drain_sessions(gateway)
            await gateway.close()
            return gateway

        gateway = asyncio.run(run())
        snap = gateway.telemetry.snapshot()
        decoded = gateway.stats.windows_decoded
        latency = snap.histogram_total("ingest_window_latency_seconds")
        stages = {
            stage: snap.histogram("ingest_stage_seconds", stage=stage)
            for stage in ("hold", "queue", "solve", "route")
        }
        assert (stages["hold"] is not None) == lossy
        assert latency.total == decoded
        for stage in ("queue", "solve", "route"):
            assert stages[stage].total == decoded, stage
        covered = sum(
            stages[stage].sum
            for stage in ("hold", "queue", "solve")
            if stages[stage] is not None
        )
        assert covered == pytest.approx(latency.sum, abs=1e-9)

    def test_stats_count_each_flush_reason(self):
        """Each of the four ``ingest_flushes`` reasons lands in its own
        field; ``batches`` counts every flush."""
        from repro.ingest.gateway import gateway_stats_from
        from repro.telemetry import MetricsRegistry

        registry = MetricsRegistry()
        for reason, count in (
            ("full", 5), ("deadline", 3), ("drain", 2), ("idle", 7)
        ):
            registry.inc("ingest_flushes", count, reason=reason)
        stats = gateway_stats_from(registry)
        assert (
            stats.flushes_full,
            stats.flushes_deadline,
            stats.flushes_drain,
            stats.flushes_idle,
        ) == (5, 3, 2, 7)
        assert stats.batches == 17

    def test_exposition_and_ring_round_trip_live_gateway(
        self, small_config, database, tmp_path
    ):
        """serve's persistence contract end to end: the scrape parses
        back to the registry and the ring file replays to the same
        final snapshot."""
        from telemetry_oracle import (
            exposition_matches_snapshot,
            last_ring_snapshot,
        )

        from repro.telemetry import JsonlRingSink, MetricsServer, scrape_local

        record = database.load("100")
        system = _system(small_config, record)

        async def run():
            gateway = IngestGateway(batch_size=2, flush_ms=60.0)
            server = MetricsServer(gateway.telemetry)
            port = await server.start()
            reader, writer = gateway.connect_local()
            client = NodeClient(
                system, record, max_packets=3, interval_s=0.0
            )
            await asyncio.wait_for(client.run(reader, writer), timeout=60.0)
            await _drain_sessions(gateway)
            await gateway.close()
            text = await scrape_local(port)
            await server.close()
            return gateway, text

        gateway, text = asyncio.run(run())
        final = gateway.telemetry.snapshot()
        assert exposition_matches_snapshot(text, final)

        ring = JsonlRingSink(tmp_path / "gateway.jsonl", max_records=4)
        ring.append(final)
        assert last_ring_snapshot(ring.path) == final

    def test_process_pool_workers_merge_into_plane(
        self, small_config, database
    ):
        """Cross-process fan-in: worker solve deltas are absorbed into
        the gateway's registry (count matches the flush count)."""
        record = database.load("100")
        system = _system(small_config, record)

        async def run():
            gateway = IngestGateway(batch_size=2, flush_ms=60.0, workers=2)
            reader, writer = gateway.connect_local()
            client = NodeClient(
                system, record, max_packets=4, interval_s=0.0
            )
            await asyncio.wait_for(
                client.run(reader, writer), timeout=120.0
            )
            await _drain_sessions(gateway)
            await gateway.close()
            return gateway

        gateway = asyncio.run(run())
        snap = gateway.telemetry.snapshot()
        stats = gateway.stats
        assert stats.windows_decoded == 4
        if gateway.workers >= 2:  # pool actually started
            assert snap.counter_total("fleet_worker_tasks") == stats.batches
            assert snap.counter_total("fleet_worker_windows") == 4
            workers = snap.label_values("fleet_worker_tasks", "worker")
            assert len(workers) >= 1


class TestCloseDrain:
    """``close()`` must drain in-flight solves, not abandon them.

    Regression for the two-phase close: the old order flipped
    ``_closing`` before draining, so a close racing a long solve
    failed the stream-end flush against a dead pool — completed
    windows were dropped and the session errored.
    """

    def test_close_racing_slow_solve_keeps_results(
        self, small_config, database, monkeypatch
    ):
        import time as time_module

        import repro.ingest.gateway as gateway_module

        real_solve = gateway_module.solve_measurement_block

        def slow_solve(task):
            # runs on the solver executor thread, off the event loop —
            # long enough that close() arrives mid-solve
            time_module.sleep(0.4)
            return real_solve(task)

        monkeypatch.setattr(
            gateway_module, "solve_measurement_block", slow_solve
        )
        record = database.load("100")
        system = _system(small_config, record)

        async def run():
            gateway = IngestGateway(batch_size=8, flush_ms=10_000.0)
            reader, writer = gateway.connect_local()
            client = NodeClient(
                system, record, max_packets=2, interval_s=0.0
            )
            session = asyncio.ensure_future(client.run(reader, writer))
            # wait until the BYE-triggered drain flush has dispatched
            # the (slow) solve, then close immediately: the drain
            # phase must let it finish and route its DECODED acks
            await asyncio.sleep(0.1)
            await gateway.close(drain_s=30.0)
            report = await session
            return gateway, report

        gateway, report = asyncio.run(run())
        assert report.error is None
        assert report.acked == 2
        stats = gateway.stats
        assert stats.windows_decoded == 2
        assert stats.sessions_errored == 0
        assert len(gateway.results) == 1
        result = gateway.results[0]
        assert result.clean_close
        _assert_matches_serial(
            result, _serial_reference(system, record, max_packets=2)
        )


class TestNodeReconnect:
    """Satellite of the federation PR: the node-side retry loop."""

    def test_backoff_schedule_caps_and_grows(
        self, small_config, database, monkeypatch
    ):
        from repro.ingest import client as client_module

        # jitter off: the bare doubling-then-capped schedule
        monkeypatch.setattr(client_module, "BACKOFF_JITTER", 0.0)
        record = database.load("100")
        client = NodeClient(
            _system(small_config, record), record, backoff_base_s=0.05
        )
        delays = [client.backoff_delay(attempt) for attempt in range(1, 9)]
        assert delays[:6] == pytest.approx(
            [0.05, 0.1, 0.2, 0.4, 0.8, 1.6]
        )
        assert delays[6] == delays[7] == pytest.approx(2.0)  # capped

    def test_backoff_jitter_bounded_and_seeded(
        self, small_config, database
    ):
        record = database.load("100")

        def make():
            return NodeClient(
                _system(small_config, record),
                record,
                backoff_base_s=0.1,
                backoff_seed=7,
            )

        a, b = make(), make()
        delays_a = [a.backoff_delay(k) for k in range(1, 6)]
        delays_b = [b.backoff_delay(k) for k in range(1, 6)]
        assert delays_a == delays_b  # seeded: a fleet can be replayed
        for attempt, delay in enumerate(delays_a, start=1):
            base = min(2.0, 0.1 * 2 ** (attempt - 1))
            assert base <= delay <= base * 1.25

    def test_mid_stream_cut_reconnects_and_resumes(
        self, small_config, database
    ):
        """Cut the server side of a live session: the client re-dials,
        resumes from its first unsent window, and the merged stream
        still decodes in full (fec keyframe replay => zero damage)."""
        from repro.ingest import merge_stream_results

        record = database.load("100")
        system = _system(small_config, record)

        async def run():
            gateway = IngestGateway(batch_size=2, flush_ms=100.0)
            port = await gateway.start("127.0.0.1", 0)
            client = NodeClient(
                system,
                record,
                max_packets=6,
                interval_s=0.05,
                fec=True,
                reconnect=3,
                backoff_base_s=0.02,
                backoff_seed=2011,
            )
            session = asyncio.ensure_future(
                client.run_tcp("127.0.0.1", port)
            )
            await asyncio.sleep(0.12)  # a few windows in flight
            for task in list(gateway._conn_tasks):
                task.cancel()
            report = await asyncio.wait_for(session, timeout=120.0)
            await _drain_sessions(gateway)
            await gateway.close()
            return gateway, report

        gateway, report = asyncio.run(run())
        assert report.error is None
        assert report.reconnects >= 1
        assert report.sent == 6
        merged = merge_stream_results(gateway.results)
        result = merged[f"{record.name}:0"]
        assert result.windows_lost == 0
        assert len(result.iterations) == 6
