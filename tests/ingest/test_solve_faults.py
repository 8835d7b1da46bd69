"""Seeded fault injection at ``SolveExecutor.submit``.

A test-only shim in :class:`~repro.ingest.channel.LossyChannel`'s
idiom: every solve attempt the gateway submits draws one fate from a
seeded RNG, keyed by ``(seed, batch, attempt)``, so any failure replays
from its seed.  The shim wraps each pool the executor starts, and a
fate fails the way a ``ProcessPoolExecutor`` does:

- ``ok``: the solve runs as usual;
- ``die``: the worker dies mid-solve — its pool breaks, so this solve
  and every other the pool still holds fail with
  :class:`~concurrent.futures.process.BrokenProcessPool`, and so does
  every later submit to that pool;
- ``late``: the result is held back and only arrives once
  :meth:`IngestGateway.close` has begun;
- ``raise`` (scripted only, never drawn): ``submit`` itself raises a
  ``TypeError``, as a pool that refuses a task does.

Under every fate the gateway must keep its books: each window a node
sent is decoded, charged as lost or resynced, or a member of a batch
whose solve failed on every attempt — exactly one of them
(conservation); nothing is pending once ``close()`` returns; and a
death costs no window unless a batch meets two of them.

``test_a_killed_pool_worker_costs_no_window`` checks the same path on
a real process pool whose worker exits mid-solve.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import os
import random
import threading
from collections import Counter
from concurrent.futures.process import BrokenProcessPool

import pytest

import repro.fleet.executor as executor_module
import repro.ingest.gateway as gateway_module
from repro.core import EcgMonitorSystem
from repro.fleet.engine import solve_measurement_block
from repro.ingest import (
    FrameKind,
    Handshake,
    IngestGateway,
    encode_frame,
    encode_json_frame,
    encoded_packets,
    read_frame,
)

#: streams per run, and the windows each streams (the whole record):
#: more than one keyframe epoch, so a dead batch of 32 could hold more
#: than an epoch of one stream
STREAMS = ("100", "101", "102")
WINDOWS = 20

#: the whole run of one seed, close included
TIME_BOX_S = 60.0

FATES = ("ok", "die", "late")


class _FaultyPool:
    """A thread pool that breaks the way a process pool does."""

    def __init__(self, shim: "_FaultySubmit", pool) -> None:
        self.shim = shim
        self.pool = pool
        self.broken = False
        #: futures handed out and not yet settled
        self.unsettled: set[concurrent.futures.Future] = set()

    def submit(self, fn, task):
        with self.shim.lock:
            if self.broken:
                raise BrokenProcessPool("a worker died; the pool is broken")
        return self.shim.submit(self, fn, task)

    def die(self) -> None:
        """A worker died: fail everything this pool still holds, and
        refuse every later submit."""
        with self.shim.lock:
            self.broken = True
            victims, self.unsettled = self.unsettled, set()
        for seen in victims:
            seen.set_exception(BrokenProcessPool("a worker died mid-solve"))

    def settle(self, seen, solved) -> None:
        """Hand a finished solve's outcome to the gateway's future,
        unless the pool broke first."""
        with self.shim.lock:
            if seen not in self.unsettled:
                return
            self.unsettled.discard(seen)
        if solved.exception() is not None:
            seen.set_exception(solved.exception())
        else:
            seen.set_result(solved.result())

    def shutdown(self, wait: bool = True) -> None:
        self.pool.shutdown(wait=wait)


class _FaultySubmit:
    """One seeded fate per solve attempt, over every pool the executor
    starts.

    After a ``die`` the gateway submits the same task object once more,
    so a task's first submit numbers its batch (the gateway's
    ``batch_log`` order) and a further submit is another attempt of
    that batch.
    """

    def __init__(self, seed: int, weights=(0.6, 0.2, 0.2), script=None):
        self.seed = seed
        self.weights = weights
        #: fates by batch, overriding the draw (a scripted scenario)
        self.script = script or {}
        self.tasks: list[dict] = []
        #: the fate, and the future the gateway got, of every attempt,
        #: by batch
        self.fates: list[list[str]] = []
        self.attempts: list[list[concurrent.futures.Future]] = []
        self.pools: list[_FaultyPool] = []
        self._held: list[tuple[_FaultyPool, ...]] = []
        self._released = False
        self.lock = threading.Lock()
        self._new_pool = executor_module.SolveExecutor._new_pool

    def new_pool(self, executor) -> _FaultyPool:
        pool = _FaultyPool(self, self._new_pool(executor))
        self.pools.append(pool)
        return pool

    def _fate(self, batch: int, attempt: int) -> str:
        if batch in self.script:
            return self.script[batch][attempt]
        rng = random.Random(f"{self.seed}:{batch}:{attempt}")
        return rng.choices(FATES, self.weights)[0]

    def submit(self, pool: _FaultyPool, fn, task):
        batch = next(
            (i for i, seen in enumerate(self.tasks) if seen is task), None
        )
        if batch is None:
            batch = len(self.tasks)
            self.tasks.append(task)
            self.fates.append([])
            self.attempts.append([])
        fate = self._fate(batch, len(self.fates[batch]))
        seen: concurrent.futures.Future = concurrent.futures.Future()
        self.fates[batch].append(fate)
        self.attempts[batch].append(seen)
        if fate == "raise":
            # the pool refuses the task before any worker sees it
            seen.set_exception(TypeError("the pool refused the task"))
            raise seen.exception()
        with self.lock:
            pool.unsettled.add(seen)
        if fate == "die":
            # the worker that picks the task up dies with it
            pool.pool.submit(pool.die)
            return seen
        solved = pool.pool.submit(fn, task)
        if fate == "late":
            with self.lock:
                if not self._released:
                    self._held.append((pool, seen, solved))
                    return seen
        solved.add_done_callback(lambda done: pool.settle(seen, done))
        return seen

    def release_late(self) -> None:
        """Let every held result through; later ``late`` solves are
        delivered as they finish."""
        with self.lock:
            self._released = True
            held, self._held = self._held, []
        for pool, seen, solved in held:
            solved.add_done_callback(
                lambda done, pool=pool, seen=seen: pool.settle(seen, done)
            )


def _nodes(config, database):
    nodes = []
    for name in STREAMS:
        record = database.load(name)
        system = EcgMonitorSystem(config, precision="hybrid")
        system.calibrate(record)
        nodes.append((system, record))
    return nodes


def _send_record(gateway, system, record, config):
    """Open a link and write one node's whole record and its ``BYE``;
    returns the node's reader."""
    reader, writer = gateway.connect_local()
    writer.write(
        Handshake(
            record=record.name,
            channel=0,
            config=config,
            codebook=system.encoder.codebook,
            precision="hybrid",
        ).to_frame()
    )
    for packet in encoded_packets(system, record, max_packets=WINDOWS):
        writer.write(encode_frame(FrameKind.PACKET, packet.to_bytes()))
    writer.write(encode_json_frame(FrameKind.BYE, {"windows": WINDOWS}))
    return reader


async def _flood(gateway, nodes, config):
    """Three nodes flood the gateway with their whole records, say
    ``BYE``, and the gateway is closed once every window has pooled."""
    loop = asyncio.get_running_loop()
    deadline = loop.time() + TIME_BOX_S
    for system, record in nodes:
        _send_record(gateway, system, record, config)
    # every window pooled; a held late solve keeps its slot, so some
    # may still wait for one until close() lets them go
    while sum(len(members) for _, members, _ in gateway.batch_log) + sum(
        len(group.pending) for group in gateway._groups.values()
    ) < len(STREAMS) * WINDOWS:
        assert loop.time() < deadline, "windows stuck"
        await asyncio.sleep(0.01)
    await asyncio.wait_for(gateway.close(), deadline - loop.time())
    return gateway


def _install(shim, monkeypatch):
    """Route every pool the executor starts through ``shim``."""
    # two solves in flight on any machine, so a death can take another
    # solve down with it
    monkeypatch.setattr(executor_module, "solve_slots", lambda workers: 2)
    monkeypatch.setattr(
        executor_module.SolveExecutor,
        "_new_pool",
        lambda executor: shim.new_pool(executor),
    )
    close = IngestGateway.close

    async def closing(gateway, **kwargs):
        # the held results arrive once close() is under way
        asyncio.get_running_loop().call_later(0.01, shim.release_late)
        await close(gateway, **kwargs)

    monkeypatch.setattr(IngestGateway, "close", closing)


def _run(shim, batch_size, config, database, monkeypatch):
    _install(shim, monkeypatch)
    gateway = IngestGateway(batch_size=batch_size, flush_ms=50.0)
    return asyncio.run(_flood(gateway, _nodes(config, database), config))


def _failed(future: concurrent.futures.Future) -> bool:
    return future.exception() is not None


def _check_books(gateway, shim):
    """Conservation and nothing pending; returns the windows each
    session lost to dead batches."""
    assert len(shim.attempts) == len(gateway.batch_log)
    dead_windows = set()
    for attempts, (_, members, _) in zip(shim.attempts, gateway.batch_log):
        # only a broken pool earns a second attempt, and only one
        assert len(attempts) <= 2
        if len(attempts) == 2:
            assert isinstance(attempts[0].exception(), BrokenProcessPool)
        if _failed(attempts[-1]):
            # a death costs no window unless the retry meets one too
            assert len(attempts) == 2
            dead_windows.update(members)
    died = Counter(session for session, _ in dead_windows)
    by_session = {result.session_id: result for result in gateway.results}
    assert len(by_session) == len(STREAMS)
    for session, result in by_session.items():
        decoded = {(session, index) for index in result.indices}
        dead = {pair for pair in dead_windows if pair[0] == session}
        # conservation: every sent window lands in exactly one bin
        assert not decoded & dead
        assert (
            len(decoded)
            + len(dead)
            + result.windows_lost
            + result.windows_resynced
            == WINDOWS
        ), session
        assert (result.error is None) == (session not in died)
    _check_nothing_pending(gateway, shim)
    return died


def _check_nothing_pending(gateway, shim):
    """Nothing is pending once ``close()`` has returned."""
    assert all(
        future.done() for attempts in shim.attempts for future in attempts
    )
    assert not gateway._solve_tasks and gateway._inflight == 0
    assert not gateway._sessions and not gateway._groups
    assert not gateway._conn_tasks
    assert gateway._executor is None


#: the widths a gateway runs at: ``serve``'s default, and the
#: constructor's
@pytest.mark.parametrize("batch_size", [16, 32])
@pytest.mark.parametrize("seed", range(6))
def test_every_fate_keeps_the_books(
    seed, batch_size, small_config, database, monkeypatch
):
    shim = _FaultySubmit(seed)
    gateway = _run(shim, batch_size, small_config, database, monkeypatch)
    died = _check_books(gateway, shim)


def test_a_worker_death_mid_solve_costs_no_window(
    small_config, database, monkeypatch
):
    """Regression: a worker death broke the pool for good — the solve
    it held and every later submit failed, the drain loop died on its
    next submit, and every window after the death waited out close().
    The executor now starts a fresh pool and the gateway submits the
    lost solve to it once more."""
    shim = _FaultySubmit(0, script={1: ["die", "ok"]}, weights=(1, 0, 0))
    gateway = _run(shim, 32, small_config, database, monkeypatch)
    assert shim.fates[1] == ["die", "ok"]
    assert len(shim.pools) == 2
    assert _check_books(gateway, shim) == {}
    assert all(
        result.num_windows == WINDOWS and result.error is None
        for result in gateway.results
    )


def test_a_death_fails_every_solve_its_pool_holds(
    small_config, database, monkeypatch
):
    """A worker death breaks the whole pool, so a solve still held by
    it fails too, through no fault of its own; it gets the same one
    retry on the fresh pool and costs no window either."""
    shim = _FaultySubmit(
        0, script={0: ["late", "ok"], 1: ["die", "ok"]}, weights=(1, 0, 0)
    )
    gateway = _run(shim, 16, small_config, database, monkeypatch)
    assert shim.fates[:2] == [["late", "ok"], ["die", "ok"]]
    assert isinstance(shim.attempts[0][0].exception(), BrokenProcessPool)
    assert _check_books(gateway, shim) == {}


def test_a_solve_that_dies_twice_drops_only_its_batch(
    small_config, database, monkeypatch
):
    """The retry is one attempt, not a loop: a batch whose solve dies
    again is dropped and its sessions errored — with it any solve the
    second death took down on its retry — and every other window still
    decodes."""
    shim = _FaultySubmit(0, script={0: ["die", "die"]}, weights=(1, 0, 0))
    with pytest.warns(RuntimeWarning, match="dropped a batch"):
        gateway = _run(shim, 16, small_config, database, monkeypatch)
    died = _check_books(gateway, shim)
    dropped = [
        members
        for attempts, (_, members, _) in zip(shim.attempts, gateway.batch_log)
        if _failed(attempts[-1])
    ]
    assert dropped[0] == gateway.batch_log[0][1]
    assert sum(died.values()) == sum(map(len, dropped))
    assert sum(died.values()) < len(STREAMS) * WINDOWS


def test_a_submit_that_raises_fails_only_its_batch(
    small_config, database, monkeypatch
):
    """Regression: ``_dispatch`` submitted outside any ``try``, so a
    submit that raised anything but a broken pool killed the group's
    drain loop with the popped batch's windows outstanding and its
    solve slot held: the group never flushed again, and ``close()``
    waited out its drain.  Now the batch fails alone: each of its
    sessions gets one ERROR, and a session opened after it decodes
    every window."""
    shim = _FaultySubmit(0, script={0: ["raise"]}, weights=(1, 0, 0))
    _install(shim, monkeypatch)
    first, *later = _nodes(small_config, database)

    async def stream(gateway, node):
        """The kinds of every frame the gateway sends one node's whole
        record back, until it hangs up."""
        reader = _send_record(gateway, *node, small_config)
        kinds = []
        while (frame := await read_frame(reader)) is not None:
            kinds.append(frame[0])
        return kinds

    async def run():
        gateway = IngestGateway(batch_size=16, flush_ms=50.0)
        # the first stream ends before the others open
        kinds = [await stream(gateway, first)]
        kinds += await asyncio.gather(*(stream(gateway, n) for n in later))
        loop = asyncio.get_running_loop()
        started = loop.time()
        await gateway.close()
        return gateway, kinds, loop.time() - started

    with pytest.warns(RuntimeWarning, match="dropped a batch"):
        gateway, kinds, closing_s = asyncio.run(
            asyncio.wait_for(run(), TIME_BOX_S)
        )
    assert shim.fates[0] == ["raise"]
    dead = gateway.batch_log[0][1]
    by_record = {result.record: result for result in gateway.results}
    assert {session for session, _ in dead} == {by_record["100"].session_id}
    for name, frames in zip(STREAMS, kinds):
        result = by_record[name]
        errors = frames.count(FrameKind.ERROR)
        if name == "100":
            assert errors == 1
            assert result.error.startswith("decode failed")
            assert result.num_windows == WINDOWS - len(dead)
        else:
            assert errors == 0 and result.error is None
            assert result.num_windows == WINDOWS
    assert closing_s < 5.0  # the default drain is 30 s
    _check_nothing_pending(gateway, shim)


#: names the flag file whose first claimant kills its pool worker
_DIE_FLAG = "REPRO_TEST_SOLVE_DIE_FLAG"


def _solve_or_die(task):
    """``solve_measurement_block``, except that the first worker to
    claim the flag file exits mid-solve, as a killed process would."""
    try:
        os.unlink(os.environ[_DIE_FLAG])
    except FileNotFoundError:
        return solve_measurement_block(task)
    os._exit(1)


def test_a_killed_pool_worker_costs_no_window(
    small_config, database, monkeypatch, tmp_path
):
    """The shim's ``die`` fate against the real thing: a process-pool
    worker exits mid-solve, the pool breaks, and still every window of
    every stream decodes."""
    flag = tmp_path / "die"
    flag.touch()
    monkeypatch.setenv(_DIE_FLAG, str(flag))
    monkeypatch.setattr(gateway_module, "solve_measurement_block", _solve_or_die)
    pools = []
    new_pool = executor_module.SolveExecutor._new_pool

    def counted(executor):
        pools.append(new_pool(executor))
        return pools[-1]

    monkeypatch.setattr(executor_module.SolveExecutor, "_new_pool", counted)
    gateway = IngestGateway(batch_size=16, flush_ms=50.0, workers=2)
    asyncio.run(_flood(gateway, _nodes(small_config, database), small_config))
    assert not flag.exists()  # a worker did die
    assert len(pools) == 2  # ... and the executor replaced its pool
    assert all(
        result.num_windows == WINDOWS and result.error is None
        for result in gateway.results
    )
