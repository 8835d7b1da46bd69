"""Cross-source equivalence for the fleet decode engine.

The serial per-stream path stays the reference implementation; these
tests pin the fleet engine to it exactly like
``tests/core/test_batch.py`` pins the single-stream batched engine:
bit-identical packets (the encoder is untouched integer arithmetic) and
reconstructions matching to solver floating-point noise — across both
MIT-BIH leads, across different records sharing one sensing operator,
through ragged tail batches, ``max_packets`` limits and the sharded
multi-process executor.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core import EcgMonitorSystem, MultiChannelMonitor
from repro.core.batch import encode_record_windows
from repro.errors import ConfigurationError
from repro.core.decoder import operator_key, solve_key
from repro.fleet import FleetDecoder, StreamTask
from repro.telemetry import MetricsSnapshot


def _worker_blas_threads(_task: None) -> list[int]:
    """A pool task: its worker's OpenBLAS thread counts.  Defined here
    because a pool pickles it by reference, and a conftest function
    cannot be looked up that way (every conftest imports as
    ``conftest``)."""
    from repro.fleet.executor import loaded_openblas

    return [
        getattr(library, setter.replace("_set_", "_get_"))()
        for library, setter in loaded_openblas()
    ]


def _serial_reference(config, record, channel=0, max_packets=6, codebook=None):
    """A fresh serial stream of one record channel (the ground truth)."""
    system = EcgMonitorSystem(config)
    if codebook is not None:
        system.encoder.codebook = codebook
        system.decoder.codebook = codebook
    return system.stream(
        record, channel=channel, max_packets=max_packets, keep_signals=True
    )


def _assert_stream_equivalent(fleet_result, serial_result, atol=1e-7):
    """Packets bit-identical, solver trajectory identical, floats close."""
    assert fleet_result.num_packets == serial_result.num_packets
    for fleet_packet, serial_packet in zip(
        fleet_result.packets, serial_result.packets
    ):
        assert fleet_packet.sequence == serial_packet.sequence
        assert fleet_packet.is_keyframe == serial_packet.is_keyframe
        assert fleet_packet.packet_bits == serial_packet.packet_bits
        assert fleet_packet.iterations == serial_packet.iterations
        assert fleet_packet.prd_percent == pytest.approx(
            serial_packet.prd_percent, abs=1e-9
        )
    if fleet_result.reconstructed_adu is not None:
        np.testing.assert_allclose(
            fleet_result.reconstructed_adu,
            serial_result.reconstructed_adu,
            atol=atol,
        )


class TestOperatorKey:
    def test_sensing_identity_fields_split_groups(self, small_config):
        base = operator_key(small_config)
        assert operator_key(small_config) == base
        assert operator_key(small_config.replace(seed=99)) != base
        assert operator_key(small_config.replace(m=64)) != base
        assert operator_key(small_config.replace(d=4)) != base
        assert operator_key(small_config.replace(wavelet="haar")) != base
        assert operator_key(small_config.replace(levels=3)) != base
        assert operator_key(small_config, precision="float32") != base

    def test_solver_params_split_solves_not_operators(self, small_config):
        relaxed = small_config.replace(tolerance=1e-3)
        assert operator_key(small_config) == operator_key(relaxed)
        assert solve_key(small_config) != solve_key(relaxed)

    def test_non_operator_fields_share_groups(self, small_config):
        assert operator_key(small_config) == operator_key(
            small_config.replace(lam=0.01, keyframe_interval=4)
        )


def _record_solves(monkeypatch) -> list[tuple[dict, dict]]:
    """Wrap the engine's solve task: every ``(task, result)`` a run
    hands it lands in the returned list, in task order at
    ``workers=1``."""
    import repro.fleet.engine as engine_module

    solve = engine_module.solve_measurement_block
    calls = []

    def recorded(task):
        out = solve(task)
        calls.append((task, out))
        return out

    monkeypatch.setattr(engine_module, "solve_measurement_block", recorded)
    return calls


def _measurements(config, record, count):
    """A stream's ``(m, count)`` dequantized measurement block."""
    system = EcgMonitorSystem(config)
    _, packets = encode_record_windows(system, record, max_packets=count)
    return system.decoder.payload.measurement_block(packets, np.float64)


class TestGroupLayout:
    """Each operator group's streams concatenate in order into one
    pooled block, batches are ``batch_size`` spans of it, and each
    stream reads its own contiguous range of the results back."""

    def test_batches_span_stream_boundaries(
        self, small_config, database, monkeypatch
    ):
        """2 streams x 5 windows at batch 4: widths 4, 4, 2, and the
        middle block is stream 0's last window then stream 1's first
        three (stream 1 at twice the lambda, so the fractions say whose
        column is whose too)."""
        calls = _record_solves(monkeypatch)
        records = [database.load("100"), database.load("119")]
        configs = [
            small_config,
            small_config.replace(lam=2 * small_config.lam),
        ]
        FleetDecoder(batch_size=4, workers=1).run(
            [
                StreamTask(EcgMonitorSystem(config), record, max_packets=5)
                for config, record in zip(configs, records)
            ]
        )
        assert [task["block"].shape[1] for task, _ in calls] == [4, 4, 2]
        first, second = (
            _measurements(config, record, 5)
            for config, record in zip(configs, records)
        )
        middle = calls[1][0]
        np.testing.assert_array_equal(
            middle["block"], np.hstack([first[:, 4:], second[:, :3]])
        )
        np.testing.assert_array_equal(
            middle["fractions"], [configs[0].lam] + 3 * [configs[1].lam]
        )

    def test_groups_by_solve_key_in_first_appearance_order(
        self, small_config, database, monkeypatch
    ):
        """Streams keyed a, b, a form groups [0, 2] then [1]; b differs
        from a only in ``tolerance``, which splits solves but not
        operators.  Each task's block is its group's streams'
        measurement blocks side by side."""
        calls = _record_solves(monkeypatch)
        relaxed = small_config.replace(tolerance=3e-4)
        plan = [
            (small_config, database.load("100"), 3),
            (relaxed, database.load("119"), 2),
            (small_config, database.load("201"), 3),
        ]
        engine = FleetDecoder(batch_size=8, workers=1)
        engine.run(
            [
                StreamTask(EcgMonitorSystem(config), record, max_packets=count)
                for config, record, count in plan
            ]
        )
        assert engine.last_num_groups == 2
        blocks = [_measurements(*stream) for stream in plan]
        expected = [
            (np.hstack([blocks[0], blocks[2]]), small_config.tolerance),
            (blocks[1], relaxed.tolerance),
        ]
        assert len(calls) == len(expected)
        for (task, _), (block, tolerance) in zip(calls, expected):
            np.testing.assert_array_equal(task["block"], block)
            assert task["tolerance"] == tolerance

    def test_streams_read_their_own_range_in_window_order(
        self, small_config, database, monkeypatch
    ):
        """Every stream's samples and iterations are its own columns of
        the solved batches, in window order, with its dc offset added —
        over two groups whose batches span stream boundaries."""
        calls = _record_solves(monkeypatch)
        other = small_config.replace(seed=small_config.seed + 1)
        plan = [
            (small_config, "100", 3),
            (other, "119", 5),
            (small_config, "201", 4),
        ]
        tasks = [
            StreamTask(
                EcgMonitorSystem(config),
                database.load(name),
                max_packets=count,
                keep_signals=True,
            )
            for config, name, count in plan
        ]
        results = FleetDecoder(batch_size=2, workers=1).run(tasks)
        # group [0, 2]: 7 windows in 4 batches, then group [1]: 3 more
        assert len(calls) == 4 + 3
        group_a, group_b = calls[:4], calls[4:]

        def solved(group):
            return (
                np.hstack([out["signals"] for _, out in group]),
                np.concatenate([out["iterations"] for _, out in group]),
            )

        signals_a, iterations_a = solved(group_a)
        signals_b, iterations_b = solved(group_b)
        expected = [
            (signals_a[:, :3], iterations_a[:3]),
            (signals_b, iterations_b),
            (signals_a[:, 3:], iterations_a[3:]),
        ]
        for task, result, (signals, iterations) in zip(
            tasks, results, expected
        ):
            dc_offset = task.system.encoder.dc_offset
            np.testing.assert_array_equal(
                result.reconstructed_adu,
                (signals.T + dc_offset).reshape(-1),
            )
            assert [p.iterations for p in result.packets] == list(iterations)


class TestCrossSourceEquivalence:
    def test_both_leads_pooled(self, small_config, database):
        """(a) both MIT-BIH leads through the fleet vs per-lead serial."""
        record = database.load("100")
        monitor = MultiChannelMonitor(small_config, channels=2)
        tasks = [
            StreamTask(
                system, record, channel=channel, max_packets=5,
                keep_signals=True,
            )
            for channel, system in enumerate(monitor.systems)
        ]
        results = FleetDecoder(batch_size=3).run(tasks)
        for channel, fleet_result in enumerate(results):
            serial = _serial_reference(
                small_config.replace(seed=small_config.seed + channel),
                record,
                channel=channel,
                max_packets=5,
            )
            _assert_stream_equivalent(fleet_result, serial)

    def test_two_records_one_operator_group(self, small_config, database):
        """(b) two records share the operator; batches span both."""
        records = [database.load("100"), database.load("119")]
        systems = [EcgMonitorSystem(small_config) for _ in records]
        tasks = [
            StreamTask(system, record, max_packets=5, keep_signals=True)
            for system, record in zip(systems, records)
        ]
        # batch 4 over 2x5 windows: the middle batch mixes both records
        results = FleetDecoder(batch_size=4).run(tasks)
        for record, fleet_result in zip(records, results):
            _assert_stream_equivalent(
                fleet_result,
                _serial_reference(small_config, record, max_packets=5),
            )

    def test_ragged_tail_and_max_packets(self, small_config, database):
        """Unequal max_packets limits leave a ragged pooled tail."""
        records = [database.load("100"), database.load("201")]
        systems = [EcgMonitorSystem(small_config) for _ in records]
        limits = (5, 2)
        tasks = [
            StreamTask(system, record, max_packets=limit)
            for system, record, limit in zip(systems, records, limits)
        ]
        results = FleetDecoder(batch_size=3).run(tasks)
        assert [r.num_packets for r in results] == list(limits)
        for record, limit, fleet_result in zip(records, limits, results):
            _assert_stream_equivalent(
                fleet_result,
                _serial_reference(small_config, record, max_packets=limit),
            )

    def test_calibrated_codebooks_stay_per_stream(
        self, small_config, database
    ):
        """Streams with different trained codebooks share one solve."""
        records = [database.load("100"), database.load("106")]
        systems = [EcgMonitorSystem(small_config) for _ in records]
        for system, record in zip(systems, records):
            system.calibrate(record)
        assert systems[0].encoder.codebook is not systems[1].encoder.codebook
        tasks = [
            StreamTask(system, record, max_packets=4)
            for system, record in zip(systems, records)
        ]
        results = FleetDecoder(batch_size=8).run(tasks)
        for system, record, fleet_result in zip(systems, records, results):
            serial = _serial_reference(
                small_config,
                record,
                max_packets=4,
                codebook=system.encoder.codebook,
            )
            _assert_stream_equivalent(fleet_result, serial)

    def test_mixed_operator_groups_route_correctly(
        self, small_config, database
    ):
        """Interleaved submission of two groups routes back in order."""
        other = small_config.replace(seed=small_config.seed + 7)
        record = database.load("100")
        tasks = [
            StreamTask(EcgMonitorSystem(cfg), record, max_packets=3)
            for cfg in (small_config, other, small_config, other)
        ]
        results = FleetDecoder(batch_size=4).run(tasks)
        ref_a = _serial_reference(small_config, record, max_packets=3)
        ref_b = _serial_reference(other, record, max_packets=3)
        for index, fleet_result in enumerate(results):
            _assert_stream_equivalent(
                fleet_result, ref_a if index % 2 == 0 else ref_b
            )


#: fleet shapes for the one-path matrix: per group (seed offset), the
#: per-stream window counts — ``batch_size=2`` throughout
_SHAPES = {
    "one_group": [(0, (5, 5))],
    "two_groups_ragged": [(0, (3, 2)), (1, (3,))],
    "three_groups": [(0, (4,)), (1, (4,)), (2, (4,))],
}


class TestShardedExecutor:
    @pytest.mark.parametrize("shape", sorted(_SHAPES))
    @pytest.mark.parametrize("precision", ["float64", "hybrid"])
    @pytest.mark.parametrize("executor", ["inline", "thread", "process"])
    def test_every_executor_matches_inline_bitwise(
        self, small_config, database, monkeypatch, executor, precision, shape
    ):
        """One solve path: the same one-batch tasks through an
        inline call, solve threads or a 2-process pool give identical
        bits — for one group, for ragged groups, and for more groups
        than workers — and the serial ``stream()`` trajectory."""
        import repro.fleet.engine as engine_module
        from repro.fleet.executor import SolveExecutor

        names = ["100", "119"]
        plan = [
            (small_config.replace(seed=small_config.seed + offset), count, name)
            for offset, counts in _SHAPES[shape]
            for count, name in zip(counts, names)
        ]
        tasks_of = lambda: [
            StreamTask(
                EcgMonitorSystem(config, precision=precision),
                database.load(name),
                max_packets=count,
                keep_signals=True,
            )
            for config, count, name in plan
        ]
        inline = FleetDecoder(batch_size=2, workers=1).run(tasks_of())
        if executor == "thread":
            # same tasks, run concurrently on this process's cached
            # solvers: batches of one operator meet on its lock
            monkeypatch.setattr(
                engine_module,
                "SolveExecutor",
                lambda workers: SolveExecutor(threaded=True),
            )
        engine = FleetDecoder(
            batch_size=2, workers=1 if executor == "inline" else 2
        )
        results = engine.run(tasks_of())
        assert engine.last_num_groups == len(_SHAPES[shape])
        assert engine.last_effective_workers == (
            2 if executor == "process" else 1
        )
        for (config, count, name), a, b in zip(plan, inline, results):
            assert [p.iterations for p in a.packets] == [
                p.iterations for p in b.packets
            ]
            assert [p.packet_bits for p in a.packets] == [
                p.packet_bits for p in b.packets
            ]
            np.testing.assert_array_equal(
                a.reconstructed_adu, b.reconstructed_adu
            )
            serial = EcgMonitorSystem(config, precision=precision).stream(
                database.load(name), max_packets=count
            )
            assert [p.iterations for p in b.packets] == [
                p.iterations for p in serial.packets
            ]

    def test_more_workers_than_groups_are_used(self, small_config, database):
        """Batches, not groups, are the unit of work: 2 multi-batch
        groups keep 4 workers busy, bit-identical to in-process."""
        other = small_config.replace(seed=small_config.seed + 1)
        tasks_of = lambda: [
            StreamTask(
                EcgMonitorSystem(cfg), database.load("100"), max_packets=6,
                keep_signals=True,
            )
            for cfg in (small_config, other)
        ]
        engine = FleetDecoder(batch_size=2, workers=4)
        sharded = engine.run(tasks_of())
        assert engine.last_num_groups == 2
        assert engine.last_effective_workers == 4
        inprocess = FleetDecoder(batch_size=2, workers=1).run(tasks_of())
        for a, b in zip(inprocess, sharded):
            np.testing.assert_array_equal(
                a.reconstructed_adu, b.reconstructed_adu
            )

    def test_single_group_shards_columns(self, small_config, database):
        """One operator group shards *within* the group: the pooled
        column stream's batches are dealt out across workers,
        bit-identical to the in-process pooled decode."""
        record = database.load("100")
        tasks_of = lambda: [
            StreamTask(
                EcgMonitorSystem(small_config), record, max_packets=5,
                keep_signals=True,
            )
            for _ in range(2)
        ]
        engine = FleetDecoder(batch_size=2, workers=4)
        sharded = engine.run(tasks_of())
        assert engine.last_num_groups == 1
        # 10 pooled windows, batch 2 -> 5 batches over 4 workers
        assert engine.last_effective_workers == 4
        inprocess = FleetDecoder(batch_size=2, workers=1).run(tasks_of())
        for a, b in zip(inprocess, sharded):
            assert [p.iterations for p in a.packets] == [
                p.iterations for p in b.packets
            ]
            np.testing.assert_array_equal(
                a.reconstructed_adu, b.reconstructed_adu
            )
            _assert_stream_equivalent(
                b, _serial_reference(small_config, record, max_packets=5)
            )

    def test_column_shard_ragged_tail_spans_streams(
        self, small_config, database
    ):
        """Batch-aligned slicing keeps cross-stream batches intact:
        with 3+2 windows and batch 2, the middle batch mixes streams
        and lands whole on one worker."""
        records = [database.load("100"), database.load("119")]
        systems = [EcgMonitorSystem(small_config) for _ in records]
        limits = (3, 2)
        tasks = [
            StreamTask(system, record, max_packets=limit)
            for system, record, limit in zip(systems, records, limits)
        ]
        engine = FleetDecoder(batch_size=2, workers=2)
        results = engine.run(tasks)
        assert engine.last_effective_workers == 2
        for record, limit, fleet_result in zip(records, limits, results):
            _assert_stream_equivalent(
                fleet_result,
                _serial_reference(small_config, record, max_packets=limit),
            )

    def test_single_batch_falls_back_with_warning(
        self, small_config, database
    ):
        """Nothing to shard (one group, one batch): the engine decodes
        in-process and says why instead of staying silent."""
        record = database.load("100")
        tasks = [
            StreamTask(EcgMonitorSystem(small_config), record, max_packets=2)
        ]
        engine = FleetDecoder(batch_size=8, workers=4)
        with pytest.warns(RuntimeWarning, match="nothing to shard"):
            results = engine.run(tasks)
        assert engine.last_num_groups == 1
        assert engine.last_effective_workers == 1  # reported, not requested
        _assert_stream_equivalent(
            results[0],
            _serial_reference(small_config, record, max_packets=2),
        )

    def test_platform_without_pools_falls_back_with_warning(
        self, small_config, database, monkeypatch
    ):
        """A platform that cannot start a pool: one RuntimeWarning (the
        executor's, shared with the gateway), then the same batches
        decode in-process."""
        import repro.fleet.executor as executor_module

        def no_pool(*args, **kwargs):
            raise OSError("no sem_open here")

        monkeypatch.setattr(executor_module, "ProcessPoolExecutor", no_pool)
        record = database.load("100")
        tasks_of = lambda: [
            StreamTask(
                EcgMonitorSystem(small_config), record, max_packets=4,
                keep_signals=True,
            )
        ]
        engine = FleetDecoder(batch_size=2, workers=2)
        with pytest.warns(
            RuntimeWarning,
            match=r"process pool unavailable .*no sem_open here",
        ) as caught:
            results = engine.run(tasks_of())
        assert len(caught) == 1
        assert engine.last_effective_workers == 1
        inline = FleetDecoder(batch_size=2, workers=1).run(tasks_of())
        np.testing.assert_array_equal(
            results[0].reconstructed_adu, inline[0].reconstructed_adu
        )

    def test_uneven_batches_over_workers_match_in_process(
        self, small_config, database
    ):
        """One task per batch: 2 streams x 10 windows at batch 4 are 5
        batches, which 2 or 3 workers deal out unevenly, yet samples
        and iterations equal the in-process decode and every worker
        count runs exactly 5 tasks."""
        tasks_of = lambda: [
            StreamTask(
                EcgMonitorSystem(small_config),
                database.load(name),
                max_packets=10,
                keep_signals=True,
            )
            for name in ("100", "119")
        ]
        decoded = {}
        for workers in (1, 2, 3):
            engine = FleetDecoder(batch_size=4, workers=workers)
            decoded[workers] = engine.run(tasks_of())
            widths = engine.telemetry.snapshot().histogram_total(
                "fleet_solve_width"
            )
            assert (widths.total, widths.sum) == (5, 20)
            assert engine.last_effective_workers == workers
        for workers in (2, 3):
            for a, b in zip(decoded[1], decoded[workers]):
                assert [p.iterations for p in a.packets] == [
                    p.iterations for p in b.packets
                ]
                np.testing.assert_array_equal(
                    a.reconstructed_adu, b.reconstructed_adu
                )

    def test_run_reports_effective_sharding(self, small_config, database):
        record = database.load("100")
        other = small_config.replace(seed=small_config.seed + 1)
        tasks = [
            StreamTask(EcgMonitorSystem(cfg), record, max_packets=2)
            for cfg in (small_config, other)
        ]
        engine = FleetDecoder(batch_size=2, workers=2)
        engine.run(tasks)
        assert engine.last_num_groups == 2
        # two single-batch groups are two tasks of the one layout
        assert engine.last_effective_workers == 2

    def test_one_operator_build_per_key_per_process(
        self, small_config, database
    ):
        """A group's streams share one cached operator: the dense
        build + Lipschitz estimate is paid once per key in a process,
        however many decoders and runs use it."""
        from repro.core.decoder import build_resources

        record = database.load("100")
        config = small_config.replace(seed=424242)  # unseen by other tests
        systems = [EcgMonitorSystem(config) for _ in range(3)]
        tasks = [
            StreamTask(system, record, max_packets=2) for system in systems
        ]
        before = build_resources.cache_info()  # decoders built nothing
        FleetDecoder(batch_size=4, workers=1).run(tasks)
        assert build_resources.cache_info().misses == before.misses + 1
        FleetDecoder(batch_size=4, workers=1).run(tasks)
        systems[2].stream(record, max_packets=2)
        after = build_resources.cache_info()
        assert after.misses == before.misses + 1
        assert after.hits > before.hits


class TestDefaultLayout:
    """``workers`` unset: one single-BLAS-thread worker per usable CPU
    for the serial-FISTA backends, in-process for hybrid — and the same
    bits as ``workers=1`` either way."""

    @pytest.mark.parametrize("batches", [1, 2, 3])
    @pytest.mark.parametrize("precision", ["float64", "float32", "hybrid"])
    def test_default_matches_in_process_bitwise(
        self, small_config, database, monkeypatch, precision, batches
    ):
        import warnings

        import repro.fleet.executor as executor_module

        monkeypatch.setattr(executor_module, "usable_cpus", lambda: 2)
        tasks_of = lambda: [
            StreamTask(
                EcgMonitorSystem(small_config, precision=precision),
                database.load(name),
                max_packets=count,
                keep_signals=True,
            )
            # batch 2 over 2*batches pooled windows, ragged across streams
            for name, count in (("100", batches), ("119", batches))
        ]
        engine = FleetDecoder(batch_size=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # unset workers never warns
            default = engine.run(tasks_of())
        inline = FleetDecoder(batch_size=2, workers=1).run(tasks_of())
        pooled = precision != "hybrid" and batches >= 2
        assert engine.last_effective_workers == (2 if pooled else 1)
        for a, b in zip(inline, default):
            assert [p.iterations for p in a.packets] == [
                p.iterations for p in b.packets
            ]
            np.testing.assert_array_equal(
                a.reconstructed_adu, b.reconstructed_adu
            )

    def test_explicit_workers_pool_hybrid_too(self, small_config, database):
        """The per-backend rule is only the default: ``workers=2`` is
        honoured for a hybrid group."""
        engine = FleetDecoder(batch_size=2, workers=2)
        engine.run(
            [
                StreamTask(
                    EcgMonitorSystem(small_config, precision="hybrid"),
                    database.load("100"),
                    max_packets=4,
                )
            ]
        )
        assert engine.last_effective_workers == 2

    def test_usable_cpus_reads_the_affinity_mask(self, monkeypatch):
        from repro.fleet.executor import usable_cpus

        monkeypatch.setattr(
            "os.sched_getaffinity", lambda pid: {0, 3, 5}, raising=False
        )
        assert usable_cpus() == 3
        monkeypatch.delattr("os.sched_getaffinity", raising=False)
        monkeypatch.setattr("os.cpu_count", lambda: 7)
        assert usable_cpus() == 7

    @pytest.mark.parametrize(
        "cpus, blas, workers, slots",
        [
            (2, 1, None, 2),
            (4, 1, None, 4),
            (2, 2, None, 1),
            (4, 2, None, 2),
            (1, 4, None, 1),
            (4, 1, 0, 1),
            (4, 1, 1, 1),
            (4, 4, 3, 3),
        ],
    )
    def test_solve_slots(self, monkeypatch, cpus, blas, workers, slots):
        """Unset, one in-process solve per CPU a BLAS call leaves free
        (an unpinned BLAS already spreads one solve over them all);
        ``0``/``1`` one; ``N >= 2`` processes each pin their BLAS."""
        import repro.fleet.executor as executor_module

        monkeypatch.setattr(executor_module, "usable_cpus", lambda: cpus)
        monkeypatch.setattr(executor_module, "blas_threads", lambda: blas)
        assert executor_module.solve_slots(workers) == slots

    def test_blas_threads_reads_openblas(self, blas_on_two_threads):
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro
        from repro.fleet.executor import blas_threads

        assert blas_threads() == max(blas_on_two_threads()) == 2
        # what the e2e benchmark child runs under
        pinned = subprocess.run(
            [
                sys.executable,
                "-c",
                "from repro.fleet.executor import blas_threads; "
                "print(blas_threads())",
            ],
            env={
                **os.environ,
                "OPENBLAS_NUM_THREADS": "1",
                "PYTHONPATH": str(Path(repro.__file__).parents[1]),
            },
            capture_output=True,
            text=True,
            check=True,
        )
        assert pinned.stdout.split() == ["1"]

    def test_pool_worker_runs_blas_on_one_thread(self, blas_on_two_threads):
        """The oversubscription bug: a forked worker inherited its
        parent's BLAS threads, so 2 workers ran 4 threads on 2 CPUs (a
        96-window float64 job ran 1.4-8.7x slower than in-process on a
        2-core Xeon)."""
        from repro.fleet.executor import SolveExecutor

        assert min(blas_on_two_threads()) >= 2
        executor = SolveExecutor(2)
        try:
            assert executor.workers == 2
            counts = executor.map(_worker_blas_threads, [None, None])
        finally:
            executor.close()
        assert counts == [[1] * len(counts[0])] * 2
        assert min(blas_on_two_threads()) >= 2  # the parent is untouched

    def test_hybrid_decode_is_blas_thread_count_invariant(
        self, paper_config, database, blas_on_two_threads
    ):
        """A hybrid pool worker builds its ADMM resolvent pair on one
        BLAS thread, an unpinned parent on several: at the paper point
        both decode the same samples and iterations.  Each side builds
        its operator from an empty cache, so neither inherits the
        other's pair (pool workers fork from the parent)."""
        from repro.core.decoder import build_resources

        tasks_of = lambda: [
            StreamTask(
                EcgMonitorSystem(paper_config, precision="hybrid"),
                database.load(name),
                max_packets=8,
                keep_signals=True,
            )
            for name in ("100", "119")
        ]
        build_resources.cache_clear()
        pool = FleetDecoder(batch_size=4, workers=2)
        pooled = pool.run(tasks_of())
        assert pool.last_effective_workers == 2
        build_resources.cache_clear()
        assert min(blas_on_two_threads()) >= 2
        inline = FleetDecoder(batch_size=4, workers=1).run(tasks_of())
        build_resources.cache_clear()  # no 2-thread pair outlives the test
        for a, b in zip(pooled, inline):
            assert [p.iterations for p in a.packets] == [
                p.iterations for p in b.packets
            ]
            np.testing.assert_array_equal(
                a.reconstructed_adu, b.reconstructed_adu
            )


class TestOperatorCache:
    def test_cache_is_bounded_and_rebuilds_bit_identically(self, small_config):
        """The cap holds whatever configs arrive (a HELLO names the
        key), and an evicted operator rebuilds to the same bits."""
        from repro.core.decoder import (
            OPERATOR_CACHE_SIZE,
            build_resources,
            resources_for,
        )

        config = small_config.replace(seed=515151)
        first = resources_for(config, "hybrid")
        kept = first.solver.operator.copy()
        for offset in range(1, 2 * OPERATOR_CACHE_SIZE + 1):
            resources_for(config.replace(seed=config.seed + offset), "float64")
            assert build_resources.cache_info().currsize <= OPERATOR_CACHE_SIZE
        builds = build_resources.cache_info().misses
        rebuilt = resources_for(config, "hybrid")
        assert rebuilt is not first  # evicted, then rebuilt
        assert build_resources.cache_info().misses == builds + 1
        np.testing.assert_array_equal(rebuilt.solver.operator, kept)
        assert rebuilt.solver.lipschitz == first.solver.lipschitz
        assert resources_for(config, "hybrid") is rebuilt

    @pytest.mark.parametrize("precision", ["float64", "hybrid"])
    def test_concurrent_solves_on_one_operator_match_serial(
        self, small_config, precision
    ):
        """One cached solver serves many callers, each solve in scratch
        of its own: blocks solved from more threads than cores (two
        configs differing only in ``tolerance`` — one operator key)
        equal their serial solves exactly."""
        import sys
        from concurrent.futures import ThreadPoolExecutor

        from repro.fleet.engine import solve_measurement_block

        rng = np.random.default_rng(5)
        tasks = [
            {
                "config": dataclasses.asdict(config),
                "precision": precision,
                "block": rng.normal(size=(config.m, 4)),
                "fractions": np.full(4, config.lam),
                "max_iterations": 60,
                "tolerance": config.tolerance,
            }
            for _ in range(8)
            for config in (small_config, small_config.replace(tolerance=3e-4))
        ]
        serial = [solve_measurement_block(task)["signals"] for task in tasks]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [
                    pool.submit(solve_measurement_block, task)
                    for task in tasks
                ]
                threaded = [f.result(timeout=120)["signals"] for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for expected, got in zip(serial, threaded):
            np.testing.assert_array_equal(got, expected)


class TestSolveTask:
    """``solve_measurement_block`` solves its whole block as one batch;
    a ``batch_size`` key, which the benchmark still sends, is ignored."""

    @staticmethod
    def _task(config, width, **extra):
        rng = np.random.default_rng(38)
        return {
            "config": dataclasses.asdict(config),
            "precision": "float64",
            "block": rng.normal(size=(config.m, width)),
            "fractions": np.full(width, config.lam),
            "max_iterations": 60,
            "tolerance": config.tolerance,
            **extra,
        }

    @pytest.mark.parametrize("batch_size", [8, 2])
    def test_batch_size_key_is_not_read(self, small_config, batch_size):
        """With ``batch_size`` equal to the block width (the benchmark's
        shape) or a stale smaller one, the result equals the task
        without the key: one solve over all 8 columns."""
        from repro.fleet.engine import solve_measurement_block

        bare = solve_measurement_block(self._task(small_config, 8))
        keyed = solve_measurement_block(
            self._task(small_config, 8, batch_size=batch_size)
        )
        np.testing.assert_array_equal(keyed["signals"], bare["signals"])
        np.testing.assert_array_equal(keyed["iterations"], bare["iterations"])
        widths = MetricsSnapshot.from_dict(keyed["telemetry"]).histogram_total(
            "fleet_solve_width"
        )
        assert (widths.total, widths.sum) == (1, 8)


class TestFleetApi:
    def test_empty_task_list(self):
        assert FleetDecoder().run([]) == []

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            FleetDecoder(batch_size=0)
        with pytest.raises(ConfigurationError):
            FleetDecoder(workers=-1)

    def test_max_packets_zero_names_cause(self, small_config, database):
        task = StreamTask(
            EcgMonitorSystem(small_config), database.load("100"), max_packets=0
        )
        with pytest.raises(ValueError, match="max_packets"):
            FleetDecoder(batch_size=2).run([task])

    def test_multichannel_stream_uses_fleet(self, small_config, database):
        """The monitor's batched path pools leads through the fleet."""
        record = database.load("100")
        serial_monitor = MultiChannelMonitor(small_config, channels=2)
        fleet_monitor = MultiChannelMonitor(small_config, channels=2)
        serial = serial_monitor.stream(record, max_packets=4)
        pooled = fleet_monitor.stream(record, max_packets=4, batch_size=4)
        assert len(pooled) == len(serial) == 2
        for lead_serial, lead_pooled in zip(serial, pooled):
            _assert_stream_equivalent(lead_pooled, lead_serial)


class TestFleetTelemetry:
    """The fleet surface publishes through the unified telemetry plane."""

    def test_inprocess_run_publishes_the_iteration_budget(
        self, small_config, database
    ):
        """The in-process path publishes the solve series a pool
        worker ships home: one ``fleet_solve_iterations`` observation
        per window and one solve/width observation per batch on every
        backend; hybrid/polish counters only where the hybrid legs
        ran."""
        record = database.load("100")
        for precision in ("float64", "hybrid"):
            decoder = FleetDecoder(batch_size=3, workers=1)
            results = decoder.run(
                [
                    StreamTask(
                        EcgMonitorSystem(small_config, precision=precision),
                        record,
                        max_packets=4,
                    )
                ]
            )
            snap = decoder.telemetry.snapshot()
            budget = snap.histogram_total("fleet_solve_iterations")
            assert budget.total == 4
            assert budget.sum == sum(p.iterations for p in results[0].packets)
            assert snap.counter_total("fleet_hybrid_windows") == (
                4 if precision == "hybrid" else 0
            )
            # 4 windows at batch_size=3: two solves, widths 3 + 1
            assert snap.histogram_total("fleet_solve_seconds").total == 2
            widths = snap.histogram_total("fleet_solve_width")
            assert (widths.total, widths.sum) == (2, 4)
            # easy windows: the residual gate re-solves none of them
            assert snap.counter_total("fleet_polish_windows") == 0

    def test_worker_deltas_absorbed_across_pool(
        self, small_config, database
    ):
        """Cross-process merge: every batch's telemetry delta lands in
        the parent registry exactly once, whatever the completion
        order — windows are conserved for two operator groups and for
        one group's four batches (in-process too, if no pool can
        start)."""
        other = small_config.replace(seed=small_config.seed + 1)
        records = [database.load("100"), database.load("119")]

        for configs, batch_size in (
            ((small_config, other), 3),
            ((small_config, small_config), 2),
        ):
            decoder = FleetDecoder(batch_size=batch_size, workers=2)
            decoder.run(
                [
                    StreamTask(EcgMonitorSystem(cfg), record, max_packets=4)
                    for cfg, record in zip(configs, records)
                ]
            )
            snap = decoder.telemetry.snapshot()
            widths = snap.histogram_total("fleet_solve_width")
            # two groups of 4 at batch 3, or one group of 8 at batch 2:
            # four solves either way
            assert (widths.total, widths.sum) == (4, 8)
            assert snap.label_values("fleet_solve_width", "worker")
            hist = snap.histogram_total("fleet_solve_seconds")
            assert hist is not None and hist.total >= 2
