"""MetricsSnapshot across process boundaries: the federation roll-up.

The federation front door never reads a worker registry directly: each
gateway worker ships ``snapshot().delta_since(shipped).to_dict()``
through its control pipe (a pickle boundary) and the coordinator
``absorb``s the dict.  These tests pin the three properties that
contract rests on:

- the wire forms (``to_dict`` and pickling) round-trip exactly;
- the merge is a commutative monoid, so any absorption order over any
  worker completion order yields the same aggregate — counters and
  percentiles exact, gauges resolved by update version;
- periodic ``delta_since`` shipping absorbs to the same totals as one
  final cumulative snapshot (no double counting).
"""

from __future__ import annotations

import pickle
import random

import pytest

from telemetry_oracle import gauge_value

from repro.telemetry import MetricsRegistry, MetricsSnapshot

BUCKETS = (0.001, 0.01, 0.1, 1.0, 10.0)


def _worker_registry(worker: int, solves: int) -> MetricsRegistry:
    """A registry shaped like one gateway worker's private plane."""
    registry = MetricsRegistry()
    for index in range(solves):
        registry.inc("ingest_windows_decoded", gateway=f"gw{worker}")
        registry.observe(
            "solve_seconds",
            0.001 * (1 + worker) * (1 + index),
            buckets=BUCKETS,
        )
    registry.set_gauge("federation_gateways", float(worker + 1))
    return registry


class TestWireForms:
    def test_to_dict_round_trip_is_exact(self):
        snap = _worker_registry(0, 5).snapshot()
        clone = MetricsSnapshot.from_dict(snap.to_dict())
        assert clone.counters == snap.counters
        assert clone.gauges == snap.gauges
        assert clone.histograms == snap.histograms

    def test_pickle_round_trip_is_exact(self):
        # multiprocessing.Pipe pickles whatever the worker sends; the
        # roll-up ships plain dicts, but the snapshot itself must
        # survive pickling too (thread-mode fallback passes it as-is)
        snap = _worker_registry(1, 7).snapshot()
        clone = pickle.loads(pickle.dumps(snap))
        assert clone.counters == snap.counters
        assert clone.gauges == snap.gauges
        assert clone.histograms == snap.histograms

    def test_absorb_accepts_the_wire_dict(self):
        coordinator = MetricsRegistry()
        coordinator.absorb(_worker_registry(0, 3).snapshot().to_dict())
        assert (
            coordinator.snapshot().counter_value(
                "ingest_windows_decoded", gateway="gw0"
            )
            == 3
        )


class TestMonoidMerge:
    def test_counter_totals_exact_across_workers(self):
        coordinator = MetricsRegistry()
        for worker, solves in enumerate((3, 5, 11)):
            coordinator.absorb(
                _worker_registry(worker, solves).snapshot().to_dict()
            )
        snap = coordinator.snapshot()
        assert snap.counter_total("ingest_windows_decoded") == 19
        for worker, solves in enumerate((3, 5, 11)):
            assert (
                snap.counter_value(
                    "ingest_windows_decoded", gateway=f"gw{worker}"
                )
                == solves
            )

    def test_merge_order_independent(self):
        snaps = [
            _worker_registry(worker, 4 + worker).snapshot()
            for worker in range(4)
        ]
        rng = random.Random(2011)
        merges = []
        for _ in range(6):
            order = snaps[:]
            rng.shuffle(order)
            merged = MetricsSnapshot.empty()
            for snap in order:
                merged = merged.merge(snap)
            merges.append(merged)
        reference = merges[0]
        for merged in merges[1:]:
            assert merged.counters == reference.counters
            assert merged.gauges == reference.gauges
            assert merged.histograms == reference.histograms

    def test_percentiles_exact_vs_single_registry(self):
        # bucketed percentiles are a function of the bucket counts, so
        # merging per-worker histograms must answer exactly what one
        # registry seeing every observation would answer
        union = MetricsRegistry()
        merged = MetricsSnapshot.empty()
        for worker, solves in enumerate((6, 9, 13)):
            registry = _worker_registry(worker, solves)
            merged = merged.merge(registry.snapshot())
            for index in range(solves):
                union.observe(
                    "solve_seconds",
                    0.001 * (1 + worker) * (1 + index),
                    buckets=BUCKETS,
                )
        ours = merged.histogram_total("solve_seconds")
        reference = union.snapshot().histogram_total("solve_seconds")
        assert ours.counts == reference.counts
        assert ours.total == reference.total
        assert ours.sum == pytest.approx(reference.sum)
        for q in (0.5, 0.9, 0.99):
            assert ours.percentile(q) == reference.percentile(q)
        assert ours.min == reference.min
        assert ours.max == reference.max

    def test_gauge_update_version_tiebreak(self):
        # the fresher write wins regardless of absorption order: a
        # worker that set the gauge three times beats one that set it
        # once, even if its snapshot is absorbed first
        stale = MetricsRegistry()
        stale.set_gauge("federation_gateways", 4.0)
        fresh = MetricsRegistry()
        for value in (4.0, 3.0, 2.0):
            fresh.set_gauge("federation_gateways", value)
        forward = MetricsRegistry()
        forward.absorb(stale.snapshot())
        forward.absorb(fresh.snapshot())
        backward = MetricsRegistry()
        backward.absorb(fresh.snapshot())
        backward.absorb(stale.snapshot())
        assert (
            gauge_value(forward.snapshot(), "federation_gateways")
            == gauge_value(backward.snapshot(), "federation_gateways")
            == 2.0
        )

    def test_gauge_same_version_resolves_by_value(self):
        a = MetricsRegistry()
        a.set_gauge("federation_gateways", 1.0)
        b = MetricsRegistry()
        b.set_gauge("federation_gateways", 3.0)
        merged = a.snapshot().merge(b.snapshot())
        assert gauge_value(merged, "federation_gateways") == 3.0


class TestDeltaShipping:
    def test_periodic_deltas_equal_final_cumulative(self):
        # the worker loop: record, ship delta, record more, ship again
        worker = MetricsRegistry()
        periodic = MetricsRegistry()
        shipped = MetricsSnapshot.empty()
        for round_solves in (3, 0, 5):
            for index in range(round_solves):
                worker.inc("ingest_windows_decoded", gateway="gw0")
                worker.observe(
                    "solve_seconds", 0.002 * (index + 1), buckets=BUCKETS
                )
            worker.set_gauge("ingest_active_sessions", float(round_solves))
            current = worker.snapshot()
            periodic.absorb(current.delta_since(shipped).to_dict())
            shipped = current
        final = MetricsRegistry()
        final.absorb(worker.snapshot())
        periodic_snap = periodic.snapshot()
        final_snap = final.snapshot()
        assert periodic_snap.counters == final_snap.counters
        assert periodic_snap.gauges == final_snap.gauges
        assert periodic_snap.histograms == final_snap.histograms

    def test_unchanged_series_ship_nothing(self):
        worker = _worker_registry(0, 4)
        first = worker.snapshot()
        delta = worker.snapshot().delta_since(first)
        assert delta.counters == {}
        assert delta.gauges == {}
        assert delta.histograms == {}


def _child_main(conn, solves: int) -> None:
    registry = _worker_registry(0, solves)
    conn.send(registry.snapshot().to_dict())
    conn.close()


class TestRealProcessBoundary:
    def test_snapshot_ships_through_a_real_pipe(self):
        multiprocessing = pytest.importorskip("multiprocessing")
        parent, child = multiprocessing.Pipe()
        try:
            process = multiprocessing.Process(
                target=_child_main, args=(child, 6), daemon=True
            )
            process.start()
        except (ImportError, OSError, ValueError) as exc:
            pytest.skip(f"cannot start a worker process: {exc}")
        try:
            assert parent.poll(30)
            payload = parent.recv()
        finally:
            process.join(timeout=30)
            parent.close()
            child.close()
        coordinator = MetricsRegistry()
        coordinator.absorb(payload)
        assert (
            coordinator.snapshot().counter_value(
                "ingest_windows_decoded", gateway="gw0"
            )
            == 6
        )
        hist = coordinator.snapshot().histogram_total("solve_seconds")
        assert hist is not None and hist.total == 6
