"""Telemetry core: instruments, labels, and the snapshot merge algebra."""

from __future__ import annotations

import pickle
import random

import pytest

from telemetry_oracle import gauge_value

from repro.errors import TelemetryError
from repro.telemetry import (
    DEFAULT_SIZE_BUCKETS,
    NULL_METER,
    Meter,
    MetricsRegistry,
    MetricsSnapshot,
)


class TestInstruments:
    def test_counter_accumulates_per_label_set(self):
        registry = MetricsRegistry()
        registry.inc("windows", stream="100:0")
        registry.inc("windows", 2, stream="100:0")
        registry.inc("windows", stream="119:0")
        snap = registry.snapshot()
        assert snap.counter_value("windows", stream="100:0") == 3
        assert snap.counter_value("windows", stream="119:0") == 1
        assert snap.counter_total("windows") == 4
        assert snap.counter_value("windows", stream="nope") == 0.0

    def test_counter_rejects_negative_increment(self):
        registry = MetricsRegistry()
        with pytest.raises(TelemetryError):
            registry.inc("windows", -1)

    def test_label_order_is_canonical(self):
        registry = MetricsRegistry()
        registry.inc("x", stream="a", group="g0")
        registry.inc("x", group="g0", stream="a")
        assert registry.snapshot().counter_value(
            "x", stream="a", group="g0"
        ) == 2

    def test_gauge_keeps_latest_value(self):
        registry = MetricsRegistry()
        registry.set_gauge("depth", 4)
        registry.set_gauge("depth", 2)
        assert gauge_value(registry.snapshot(), "depth") == 2
        assert gauge_value(registry.snapshot(), "missing") is None

    def test_histogram_percentiles_and_extremes(self):
        registry = MetricsRegistry()
        for value in (0.002, 0.004, 0.03, 0.4, 1.2):
            registry.observe("latency", value)
        hist = registry.snapshot().histogram("latency")
        assert hist.total == 5
        assert hist.min == pytest.approx(0.002)
        assert hist.max == pytest.approx(1.2)
        assert hist.mean == pytest.approx(sum((0.002, 0.004, 0.03, 0.4, 1.2)) / 5)
        p50 = hist.percentile(50)
        assert 0.0025 <= p50 <= 0.05
        # percentiles clamp to observed extremes
        assert hist.percentile(0) == pytest.approx(0.002)
        assert hist.percentile(100) == pytest.approx(1.2)

    def test_histogram_bucket_mismatch_rejected(self):
        registry = MetricsRegistry()
        registry.observe("widths", 4, buckets=DEFAULT_SIZE_BUCKETS)
        with pytest.raises(TelemetryError):
            registry.observe("widths", 4, buckets=(1.0, 2.0))

    def test_empty_histogram_queries(self):
        registry = MetricsRegistry()
        registry.observe("latency", 0.1)
        hist = registry.snapshot().histogram("latency")
        assert hist.percentile(50) == pytest.approx(0.1)
        assert registry.snapshot().histogram("missing") is None
        assert registry.snapshot().histogram_total("missing") is None

    def test_meter_binds_static_labels(self):
        registry = MetricsRegistry()
        meter = registry.meter(stream="100:0")
        meter.inc("windows")
        meter.child(group="g0").inc("windows")
        snap = registry.snapshot()
        assert snap.counter_value("windows", stream="100:0") == 1
        assert snap.counter_value("windows", stream="100:0", group="g0") == 1
        assert meter.active

    def test_null_meter_is_inert(self):
        NULL_METER.inc("anything")
        NULL_METER.set_gauge("anything", 1)
        NULL_METER.observe("anything", 1.0)
        assert not NULL_METER.active
        assert not Meter(None, {"a": "b"}).active


def _random_snapshot(rng: random.Random) -> MetricsSnapshot:
    """One worker's delta: a private registry with random activity."""
    registry = MetricsRegistry()
    for _ in range(rng.randrange(1, 12)):
        registry.inc(
            rng.choice(("windows", "flushes", "drops")),
            rng.randrange(1, 5),
            stream=rng.choice(("a", "b", "c")),
        )
    for _ in range(rng.randrange(0, 4)):
        registry.set_gauge("depth", rng.randrange(0, 50))
    for _ in range(rng.randrange(1, 20)):
        registry.observe("latency", rng.random() * 3.0)
    return registry.snapshot()


class TestSnapshotMergeAlgebra:
    """The cross-process contract: order-independent, exact fan-in."""

    def test_empty_merge_is_identity(self):
        rng = random.Random(7)
        snap = _random_snapshot(rng)
        empty = MetricsSnapshot.empty()
        assert empty.merge(snap) == snap
        assert snap.merge(empty) == snap
        assert empty.merge(empty) == MetricsSnapshot.empty()

    def test_merge_is_associative_and_commutative(self):
        rng = random.Random(2011)
        parts = [_random_snapshot(rng) for _ in range(4)]
        a, b, c, d = parts
        left = a.merge(b).merge(c).merge(d)
        right = a.merge(b.merge(c.merge(d)))
        shuffled = d.merge(b).merge(a).merge(c)
        assert left == right == shuffled

    def test_histogram_percentiles_survive_merge_exactly(self):
        """percentile(merge(h(A), h(B))) == percentile(h(A + B))."""
        rng = random.Random(5)
        samples_a = [rng.random() * 2.5 for _ in range(40)]
        samples_b = [rng.random() * 0.05 for _ in range(25)]
        reg_a, reg_b, reg_all = (
            MetricsRegistry(), MetricsRegistry(), MetricsRegistry()
        )
        for value in samples_a:
            reg_a.observe("latency", value)
            reg_all.observe("latency", value)
        for value in samples_b:
            reg_b.observe("latency", value)
            reg_all.observe("latency", value)
        merged = reg_a.snapshot().merge(reg_b.snapshot())
        direct = reg_all.snapshot()
        assert merged.histogram("latency") == direct.histogram("latency")
        for q in (0, 10, 50, 90, 95, 99, 100):
            assert merged.histogram("latency").percentile(q) == pytest.approx(
                direct.histogram("latency").percentile(q), abs=0.0
            )

    def test_mismatched_histogram_buckets_refuse_to_merge(self):
        reg_a, reg_b = MetricsRegistry(), MetricsRegistry()
        reg_a.observe("x", 1.0, buckets=(1.0, 2.0))
        reg_b.observe("x", 1.0, buckets=(1.0, 3.0))
        with pytest.raises(TelemetryError):
            reg_a.snapshot().merge(reg_b.snapshot())

    def test_gauge_merge_is_order_independent(self):
        # the higher update version wins regardless of merge order
        reg_a, reg_b = MetricsRegistry(), MetricsRegistry()
        reg_a.set_gauge("depth", 10)  # version 1
        reg_b.set_gauge("depth", 3)   # version 1
        reg_b.set_gauge("depth", 7)   # version 2 -> wins
        a, b = reg_a.snapshot(), reg_b.snapshot()
        assert gauge_value(a.merge(b), "depth") == 7
        assert gauge_value(b.merge(a), "depth") == 7

    def test_absorb_matches_functional_merge(self):
        rng = random.Random(13)
        deltas = [_random_snapshot(rng) for _ in range(3)]
        registry = MetricsRegistry()
        registry.inc("windows", 5, stream="a")
        functional = registry.snapshot()
        for delta in deltas:
            functional = functional.merge(delta)
        for delta in reversed(deltas):  # absorption order must not matter
            registry.absorb(delta)
        assert registry.snapshot() == functional

    def test_snapshot_round_trips_through_dict_and_pickle(self):
        snap = _random_snapshot(random.Random(99))
        assert MetricsSnapshot.from_dict(snap.to_dict()) == snap
        assert pickle.loads(pickle.dumps(snap)) == snap
        # the dict form is what crosses the process-pool boundary
        registry = MetricsRegistry()
        registry.absorb(snap.to_dict())
        assert registry.snapshot() == snap

    def test_label_values_enumerates_series(self):
        registry = MetricsRegistry()
        registry.inc("sessions", stream="100:0")
        registry.inc("sessions", stream="100:0")
        registry.inc("sessions", stream="119:1")
        snap = registry.snapshot()
        assert snap.label_values("sessions", "stream") == {"100:0", "119:1"}
        assert snap.label_values("sessions", "absent") == set()
