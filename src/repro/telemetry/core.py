"""Process-wide metrics core: counters, gauges, histograms, snapshots.

The serving stack (the ingest gateway, its recovery layer, the solve
engine and the federation front door) publishes into one
:class:`MetricsRegistry` of three primitive instrument kinds, so a fact
has one vocabulary, survives in the persistent sinks and aggregates
across the process-pool workers a sharded decode spans:

- counters (:meth:`MetricsRegistry.inc`) — monotonically increasing
  totals (windows decoded, frames dropped, flushes per reason);
- gauges (:meth:`MetricsRegistry.set_gauge`) — last-written level
  signals (queue depth, live gateway count), carrying an update
  *version* so merges are order-independent;
- histograms (:meth:`MetricsRegistry.observe`) — fixed-bucket
  latency/size distributions with percentile queries that survive
  merging exactly (bucket counts add; see :class:`HistogramSnapshot`).

Every instrument is labeled (``stream="100:0"``, ``group="g0"``,
``worker="1234"``), so one metric name covers a fleet of series and a
reconnecting stream lands back in *its own* series instead of forking
a new one.  A series holds a fact that no other series or result
holds.

Snapshots are the unit of transport: :meth:`MetricsRegistry.snapshot`
captures the registry as an immutable :class:`MetricsSnapshot` which
can be merged (associatively and commutatively — the algebra
process-pool fan-in needs), serialized to plain dicts for the JSONL
ring sink or a pickle boundary, and queried.  A worker records into
its own throwaway registry and ships the snapshot home; the parent
:meth:`~MetricsRegistry.absorb`\\ s it, so cross-process aggregation is
one merge per completed task with no shared memory.
"""

from __future__ import annotations

import bisect
import math
import threading
from dataclasses import dataclass, field

from ..errors import TelemetryError

#: default histogram upper bounds (seconds): log-ish spacing from 1 ms
#: to 30 s, sized for decode/solve latencies against the paper's
#: 2-second real-time budget.  The last implicit bucket is +inf.
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 5.0, 10.0, 30.0,
)

#: default bounds for small-count distributions (batch widths, queue
#: depths): powers of two up to 1024.
DEFAULT_SIZE_BUCKETS: tuple[float, ...] = (
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024,
)

LabelKey = tuple[tuple[str, str], ...]
MetricKey = tuple[str, LabelKey]


def label_key(labels: dict[str, object]) -> LabelKey:
    """Canonical (sorted, stringified) form of a label mapping."""
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


@dataclass(frozen=True, eq=False)
class HistogramSnapshot:
    """Immutable view of one histogram series.

    ``counts`` has ``len(bounds) + 1`` entries: one per upper bound
    plus the overflow bucket.  Merging adds counts bucket-wise, which
    is why percentile queries are *exact* under merge: the merged
    snapshot is indistinguishable from a histogram that observed the
    concatenated samples.  The running ``sum`` is the one field float
    addition cannot make order-independent, so equality treats it to
    within rounding (everything percentiles are computed from —
    counts, total, min, max — compares exactly).
    """

    bounds: tuple[float, ...]
    counts: tuple[int, ...]
    total: int = 0
    sum: float = 0.0
    min: float | None = None
    max: float | None = None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HistogramSnapshot):
            return NotImplemented
        return (
            self.bounds == other.bounds
            and self.counts == other.counts
            and self.total == other.total
            and self.min == other.min
            and self.max == other.max
            and math.isclose(
                self.sum, other.sum, rel_tol=1e-9, abs_tol=1e-12
            )
        )

    def __hash__(self) -> int:
        return hash((self.bounds, self.counts, self.total))

    def merge(self, other: "HistogramSnapshot") -> "HistogramSnapshot":
        """Bucket-wise combination of two series of the same shape."""
        if self.bounds != other.bounds:
            raise TelemetryError(
                f"cannot merge histograms with different buckets: "
                f"{self.bounds} vs {other.bounds}"
            )
        lows = [v for v in (self.min, other.min) if v is not None]
        highs = [v for v in (self.max, other.max) if v is not None]
        return HistogramSnapshot(
            bounds=self.bounds,
            counts=tuple(
                a + b for a, b in zip(self.counts, other.counts)
            ),
            total=self.total + other.total,
            sum=self.sum + other.sum,
            min=min(lows) if lows else None,
            max=max(highs) if highs else None,
        )

    @property
    def mean(self) -> float | None:
        """Arithmetic mean of the observed values (None when empty)."""
        return self.sum / self.total if self.total else None

    def percentile(self, q: float) -> float | None:
        """Approximate q-th percentile (``q`` in [0, 100]).

        Linear interpolation inside the containing bucket, clamped to
        the observed ``min``/``max`` so a single-sample histogram
        reports that sample, not a bucket midpoint.  ``None`` when
        nothing was observed.  Deterministic in the bucket counts, so
        the answer is identical whether samples were observed by one
        registry or merged from many.
        """
        if not 0.0 <= q <= 100.0:
            raise TelemetryError(f"percentile q must be in [0, 100], got {q}")
        if self.total == 0:
            return None
        rank = q / 100.0 * self.total
        cumulative = 0
        for index, count in enumerate(self.counts):
            if count == 0:
                continue
            lower = self.bounds[index - 1] if index > 0 else 0.0
            upper = (
                self.bounds[index]
                if index < len(self.bounds)
                else (self.max if self.max is not None else lower)
            )
            if cumulative + count >= rank:
                inside = max(rank - cumulative, 0.0) / count
                value = lower + (upper - lower) * inside
                break
            cumulative += count
        else:  # pragma: no cover - rank <= total always lands above
            value = self.max if self.max is not None else 0.0
        if self.min is not None:
            value = max(value, self.min)
        if self.max is not None:
            value = min(value, self.max)
        return value

    def to_dict(self) -> dict:
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "total": self.total,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "HistogramSnapshot":
        try:
            return cls(
                bounds=tuple(float(b) for b in data["bounds"]),
                counts=tuple(int(c) for c in data["counts"]),
                total=int(data["total"]),
                sum=float(data["sum"]),
                min=None if data.get("min") is None else float(data["min"]),
                max=None if data.get("max") is None else float(data["max"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise TelemetryError(f"malformed histogram record: {exc}") from exc


class _Histogram:
    """Mutable histogram series inside a registry."""

    __slots__ = ("bounds", "counts", "total", "sum", "min", "max")

    def __init__(self, bounds: tuple[float, ...]) -> None:
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise TelemetryError(
                f"histogram bounds must be strictly increasing: {bounds}"
            )
        if not bounds:
            raise TelemetryError("histogram needs at least one bound")
        self.bounds = tuple(float(b) for b in bounds)
        self.counts = [0] * (len(bounds) + 1)
        self.total = 0
        self.sum = 0.0
        self.min: float | None = None
        self.max: float | None = None

    def observe(self, value: float) -> None:
        value = float(value)
        if math.isnan(value):
            raise TelemetryError("cannot observe NaN")
        self.counts[bisect.bisect_left(self.bounds, value)] += 1
        self.total += 1
        self.sum += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    def snapshot(self) -> HistogramSnapshot:
        return HistogramSnapshot(
            bounds=self.bounds,
            counts=tuple(self.counts),
            total=self.total,
            sum=self.sum,
            min=self.min,
            max=self.max,
        )

    def absorb(self, snap: HistogramSnapshot) -> None:
        if snap.bounds != self.bounds:
            raise TelemetryError(
                f"cannot absorb histogram with different buckets: "
                f"{snap.bounds} vs {self.bounds}"
            )
        for index, count in enumerate(snap.counts):
            self.counts[index] += count
        self.total += snap.total
        self.sum += snap.sum
        if snap.min is not None:
            self.min = snap.min if self.min is None else min(self.min, snap.min)
        if snap.max is not None:
            self.max = snap.max if self.max is None else max(self.max, snap.max)


def _merge_gauge(
    a: tuple[int, float], b: tuple[int, float]
) -> tuple[int, float]:
    """Order-independent gauge combination.

    Gauges are last-write-wins; "last" across processes is decided by
    the per-series update version, ties by value.  ``max`` over the
    (version, value) pair is associative and commutative, which is
    what keeps snapshot merging order-independent.
    """
    return max(a, b)


@dataclass(frozen=True)
class MetricsSnapshot:
    """Immutable, mergeable, serializable capture of a registry.

    The merge algebra is a commutative monoid: ``empty()`` is the
    identity, counters add, gauges combine by update version and
    histograms add bucket-wise — so any merge tree over worker
    snapshots yields the same aggregate, whatever the completion
    order of the workers.
    """

    counters: dict[MetricKey, float] = field(default_factory=dict)
    gauges: dict[MetricKey, tuple[int, float]] = field(default_factory=dict)
    histograms: dict[MetricKey, HistogramSnapshot] = field(
        default_factory=dict
    )

    @classmethod
    def empty(cls) -> "MetricsSnapshot":
        """The merge identity."""
        return cls()

    def merge(self, other: "MetricsSnapshot") -> "MetricsSnapshot":
        counters = dict(self.counters)
        for key, value in other.counters.items():
            counters[key] = counters.get(key, 0.0) + value
        gauges = dict(self.gauges)
        for key, pair in other.gauges.items():
            gauges[key] = (
                _merge_gauge(gauges[key], pair) if key in gauges else pair
            )
        histograms = dict(self.histograms)
        for key, snap in other.histograms.items():
            histograms[key] = (
                histograms[key].merge(snap) if key in histograms else snap
            )
        return MetricsSnapshot(
            counters=counters, gauges=gauges, histograms=histograms
        )

    def delta_since(self, previous: "MetricsSnapshot") -> "MetricsSnapshot":
        """The increment between ``previous`` and this snapshot.

        :meth:`MetricsRegistry.absorb` requires *deltas*: absorbing the
        same cumulative capture twice double-counts.  A long-lived
        worker that ships stats periodically therefore keeps the last
        snapshot it shipped and sends ``current.delta_since(shipped)``
        — the federation control-pipe roll-up does exactly this.

        Counters and histogram buckets subtract exactly (``previous``
        must be an earlier capture of the *same* registry, so every
        count is >= its predecessor).  Gauges pass through at their
        current ``(version, value)`` pair: the version-max merge makes
        re-absorbing a repeated gauge reading idempotent, so no
        subtraction is needed.  Histogram ``min``/``max`` also pass
        through current values — both are monotone over a registry's
        lifetime, so the coordinator's running extrema stay exact.
        Series with no change since ``previous`` are omitted.
        """
        counters: dict[MetricKey, float] = {}
        for key, value in self.counters.items():
            change = value - previous.counters.get(key, 0.0)
            if change < 0:
                raise TelemetryError(
                    f"counter {key[0]} went backwards "
                    f"({previous.counters[key]} -> {value}); delta_since "
                    "needs an earlier snapshot of the same registry"
                )
            if change > 0:
                counters[key] = change
        gauges = {
            key: pair
            for key, pair in self.gauges.items()
            if previous.gauges.get(key) != pair
        }
        histograms: dict[MetricKey, HistogramSnapshot] = {}
        for key, snap in self.histograms.items():
            prior = previous.histograms.get(key)
            if prior is None:
                if snap.total:
                    histograms[key] = snap
                continue
            if prior.bounds != snap.bounds or prior.total > snap.total:
                raise TelemetryError(
                    f"histogram {key[0]} shrank or changed buckets; "
                    "delta_since needs an earlier snapshot of the "
                    "same registry"
                )
            if prior.total == snap.total:
                continue
            histograms[key] = HistogramSnapshot(
                bounds=snap.bounds,
                counts=tuple(
                    now - before
                    for now, before in zip(snap.counts, prior.counts)
                ),
                total=snap.total - prior.total,
                sum=snap.sum - prior.sum,
                min=snap.min,
                max=snap.max,
            )
        return MetricsSnapshot(
            counters=counters, gauges=gauges, histograms=histograms
        )

    # -- queries -------------------------------------------------------
    def counter_value(self, name: str, **labels: object) -> float:
        """One labeled counter series (0.0 when never incremented)."""
        return self.counters.get((name, label_key(labels)), 0.0)

    def counter_total(self, name: str) -> float:
        """Sum of every series of a counter across all label sets."""
        return sum(
            value for (metric, _), value in self.counters.items()
            if metric == name
        )

    def label_values(self, name: str, label: str) -> set[str]:
        """Distinct values one label takes across a metric's series."""
        found: set[str] = set()
        for metric, labels in (
            *self.counters, *self.gauges, *self.histograms
        ):
            if metric == name:
                for key, value in labels:
                    if key == label:
                        found.add(value)
        return found

    def histogram_total(self, name: str) -> HistogramSnapshot | None:
        """Merge of every series of one histogram metric."""
        merged: HistogramSnapshot | None = None
        for (metric, _), snap in self.histograms.items():
            if metric == name:
                merged = snap if merged is None else merged.merge(snap)
        return merged

    # -- serialization -------------------------------------------------
    def to_dict(self) -> dict:
        """Plain-dict form (JSON- and pickle-friendly)."""
        def encode(key: MetricKey) -> dict:
            return {"name": key[0], "labels": dict(key[1])}

        return {
            "counters": [
                {**encode(key), "value": value}
                for key, value in sorted(self.counters.items())
            ],
            "gauges": [
                {**encode(key), "version": pair[0], "value": pair[1]}
                for key, pair in sorted(self.gauges.items())
            ],
            "histograms": [
                {**encode(key), **snap.to_dict()}
                for key, snap in sorted(self.histograms.items())
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MetricsSnapshot":
        try:
            counters = {
                (entry["name"], label_key(entry["labels"])): float(
                    entry["value"]
                )
                for entry in data.get("counters", ())
            }
            gauges = {
                (entry["name"], label_key(entry["labels"])): (
                    int(entry["version"]),
                    float(entry["value"]),
                )
                for entry in data.get("gauges", ())
            }
            histograms = {
                (
                    entry["name"],
                    label_key(entry["labels"]),
                ): HistogramSnapshot.from_dict(entry)
                for entry in data.get("histograms", ())
            }
        except (KeyError, TypeError, AttributeError) as exc:
            raise TelemetryError(f"malformed snapshot record: {exc}") from exc
        return cls(counters=counters, gauges=gauges, histograms=histograms)


class MetricsRegistry:
    """The live, thread-safe home of every metric in one process.

    One registry serves a whole process (the gateway's event loop and
    the solve threads it dispatches): a single lock
    guards the three instrument maps, which is plenty at the event
    rates involved (per flush / per window, not per FISTA iteration).
    Worker processes use private registries and ship snapshots back —
    see :meth:`absorb`.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[MetricKey, float] = {}
        self._gauges: dict[MetricKey, tuple[int, float]] = {}
        self._histograms: dict[MetricKey, _Histogram] = {}

    # -- instruments ---------------------------------------------------
    def inc(self, name: str, amount: float = 1.0, **labels: object) -> None:
        """Add ``amount`` to a labeled counter series."""
        if amount < 0:
            raise TelemetryError(
                f"counters are monotonic; cannot add {amount} to {name}"
            )
        key = (name, label_key(labels))
        with self._lock:
            self._counters[key] = self._counters.get(key, 0.0) + amount

    def set_gauge(self, name: str, value: float, **labels: object) -> None:
        """Set a labeled gauge series to ``value``."""
        key = (name, label_key(labels))
        with self._lock:
            version = self._gauges.get(key, (0, 0.0))[0] + 1
            self._gauges[key] = (version, float(value))

    def observe(
        self,
        name: str,
        value: float,
        buckets: tuple[float, ...] | None = None,
        **labels: object,
    ) -> None:
        """Record one observation into a labeled histogram series.

        ``buckets`` fixes the bounds on first use; later calls must
        agree (or omit them).
        """
        key = (name, label_key(labels))
        with self._lock:
            histogram = self._histograms.get(key)
            if histogram is None:
                histogram = _Histogram(
                    buckets if buckets is not None else DEFAULT_LATENCY_BUCKETS
                )
                self._histograms[key] = histogram
            elif buckets is not None and tuple(buckets) != histogram.bounds:
                raise TelemetryError(
                    f"histogram {name} already registered with buckets "
                    f"{histogram.bounds}, got {tuple(buckets)}"
                )
            histogram.observe(value)

    # -- aggregation ---------------------------------------------------
    def snapshot(self) -> MetricsSnapshot:
        """Immutable capture of everything recorded so far."""
        with self._lock:
            return MetricsSnapshot(
                counters=dict(self._counters),
                gauges=dict(self._gauges),
                histograms={
                    key: histogram.snapshot()
                    for key, histogram in self._histograms.items()
                },
            )

    def absorb(self, snapshot: MetricsSnapshot | dict) -> None:
        """Merge a (worker's) snapshot into the live registry.

        The snapshot must be a *delta* — the metrics of one unit of
        work, recorded into a registry created for that unit — not a
        cumulative capture, or repeated absorption double-counts.
        :func:`~repro.fleet.engine.solve_measurement_block` follows
        this contract: every call records into a fresh registry and
        returns its snapshot.
        """
        if isinstance(snapshot, dict):
            snapshot = MetricsSnapshot.from_dict(snapshot)
        with self._lock:
            for key, value in snapshot.counters.items():
                self._counters[key] = self._counters.get(key, 0.0) + value
            for key, pair in snapshot.gauges.items():
                if key in self._gauges:
                    self._gauges[key] = _merge_gauge(self._gauges[key], pair)
                else:
                    self._gauges[key] = pair
            for key, snap in snapshot.histograms.items():
                histogram = self._histograms.get(key)
                if histogram is None:
                    histogram = _Histogram(snap.bounds)
                    self._histograms[key] = histogram
                histogram.absorb(snap)

    # -- convenience read (the same query as the snapshot's) ---------
    def counter_total(self, name: str) -> float:
        with self._lock:
            return sum(
                value for (metric, _), value in self._counters.items()
                if metric == name
            )

    def meter(self, **labels: object) -> "Meter":
        """A :class:`Meter` binding this registry to static labels."""
        return Meter(self, dict(labels))


class Meter:
    """A registry handle with static labels baked in.

    Instrumented code holds a meter instead of a (registry, labels)
    pair, and the null meter (:data:`NULL_METER`) lets call sites emit
    unconditionally — a component constructed without telemetry simply
    meters into the void instead of branching at every event.
    """

    __slots__ = ("registry", "labels")

    def __init__(
        self, registry: MetricsRegistry | None, labels: dict | None = None
    ) -> None:
        self.registry = registry
        self.labels = dict(labels or {})

    def inc(self, name: str, amount: float = 1.0, **labels: object) -> None:
        if self.registry is not None:
            self.registry.inc(name, amount, **{**self.labels, **labels})

    def set_gauge(self, name: str, value: float, **labels: object) -> None:
        if self.registry is not None:
            self.registry.set_gauge(name, value, **{**self.labels, **labels})

    def observe(
        self,
        name: str,
        value: float,
        buckets: tuple[float, ...] | None = None,
        **labels: object,
    ) -> None:
        if self.registry is not None:
            self.registry.observe(
                name, value, buckets=buckets, **{**self.labels, **labels}
            )


#: the do-nothing meter: safe default for instrumented components
NULL_METER = Meter(None)
