"""Test-side readers of what the telemetry sinks write, and of single
series the program itself never looks up one by one.

The serving stack only writes its two formats: the JSONL ring of
:class:`~repro.telemetry.JsonlRingSink` and the Prometheus text of
:func:`~repro.telemetry.render_prometheus`.  The tests read them back
here to check that every published sample survives the trip.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.telemetry import MetricsSnapshot
from repro.telemetry.core import label_key
from repro.telemetry.sinks import _format_value


def ring_records(path) -> list[dict]:
    """Every record of a ring file, oldest first."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    return [json.loads(line) for line in lines if line.strip()]


def last_ring_snapshot(path) -> MetricsSnapshot:
    """The newest snapshot a ring file holds."""
    return MetricsSnapshot.from_dict(ring_records(path)[-1]["snapshot"])


def _parse_labels(text: str) -> tuple[tuple[str, str], ...]:
    pairs = []
    rest = text
    while rest:
        key, _, rest = rest.partition('="')
        value, index = [], 0
        while rest[index] != '"':
            step = 2 if rest[index] == "\\" else 1
            value.append(rest[index:index + step])
            index += step
        unescaped = (
            "".join(value)
            .replace("\\n", "\n")
            .replace('\\"', '"')
            .replace("\\\\", "\\")
        )
        pairs.append((key, unescaped))
        rest = rest[index + 1:].removeprefix(",")
    return tuple(pairs)


def parse_prometheus(text: str) -> dict[tuple[str, tuple], float]:
    """Exposition text as ``{(name, labels): value}``; a histogram comes
    back as its ``_bucket``/``_sum``/``_count`` samples."""
    samples = {}
    for line in text.splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        head, _, value_text = line.rpartition(" ")
        name, _, label_text = head.partition("{")
        labels = _parse_labels(label_text.removesuffix("}"))
        samples[(name, label_key(dict(labels)))] = float(value_text)
    return samples


def exposition_matches_snapshot(text: str, snapshot: MetricsSnapshot) -> bool:
    """Whether exposition text recovers every sample of ``snapshot``:
    each counter and gauge value, every histogram's cumulative bucket
    counts, its sum and its count."""
    samples = parse_prometheus(text)
    expected = {key: float(value) for key, value in snapshot.counters.items()}
    for key, (_, value) in snapshot.gauges.items():
        expected[key] = float(value)
    for (name, labels), hist in snapshot.histograms.items():
        cumulative = 0
        for bound, count in zip(hist.bounds, hist.counts):
            cumulative += count
            le = label_key({**dict(labels), "le": _format_value(bound)})
            expected[(f"{name}_bucket", le)] = float(cumulative)
        le = label_key({**dict(labels), "le": "+Inf"})
        expected[(f"{name}_bucket", le)] = float(hist.total)
        expected[(f"{name}_sum", labels)] = hist.sum
        expected[(f"{name}_count", labels)] = float(hist.total)
    return all(samples.get(key) == value for key, value in expected.items())


def gauge_value(snapshot: MetricsSnapshot, name: str, **labels) -> float | None:
    """One labeled gauge series of a snapshot (``None`` when never set)."""
    pair = snapshot.gauges.get((name, label_key(labels)))
    return None if pair is None else pair[1]


def histogram(snapshot: MetricsSnapshot, name: str, **labels):
    """One labeled histogram series of a snapshot (``None`` when never
    observed)."""
    return snapshot.histograms.get((name, label_key(labels)))


def fate_count(link, fate: str) -> float:
    """Frames of one fate a lossy link metered into its registry
    (``link_frames``)."""
    return link.meter.registry.snapshot().counter_value(
        "link_frames", fate=fate, **link.meter.labels
    )
