"""Persistent sinks for telemetry snapshots: JSONL ring + Prometheus.

A long-running ``repro-ecg serve`` needs its counters to outlive the
process's stdout: this module provides the two standard shapes —

- :class:`JsonlRingSink` — an append-only JSONL file with a bounded
  record count.  Each appended line is a timestamped *cumulative*
  snapshot; once the file exceeds twice its bound it is compacted to
  the newest ``max_records`` lines (atomic replace), so the file holds
  a sliding history window at a bounded size.  :func:`replay_ring`
  restores the newest intact snapshot — a torn final line (the process
  died mid-write) falls back to the previous record instead of
  failing, which is the crash-recovery property a persistent results
  sink owes its operator.

- :func:`render_prometheus` / :func:`parse_prometheus` — the text
  exposition format scraped over HTTP (see
  :mod:`~repro.telemetry.exposition`) and its inverse.  The parser
  exists so tests can assert the scrape round-trips: every counter, gauge and histogram bucket
  published is recovered exactly from the rendered text.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from ..errors import TelemetryError
from .catalog import spec_for
from .core import HistogramSnapshot, MetricsSnapshot, label_key

#: schema version of one ring-file record
RING_SCHEMA = 1


class JsonlRingSink:
    """Bounded JSONL file of timestamped cumulative snapshots."""

    def __init__(self, path: str | os.PathLike, max_records: int = 256) -> None:
        if max_records < 1:
            raise TelemetryError(
                f"max_records must be >= 1, got {max_records}"
            )
        self.path = Path(path)
        self.max_records = max_records
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._count = self._existing_count()

    def _existing_count(self) -> int:
        if not self.path.exists():
            return 0
        with self.path.open("rb") as handle:
            return sum(1 for _ in handle)

    def append(
        self, snapshot: MetricsSnapshot, timestamp: float | None = None
    ) -> None:
        """Persist one snapshot; compacts when the ring overflows."""
        record = {
            "schema": RING_SCHEMA,
            "unix_time": time.time() if timestamp is None else timestamp,
            "snapshot": snapshot.to_dict(),
        }
        with self.path.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
        self._count += 1
        if self._count > 2 * self.max_records:
            self._compact()

    def _compact(self) -> None:
        """Keep the newest ``max_records`` lines (atomic replace)."""
        lines = self.path.read_text(encoding="utf-8").splitlines(True)
        keep = lines[-self.max_records:]
        swap = self.path.with_suffix(self.path.suffix + ".compact")
        swap.write_text("".join(keep), encoding="utf-8")
        os.replace(swap, self.path)
        self._count = len(keep)


def iter_ring_records(path: str | os.PathLike) -> list[dict]:
    """Every intact record of a ring file, oldest first.

    A torn final line (crash mid-append) is skipped silently; a torn
    or malformed line anywhere *else* raises, because that means the
    file is damaged rather than merely truncated.
    """
    path = Path(path)
    records: list[dict] = []
    if not path.exists():
        return records
    lines = path.read_text(encoding="utf-8").splitlines()
    for index, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            if index == len(lines) - 1:
                break  # torn tail from a crash mid-write: recoverable
            raise TelemetryError(
                f"corrupt ring record at line {index + 1} of {path}: {exc}"
            ) from exc
        if record.get("schema") != RING_SCHEMA:
            raise TelemetryError(
                f"unsupported ring schema {record.get('schema')!r} "
                f"in {path} (expected {RING_SCHEMA})"
            )
        records.append(record)
    return records


def replay_ring(path: str | os.PathLike) -> MetricsSnapshot:
    """Restore the newest intact snapshot of a ring file.

    Returns the empty snapshot for a missing or empty file, so a
    restarting server can unconditionally replay its ring.
    """
    records = iter_ring_records(path)
    if not records:
        return MetricsSnapshot.empty()
    return MetricsSnapshot.from_dict(records[-1]["snapshot"])


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------


def _escape_label(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _unescape_label(value: str) -> str:
    return (
        value.replace("\\n", "\n").replace('\\"', '"').replace("\\\\", "\\")
    )


def _format_labels(labels: tuple[tuple[str, str], ...]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{key}="{_escape_label(value)}"' for key, value in labels
    )
    return "{" + inner + "}"


def _format_value(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def render_prometheus(snapshot: MetricsSnapshot) -> str:
    """Render a snapshot in the Prometheus text exposition format.

    Counters and gauges render one sample per labeled series;
    histograms render cumulative ``_bucket{le=...}`` samples plus
    ``_sum`` and ``_count``, exactly as a Prometheus scraper expects.
    Series are sorted, so the output is deterministic.
    """
    lines: list[str] = []
    by_name: dict[str, list[str]] = {}

    def emit(name: str, kind: str, sample_lines: list[str]) -> None:
        if name not in by_name:
            header = []
            spec = spec_for(name)
            if spec is not None:
                header.append(f"# HELP {name} {spec.description}")
            header.append(f"# TYPE {name} {kind}")
            by_name[name] = header
        by_name[name].extend(sample_lines)

    for (name, labels), value in sorted(snapshot.counters.items()):
        emit(
            name,
            "counter",
            [f"{name}{_format_labels(labels)} {_format_value(value)}"],
        )
    for (name, labels), (_, value) in sorted(snapshot.gauges.items()):
        emit(
            name,
            "gauge",
            [f"{name}{_format_labels(labels)} {_format_value(value)}"],
        )
    for (name, labels), hist in sorted(snapshot.histograms.items()):
        samples = []
        cumulative = 0
        for bound, count in zip(hist.bounds, hist.counts):
            cumulative += count
            bucket_labels = labels + (("le", _format_value(bound)),)
            samples.append(
                f"{name}_bucket{_format_labels(bucket_labels)} {cumulative}"
            )
        bucket_labels = labels + (("le", "+Inf"),)
        samples.append(
            f"{name}_bucket{_format_labels(bucket_labels)} {hist.total}"
        )
        samples.append(
            f"{name}_sum{_format_labels(labels)} {repr(hist.sum)}"
        )
        samples.append(f"{name}_count{_format_labels(labels)} {hist.total}")
        emit(name, "histogram", samples)

    for name in sorted(by_name):
        lines.extend(by_name[name])
    return "\n".join(lines) + "\n"


def _parse_labels(text: str) -> tuple[tuple[str, str], ...]:
    if not text:
        return ()
    pairs = []
    rest = text
    while rest:
        key, _, rest = rest.partition('="')
        value_chars: list[str] = []
        index = 0
        while index < len(rest):
            char = rest[index]
            if char == "\\" and index + 1 < len(rest):
                value_chars.append(rest[index:index + 2])
                index += 2
                continue
            if char == '"':
                break
            value_chars.append(char)
            index += 1
        else:
            raise TelemetryError(f"unterminated label value in {text!r}")
        pairs.append((key, _unescape_label("".join(value_chars))))
        rest = rest[index + 1:]
        if rest.startswith(","):
            rest = rest[1:]
    return tuple(pairs)


def parse_prometheus(text: str) -> dict[tuple[str, tuple], float]:
    """Parse exposition text back into ``{(name, labels): value}``.

    Histogram series come back as their constituent samples
    (``name_bucket`` with the ``le`` label, ``name_sum``,
    ``name_count``) — enough for an exact round-trip check against the
    snapshot that was rendered.
    """
    samples: dict[tuple[str, tuple], float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        head, _, value_text = line.rpartition(" ")
        if not head:
            raise TelemetryError(f"malformed exposition line: {line!r}")
        if "{" in head:
            name, _, label_text = head.partition("{")
            if not label_text.endswith("}"):
                raise TelemetryError(f"malformed labels in: {line!r}")
            labels = _parse_labels(label_text[:-1])
        else:
            name, labels = head, ()
        samples[(name, label_key(dict(labels)))] = float(value_text)
    return samples


def exposition_matches_snapshot(
    text: str, snapshot: MetricsSnapshot
) -> bool:
    """Whether scraped text recovers every sample of ``snapshot``.

    The round-trip contract asserted by tests: each counter and gauge value, every histogram's
    cumulative bucket counts, sum and count parse back exactly.
    """
    samples = parse_prometheus(text)
    for (name, labels), value in snapshot.counters.items():
        if samples.get((name, labels)) != float(value):
            return False
    for (name, labels), (_, value) in snapshot.gauges.items():
        if samples.get((name, labels)) != float(value):
            return False
    for (name, labels), hist in snapshot.histograms.items():
        cumulative = 0
        for bound, count in zip(hist.bounds, hist.counts):
            cumulative += count
            key = (
                f"{name}_bucket",
                label_key({**dict(labels), "le": _format_value(bound)}),
            )
            if samples.get(key) != float(cumulative):
                return False
        inf_key = (
            f"{name}_bucket", label_key({**dict(labels), "le": "+Inf"})
        )
        if samples.get(inf_key) != float(hist.total):
            return False
        if samples.get((f"{name}_sum", labels)) != hist.sum:
            return False
        if samples.get((f"{name}_count", labels)) != float(hist.total):
            return False
    return True


__all__ = [
    "JsonlRingSink",
    "RING_SCHEMA",
    "HistogramSnapshot",
    "exposition_matches_snapshot",
    "iter_ring_records",
    "parse_prometheus",
    "render_prometheus",
    "replay_ring",
]
