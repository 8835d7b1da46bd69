"""Persistent sinks for telemetry snapshots: JSONL ring + Prometheus.

A long-running ``repro-ecg serve`` needs its counters to outlive the
process's stdout: this module provides the two standard shapes —

- :class:`JsonlRingSink` — an append-only JSONL file with a bounded
  record count.  Each appended line is a timestamped *cumulative*
  snapshot; once the file exceeds twice its bound it is compacted to
  the newest ``max_records`` lines (atomic replace), so the file holds
  a sliding history window at a bounded size.

- :func:`render_prometheus` — the text exposition format scraped over
  HTTP (see :mod:`~repro.telemetry.exposition`).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from ..errors import TelemetryError
from .catalog import spec_for
from .core import HistogramSnapshot, MetricsSnapshot

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


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------


def _escape_label(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
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


__all__ = [
    "JsonlRingSink",
    "RING_SCHEMA",
    "HistogramSnapshot",
    "render_prometheus",
]
