"""Human-facing views of telemetry.

:func:`snapshot_rows` / :func:`render_snapshot_table` render *any*
:class:`~repro.telemetry.core.MetricsSnapshot` as a table through the
one table renderer, :func:`~repro.experiments.reporting.render_table`,
so every telemetry-backed surface gets a uniform printout.
"""

from __future__ import annotations

from ..experiments.reporting import render_table
from .core import MetricsSnapshot


def snapshot_rows(
    snapshot: MetricsSnapshot, prefix: str | None = None
) -> list[dict[str, object]]:
    """Flatten a snapshot into printable metric rows.

    Counters and gauges render their value; histograms render count,
    p50/p95 and max.  ``prefix`` filters by metric-name prefix so a
    surface can print just its own plane slice.
    """
    def keep(name: str) -> bool:
        return prefix is None or name.startswith(prefix)

    def label_text(labels: tuple[tuple[str, str], ...]) -> str:
        return ",".join(f"{k}={v}" for k, v in labels) if labels else "-"

    rows: list[dict[str, object]] = []
    for (name, labels), value in sorted(snapshot.counters.items()):
        if keep(name):
            rows.append(
                {
                    "metric": name,
                    "labels": label_text(labels),
                    "kind": "counter",
                    "value": value,
                    "p50": None,
                    "p95": None,
                    "max": None,
                }
            )
    for (name, labels), (_, value) in sorted(snapshot.gauges.items()):
        if keep(name):
            rows.append(
                {
                    "metric": name,
                    "labels": label_text(labels),
                    "kind": "gauge",
                    "value": value,
                    "p50": None,
                    "p95": None,
                    "max": None,
                }
            )
    for (name, labels), hist in sorted(snapshot.histograms.items()):
        if keep(name):
            rows.append(
                {
                    "metric": name,
                    "labels": label_text(labels),
                    "kind": "histogram",
                    "value": hist.total,
                    "p50": hist.percentile(50),
                    "p95": hist.percentile(95),
                    "max": hist.max,
                }
            )
    return rows


def render_snapshot_table(
    snapshot: MetricsSnapshot,
    title: str | None = None,
    prefix: str | None = None,
    precision: int = 4,
) -> str:
    """One aligned table of every (filtered) series in a snapshot."""
    rows = snapshot_rows(snapshot, prefix=prefix)
    if not rows:
        return (title + "\n" if title else "") + "(no telemetry recorded)"
    return render_table(rows, title=title, precision=precision)


__all__ = [
    "render_snapshot_table",
    "snapshot_rows",
]
