"""``python3 -m benchmarks.e2e compare A.json B.json``.

Applies each end-to-end metric's bound, per workload, to two result
envelopes (A is the base).  One row per (metric, workload) with both
medians, the ratio B/A, and a verdict:

``same``        B's median is within the bound of A's
``better``      B's median is better than A's by more than the bound
``worse``       B's median is worse than A's by more than the bound
``unresolved``  the repeats of one side spread wider than the bound and
                the two sides' ranges overlap, so the medians cannot
                be told apart at this bound

Exits non-zero if any row is ``worse``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from . import spec


def verdict(metric: spec.Metric, a: dict, b: dict) -> str:
    """Compare two aggregated entries (``median``/``min``/``max``)."""
    scale = 1.0 if metric.absolute else abs(a["median"])
    bound = metric.bound * scale
    sign = 1.0 if metric.better == "lower" else -1.0
    worsening = sign * (b["median"] - a["median"])
    spread = max(a["max"] - a["min"], b["max"] - b["min"])
    overlap = a["min"] <= b["max"] and b["min"] <= a["max"]
    if spread > bound and overlap:
        return "unresolved"
    if worsening > bound:
        return "worse"
    if worsening < -bound:
        return "better"
    return "same"


def compare(base: dict, other: dict) -> list[tuple[str, str, float, float, str]]:
    """Rows ``(metric, workload, median A, median B, verdict)``."""
    rows = []
    for metric in spec.END_TO_END:
        for workload in metric.workloads:
            try:
                a = base["workloads"][workload]["end_to_end"][metric.name]
                b = other["workloads"][workload]["end_to_end"][metric.name]
            except KeyError:
                continue  # a workload one side did not run
            rows.append(
                (metric.name, workload, a["median"], b["median"], verdict(metric, a, b))
            )
    return rows


def main(paths: list[str]) -> int:
    if len(paths) != 2:
        print("usage: python3 -m benchmarks.e2e compare A.json B.json", file=sys.stderr)
        return 2
    base, other = (json.loads(Path(path).read_text()) for path in paths)
    if base["fingerprint"]["id"] != other["fingerprint"]["id"]:
        print(
            f"note: machine fingerprints differ ({base['fingerprint']['id']} "
            f"vs {other['fingerprint']['id']}): timings are not comparable"
        )
    for key in ("seed", "shrink", "repeats"):
        if base[key] != other[key]:
            print(f"note: {key} differs ({base[key]} vs {other[key]})")
    rows = compare(base, other)
    print(
        f"{'metric':<24}{'workload':<15}{'A (base)':>14}{'B':>14}"
        f"{'B/A':>9}  verdict"
    )
    for name, workload, a, b, outcome in rows:
        ratio = f"{b / a:.4f}" if a else "-"
        print(f"{name:<24}{workload:<15}{a:>14.4f}{b:>14.4f}{ratio:>9}  {outcome}")
    worse = sum(1 for row in rows if row[-1] == "worse")
    unresolved = sum(1 for row in rows if row[-1] == "unresolved")
    print(f"{len(rows)} rows: {worse} worse, {unresolved} unresolved")
    return 1 if worse else 0
