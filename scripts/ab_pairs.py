#!/usr/bin/env python3
"""Alternating parent/change pairs of one ``benchmarks.e2e`` workload.

    scripts/ab_pairs.py PARENT_DIR CHANGE_DIR --workload W --seed N [--pairs 10]

Runs ``python3 -m benchmarks.e2e --workload W --seed N --seconds S
--trace 0`` (``S`` = ``run_seconds`` of the change's ``BENCHMARK.json``)
once in each checkout per pair, alternating which side goes first, and
prints every run, then per end-to-end metric each side's median and
quartiles, how many pairs the change won, and a verdict (see
:func:`verdict`) — the protocol a gain is claimed under: at least nine
tenths of the pairs won (ties count for neither side) and medians
further apart than the parent's own interquartile spread.  Stdlib
only; each checkout measures itself with its own copy of the
benchmark.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One contract-mode invocation; its last stdout line is the result."""
    done = subprocess.run(
        [
            sys.executable, "-m", "benchmarks.e2e",
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0",
        ],
        cwd=checkout,
        capture_output=True,
        text=True,
    )
    if done.returncode != 0:
        raise SystemExit(
            f"{checkout}: benchmark exited {done.returncode}\n{done.stderr}"
        )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{checkout}: incorrect or failed run: {result}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def verdict(
    parent: list[float], change: list[float], better: str, bound: float
) -> str:
    """Judge one metric over paired runs (``parent[i]`` with ``change[i]``).

    ``gain``: the change wins at least ⌈0.9 × pairs⌉ pairs and its
    median beats the parent's by more than the parent's interquartile
    range.  ``worse``: its median is worse than the parent's by more
    than ``bound`` (relative, as in ``BENCHMARK.json``).
    ``unresolved``: the parent's own interquartile range is wider than
    that bound, so the runs cannot tell.  ``within bound`` otherwise.
    """
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    p1, p_median, p3 = quartiles(parent)
    _, c_median, _ = quartiles(change)
    gain = sign * (c_median - p_median)
    allowed = bound * abs(p_median)
    if wins >= math.ceil(0.9 * len(parent)) and gain > p3 - p1:
        return "gain"
    if -gain > allowed:
        return "worse"
    if p3 - p1 > allowed:
        return "unresolved"
    return "within bound"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args()

    declared = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = declared["run_seconds"]
    better = {m["name"]: m["better"] for m in declared["end_to_end"]}
    bound = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    sides = {"parent": args.parent, "change": args.change}
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            metrics = run_once(sides[side], args.workload, args.seed, seconds)
            runs[side].append(metrics)
            print(f"pair {pair + 1} {side}: {json.dumps(metrics)}", flush=True)

    print(f"\n{args.workload} seed {args.seed}, {args.pairs} pairs")
    print(
        f"{'metric':<24}{'parent q1 / median / q3':>36}"
        f"{'change q1 / median / q3':>36}  wins  verdict"
    )
    for name, direction in better.items():
        parent = [run[name] for run in runs["parent"]]
        change = [run[name] for run in runs["change"]]
        sign = 1 if direction == "higher" else -1
        wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        losses = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
        cells = [
            " / ".join(f"{q:.4g}" for q in quartiles(side))
            for side in (parent, change)
        ]
        print(
            f"{name:<24}{cells[0]:>36}{cells[1]:>36}"
            f"  {wins}-{losses} ({direction} is better)"
            f"  {verdict(parent, change, direction, bound[name])}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
