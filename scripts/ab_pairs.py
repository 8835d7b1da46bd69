#!/usr/bin/env python3
"""Alternating parent/change pairs of ``benchmarks.e2e`` workloads.

    scripts/ab_pairs.py PARENT_DIR CHANGE_DIR --workload W [--workload W2 ...]
        --seed N [--pairs 10]

``--workload`` repeats; ``--workload all`` runs every workload the
change's ``BENCHMARK.json`` declares.  For each workload in turn, runs
``python3 -m benchmarks.e2e --workload W --seed N --seconds S --trace 0``
(``S`` = ``run_seconds`` of the change's ``BENCHMARK.json``) once in
each checkout per pair, alternating which side goes first, and prints
every run; then one table per workload: per end-to-end metric each
side's median and quartiles, the largest relative difference of any
pair, how many pairs the change won and lost, and a verdict (see
:func:`verdict`) — the protocol a gain is claimed under: at least nine
tenths of the pairs won (ties, pairs within :data:`TIE_RELATIVE`,
count for neither side) and medians further apart than the parent's
own interquartile spread.
Stdlib only; each checkout measures itself with its own copy of the
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


#: two values closer than this, relative, are a tie: a deterministic
#: metric can move in its ninth digit with the process that computes
#: it (the same checkout gives either value), never with the change
TIE_RELATIVE = 1e-6


def relative_difference(parent: float, change: float) -> float:
    """``|change - parent|`` relative to the larger magnitude."""
    scale = max(abs(parent), abs(change))
    return abs(change - parent) / scale if scale else 0.0


def wins_losses(
    parent: list[float], change: list[float], better: str
) -> tuple[int, int]:
    """Pairs the change won and lost; ties (see :data:`TIE_RELATIVE`)
    count for neither side."""
    sign = 1 if better == "higher" else -1
    wins = losses = 0
    for p, c in zip(parent, change):
        if relative_difference(p, c) < TIE_RELATIVE:
            continue
        if sign * (c - p) > 0:
            wins += 1
        else:
            losses += 1
    return wins, losses


def verdict(
    parent: list[float], change: list[float], better: str, bound: float
) -> str:
    """Judge one metric over paired runs (``parent[i]`` with ``change[i]``).

    ``identical``: every pair is equal.  ``gain``: the change wins at
    least ⌈0.9 × pairs⌉ pairs and its median beats the parent's by more
    than the parent's interquartile range.  ``worse``: its median is
    worse than the parent's by more than ``bound`` (relative, as in
    ``BENCHMARK.json``).  ``unresolved``: the parent's own
    interquartile range is wider than that bound, so the runs cannot
    tell.  ``within bound`` otherwise — always, when no pair differs
    by :data:`TIE_RELATIVE` or more.
    """
    if parent == change:
        return "identical"
    if max(map(relative_difference, parent, change)) < TIE_RELATIVE:
        return "within bound"
    sign = 1 if better == "higher" else -1
    wins, _ = wins_losses(parent, change, better)
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


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument(
        "--workload",
        action="append",
        required=True,
        help="a workload to pair (repeatable); 'all' = every declared one",
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    return parser.parse_args(argv)


def selected_workloads(requested: list[str], declared: list[str]) -> list[str]:
    """``requested`` in order without repeats, ``all`` expanded to
    ``declared``; a name ``BENCHMARK.json`` does not declare exits."""
    chosen: list[str] = []
    for name in requested:
        for workload in declared if name == "all" else [name]:
            if workload not in declared:
                raise SystemExit(
                    f"unknown workload {workload!r}; BENCHMARK.json "
                    f"declares {', '.join(declared)}"
                )
            if workload not in chosen:
                chosen.append(workload)
    return chosen


def print_table(
    workload: str,
    seed: int,
    runs: dict[str, list[dict]],
    better: dict[str, str],
    bound: dict[str, float],
) -> None:
    pairs = len(runs["parent"])
    print(f"\n{workload} seed {seed}, {pairs} pairs")
    print(
        f"{'metric':<24}{'parent q1 / median / q3':>36}"
        f"{'change q1 / median / q3':>36}  max rel diff  wins  verdict"
    )
    for name, direction in better.items():
        parent = [run[name] for run in runs["parent"]]
        change = [run[name] for run in runs["change"]]
        wins, losses = wins_losses(parent, change, direction)
        largest = max(map(relative_difference, parent, change))
        cells = [
            " / ".join(f"{q:.4g}" for q in quartiles(side))
            for side in (parent, change)
        ]
        print(
            f"{name:<24}{cells[0]:>36}{cells[1]:>36}{largest:>14.1e}"
            f"  {wins}-{losses} ({direction} is better)"
            f"  {verdict(parent, change, direction, bound[name])}"
        )


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    declared = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = declared["run_seconds"]
    workloads = selected_workloads(
        args.workload, [w["name"] for w in declared["workloads"]]
    )
    better = {m["name"]: m["better"] for m in declared["end_to_end"]}
    bound = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    sides = {"parent": args.parent, "change": args.change}
    results: dict[str, dict[str, list[dict]]] = {}
    for workload in workloads:
        runs = results[workload] = {"parent": [], "change": []}
        for pair in range(args.pairs):
            order = (
                ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            )
            for side in order:
                metrics = run_once(sides[side], workload, args.seed, seconds)
                runs[side].append(metrics)
                print(
                    f"{workload} pair {pair + 1} {side}: "
                    f"{json.dumps(metrics)}",
                    flush=True,
                )
    for workload, runs in results.items():
        print_table(workload, args.seed, runs, better, bound)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
