"""The runner: child processes, aggregation, envelope, printing.

Stdlib-only.  One child process per workload run, started
sequentially; a set is ``repeats`` untraced runs (every end-to-end
metric is the median of their values, and ``setup_s`` therefore the
median of that many cold set-ups) plus, when tracing, one traced run
that supplies the per-layer metrics.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

from . import spec

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
RESULTS = Path(__file__).resolve().parent / "results"
SCHEMA = 1
#: seconds after which a full-size child is killed (one takes ~45 s)
CHILD_TIMEOUT_S = 170.0
INVALID_RETRIES = 2


class RunFailed(Exception):
    """A child exited non-zero: a check failed or the run was invalid."""


def run_child(
    run: dict, timeout_s: float = CHILD_TIMEOUT_S, strict: bool = True
) -> dict:
    """Start one child, wait for it, return its parsed result.

    A run the harness itself spoiled (the load generator ran late,
    e.g. the box stalled) is discarded and run again, at most
    :data:`INVALID_RETRIES` times.  If every attempt was spoiled,
    ``strict`` gives up; otherwise the least-late attempt is used (its
    latencies count from the due times, so the lateness is in them).
    A failed check is never retried.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in (env.get("PYTHONPATH"),) if p]
    )
    spoiled = []
    for _attempt in range(1 + INVALID_RETRIES):
        try:
            done = subprocess.run(
                [sys.executable, "-m", "benchmarks.e2e.child", json.dumps(run)],
                cwd=ROOT,
                env=env,
                stdout=subprocess.PIPE,
                text=True,
                timeout=timeout_s,
            )
        except subprocess.TimeoutExpired as exc:
            raise RunFailed(f"{run['workload']}: child timed out") from exc
        if done.returncode != 0:
            raise RunFailed(
                f"{run['workload']}: child exited {done.returncode} "
                "(reason on stderr above)"
            )
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if result["invalid"] is None:
            return result
        print(
            f"benchmarks.e2e: {run['workload']}: invalid run discarded: "
            f"{result['invalid']}",
            file=sys.stderr,
        )
        spoiled.append(result)
    if strict:
        raise RunFailed(
            f"{run['workload']}: {len(spoiled)} runs in a row were invalid"
        )
    return min(
        spoiled, key=lambda r: r["per_layer"]["loadgen.lag_p95_ms"]
    )


def run_workload(
    name: str,
    seed: int,
    windows: int,
    repeats: int,
    traced: bool,
    run=run_child,
) -> dict:
    """One set of runs of one workload (``windows`` per link),
    aggregated; ``run`` executes one repeat (the smoke test passes
    ``child.run_spec`` to stay in-process).

    Returns ``{"windows", "attempted", "failed", "end_to_end": {name:
    {unit, median, min, max, values}}, "per_layer": {name: {unit,
    value}}, "versions"}``; ``per_layer`` is empty without ``traced``.
    """
    base = {"workload": name, "seed": seed, "windows": windows}
    runs = [
        run({**base, "traced": False, "heavy": repeat == 0})
        for repeat in range(repeats)
    ]
    end_to_end = {}
    for metric in spec.END_TO_END:
        values = [run["end_to_end"][metric.name] for run in runs]
        end_to_end[metric.name] = {
            "unit": metric.unit,
            "median": statistics.median(values),
            "min": min(values),
            "max": max(values),
            "values": values,
        }
    per_layer = {}
    if traced:
        trace_run = run(
            {
                **base,
                "traced": True,
                "heavy": True,
                "trace_file": str(RESULTS / f"trace_{name}.json"),
            }
        )
        layers = trace_run["per_layer"]
        untraced = end_to_end["windows_per_s"]["median"]
        layers["trace.overhead_pct"] = 100.0 * (
            1.0 - trace_run["end_to_end"]["windows_per_s"] / untraced
        )
        per_layer = {
            metric.name: {"unit": metric.unit, "value": layers[metric.name]}
            for metric in spec.PER_LAYER
        }
    return {
        "windows": windows,
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "versions": runs[0]["versions"],
    }


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_commit() -> str | None:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    commit = done.stdout.strip()
    return commit if done.returncode == 0 and commit else None


def fingerprint(versions: dict) -> dict:
    """What has to match for two envelopes' timings to be comparable."""
    fields = {
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        **versions,
    }
    digest = hashlib.sha256(
        json.dumps(fields, sort_keys=True).encode()
    ).hexdigest()[:8]
    slug = re.sub(r"[^a-z0-9]+", "-", fields["cpu"].lower()).strip("-")
    return {**fields, "id": f"{slug}-{fields['nproc']}c-{digest}"}


def envelope(
    results: dict[str, dict], seed: int, shrink: float, repeats: int
) -> dict:
    """The result file: provenance plus per-repeat raw values."""
    versions = next(iter(results.values()))["versions"]
    return {
        "schema": SCHEMA,
        "benchmark": "benchmarks/e2e",
        "git_commit": git_commit(),
        "seed": seed,
        "shrink": shrink,
        "repeats": repeats,
        "fingerprint": fingerprint(versions),
        "workloads": {
            name: {key: value for key, value in result.items() if key != "versions"}
            for name, result in results.items()
        },
    }


def print_report(results: dict[str, dict]) -> None:
    """Every metric by name with its unit, one block per workload."""
    for name, result in results.items():
        print(
            f"\n== {name}: 2 x {result['windows']} windows, "
            f"{result['attempted']} attempted, {result['failed']} failed"
        )
        for metric in spec.END_TO_END:
            if name not in metric.workloads:
                continue
            entry = result["end_to_end"][metric.name]
            print(
                f"  {metric.name:<24} {entry['median']:>14.4f} {metric.unit:<6}"
                f" [{entry['min']:.4f} .. {entry['max']:.4f}]"
            )
        for metric in spec.PER_LAYER:
            entry = result["per_layer"].get(metric.name)
            if entry is not None:
                print(
                    f"    {metric.name:<40} {entry['value']:>16.4f} "
                    f"{metric.unit}"
                )


def contract_line(result: dict, traced: bool) -> str:
    """The one JSON object BENCHMARK.json's driver reads."""
    if traced:
        metrics = {
            name: {"value": entry["value"], "unit": entry["unit"]}
            for name, entry in result["per_layer"].items()
        }
    else:
        metrics = {
            metric.name: {
                "value": result["end_to_end"][metric.name]["median"],
                "unit": metric.unit,
            }
            for metric in spec.END_TO_END
            if metric.contract
        }
    return json.dumps(
        {
            "correct": True,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": metrics,
        }
    )
