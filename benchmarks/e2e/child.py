"""One workload run in its own process.

``python3 -m benchmarks.e2e.child '<json spec>'`` sets up, runs one
repeat of one workload, checks its outputs and prints one JSON result
as the last line of stdout; any failed check exits non-zero with the
reason on stderr and no result.  The runner starts these sequentially,
so every repeat pays (and reports) its own cold set-up.

BLAS is pinned to one thread before numpy is imported: one event-loop
thread plus one solve thread is ``nproc`` on the 2-core reference box,
and it makes ``windows_per_s`` the ROADMAP's "windows/s per core".
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def run_spec(run: dict) -> dict:
    """Run one repeat described by ``run``; returns its result dict.

    Keys: ``workload``, ``seed``, ``windows`` (per link), ``traced``,
    ``heavy`` (also run the solver-replaying checks) and ``trace_file``
    (where a traced run writes its spans, or ``None``).  The result's
    ``invalid`` is ``None``, or why the run must not be used.
    """
    import platform

    import numpy as np

    from . import checks, layers, metrics, spec, trace, workloads

    workload = spec.WORKLOAD_BY_NAME[run["workload"]]
    traced = bool(run["traced"])
    prepared = workloads.prepare(workload, run["seed"], run["windows"])
    if workload.live:
        observed = workloads.run_live(prepared, run["seed"], traced)
    else:
        observed = workloads.run_offline(prepared, traced)
    decoded, prds, rss_mb = metrics.summarize(prepared, observed)
    replay = checks.check_run(
        prepared, observed, prds, heavy=traced or bool(run["heavy"])
    )
    end_to_end = metrics.end_to_end(prepared, observed, prds, rss_mb)
    per_layer = metrics.run_layers(prepared, observed, decoded)
    # the harness, not the program, spoiled such a run: the runner
    # discards it and runs it again
    invalid = None
    if per_layer["loadgen.lag_p95_ms"] > spec.MAX_LAG_P95_MS:
        invalid = (
            f"load generator ran late: lag p95 "
            f"{per_layer['loadgen.lag_p95_ms']:.2f} ms > "
            f"{spec.MAX_LAG_P95_MS} ms"
        )
    if traced:
        per_layer.update(layers.layer_costs(prepared, observed, replay))
        if workload.name in spec.PACED:
            checks.require(
                per_layer["trace.unattributed_share"] <= spec.MAX_UNATTRIBUTED,
                f"waterfall leaves "
                f"{per_layer['trace.unattributed_share']:.3f} of the "
                "window spans unattributed",
            )
        if run.get("trace_file") and observed.spans is not None:
            trace.write_trace(
                Path(run["trace_file"]),
                workload.name,
                observed.waterfall,
                observed.spans,
            )
    blas = (
        np.__config__.show(mode="dicts")
        .get("Build Dependencies", {})
        .get("blas", {})
    )
    return {
        "workload": workload.name,
        "seed": run["seed"],
        "windows": prepared.windows,
        "traced": traced,
        "invalid": invalid,
        "attempted": end_to_end.pop("attempted"),
        "failed": end_to_end.pop("failed"),
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "blas_threads": os.environ.get(THREAD_VARS[0], "unpinned"),
        },
    }


def main(argv: list[str]) -> int:
    for name in THREAD_VARS:
        os.environ[name] = str(BLAS_THREADS)
    try:
        result = run_spec(json.loads(argv[1]))
    except Exception as exc:  # boundary: report and exit non-zero, unprinted
        import traceback

        traceback.print_exc()
        print(f"benchmarks.e2e: run failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
