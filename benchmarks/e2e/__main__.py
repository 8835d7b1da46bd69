"""Command line of the benchmark.

Full mode (what people run)::

    python3 -m benchmarks.e2e --seed 2011 [--workload W] [--repeats 3]
                              [--trace 0|1] [--out FILE]

runs the workloads at full size, ``--repeats`` untraced runs plus (by
default) one traced run each, prints every end-to-end and per-layer
metric by name with its unit, and with ``--out`` writes the result
envelope ``compare`` reads.

Contract mode (what BENCHMARK.json's driver runs)::

    python3 -m benchmarks.e2e --workload W --seed N --seconds S --trace 0|1

measures workload ``W`` for ``S`` seconds in total and prints one JSON
object as the last line: ``--trace 0`` is three untraced runs of
``S/3`` seconds (the end-to-end metrics, medians of the three),
``--trace 1`` one untraced and one traced run of ``S/2`` seconds (the
per-layer metrics).

``python3 -m benchmarks.e2e compare A.json B.json`` compares two
envelopes (see :mod:`.compare`).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import compare, runner, spec

CONTRACT_REPEATS = 3
#: BENCHMARK.json allows one invocation 180 s; its children take
#: ~10 s each, so one that is still running after this has hung
CONTRACT_CHILD_TIMEOUT_S = 50.0


def main(argv: list[str]) -> int:
    if argv and argv[0] == "compare":
        return compare.main(argv[1:])
    parser = argparse.ArgumentParser(prog="python3 -m benchmarks.e2e")
    parser.add_argument("--seed", type=int, default=2011)
    parser.add_argument("--workload", choices=spec.ALL)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), nargs="?", const=1, default=None
    )
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    if not (runner.SRC / "repro").is_dir():
        print(
            f"benchmarks.e2e: no program to measure: {runner.SRC}/repro "
            "is missing",
            file=sys.stderr,
        )
        return 2
    contract = args.seconds is not None
    if contract and args.workload is None:
        parser.error("--seconds needs --workload")
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    # full mode traces unless told not to; the driver always says
    traced = bool(args.trace) if args.trace is not None else not contract
    if contract:
        # the traced invocation splits its time between one untraced
        # and one traced run, so tracing overhead comes from one call
        repeats = 1 if traced else CONTRACT_REPEATS
        runs = repeats + (1 if traced else 0)
        shrink = args.seconds / runs / spec.FULL_SECONDS
    else:
        repeats, shrink = args.repeats, 1.0
    names = (args.workload,) if args.workload else spec.ALL
    run = runner.run_child
    if contract:
        # the driver's contract has no "invalid": a run that stays
        # late after the retries is reported, lateness included
        run = functools.partial(
            run, timeout_s=CONTRACT_CHILD_TIMEOUT_S, strict=False
        )
    results = {}
    try:
        for name in names:
            windows = spec.windows_for(spec.WORKLOAD_BY_NAME[name], shrink)
            results[name] = runner.run_workload(
                name, args.seed, windows, repeats, traced, run=run
            )
    except runner.RunFailed as exc:
        print(f"benchmarks.e2e: {exc}", file=sys.stderr)
        return 1
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(
            json.dumps(
                runner.envelope(results, args.seed, shrink, repeats), indent=1
            )
            + "\n"
        )
    if contract:
        print(runner.contract_line(results[args.workload], traced))
    else:
        runner.print_report(results)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
