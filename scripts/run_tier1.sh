#!/usr/bin/env bash
# The repo's gate: repro-lint, the tier-1 suite, every benchmark, every example.
#
#   scripts/run_tier1.sh          # lint + tests + benchmarks + examples
#   scripts/run_tier1.sh --fast   # lint + tests only
#
# Full mode takes ~350 s on a 2-core Xeon at 2.1 GHz (tests ~160 s,
# the paper-fidelity benchmarks ~150 s, the eight examples ~30 s).
#
# repro-lint (python -m repro.analysis) statically enforces the stack's
# invariants — event-loop blocking, lock discipline, hot-loop
# allocations, the telemetry catalog, exception hygiene, README/CLI
# drift in both directions (a declared flag the README omits, a flag
# its CLI reference names that no parser declares), await atomicity,
# process-pool dispatch sites and frame dispatch — and runs in both
# modes; its JSON findings report lands in benchmarks/results/.  A
# finding is fixed or carries an inline justified suppression; nothing
# is grandfathered.
#
# The tier-1 command is the ROADMAP-pinned one.  It carries every
# correctness claim of the serving stack (bit-identity, conservation,
# live == replay, failover damage), including a small in-process run of
# each benchmarks/e2e workload with its in-run checks.
#
# Full mode then runs benchmarks/bench_*.py by glob, so a bench cannot
# exist outside the gate: the paper-fidelity series only (figs 2/6/7/8,
# the ablations, the solver comparison — the fixed point the ROADMAP's
# aims are measured against).  Each asserts the shape of its own series
# at one sizing; none gates on a one-shot wall-clock ratio.  Throughput
# and latency of the serving stack are measured by
# `python -m benchmarks.e2e` (repeats, medians, a compare verb), not
# here.

set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== repro-lint: static invariant checks =="
mkdir -p benchmarks/results
python -m repro.analysis --root . --report benchmarks/results/LINT_report.json

echo "== tier-1: full test suite =="
# the ten slowest tests print in every log: a cold-path regression
# (a table rebuilt per object) shows up there first
python -m pytest -x -q --durations=10

if [[ "${1:-}" != "--fast" ]]; then
    echo "== benchmarks: paper fidelity =="
    python -m pytest benchmarks/bench_*.py -q

    echo "== examples =="
    # every example by glob (helpers start with _), as for the benches:
    # the examples are reachability roots, so each one must also run
    for example in examples/[!_]*.py; do
        python "$example" > /dev/null
    done
    echo "examples OK"
fi

echo "== tier-1 OK =="
