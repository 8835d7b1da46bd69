#!/usr/bin/env bash
# Tier-1 verification + repro-lint + decode-engine benchmark smokes.
#
#   scripts/run_tier1.sh          # lint + tests + smoke benchmarks + examples
#   scripts/run_tier1.sh --fast   # lint + tests only
#
# The tier-1 command is the repo's ROADMAP-pinned gate; the smoke runs
# exercise the batched decode engine, the fleet decode scheduler, the
# live ingestion gateway and the multi-gateway federation end-to-end
# (bit-exact packets, equivalence asserts, a real 2-worker pool, the
# TCP wire path, a real gateway-kill failover) with timing
# thresholds relaxed so they stay fast on any machine.  Each benchmark
# must also write its machine-readable BENCH_<name>.json — a bench
# that silently stops reporting fails the gate.  repro-lint
# (python -m repro.analysis) statically enforces the stack's invariants
# — event-loop blocking, lock discipline, hot-loop allocations, the
# telemetry catalog, exception hygiene, README/CLI drift, and the
# dataflow tier (precision flow, await atomicity, process-boundary
# payloads, FrameKind dispatch) — and runs in BOTH modes; its JSON
# findings report lands in benchmarks/results/.  A finding is fixed or
# carries an inline justified suppression; nothing is grandfathered.

set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== repro-lint: static invariant checks =="
mkdir -p benchmarks/results
python -m repro.analysis --root . --report benchmarks/results/LINT_report.json

echo "== tier-1: full test suite =="
python -m pytest -x -q

if [[ "${1:-}" != "--fast" ]]; then
    echo "== batched decode benchmark (smoke mode) =="
    rm -f benchmarks/results/BENCH_batched_decode.json
    REPRO_BENCH_SMOKE=1 python -m pytest benchmarks/bench_batched_decode.py -q

    echo "== fleet decode benchmark (smoke mode) =="
    rm -f benchmarks/results/BENCH_fleet_decode.json \
        benchmarks/results/BENCH_fleet_decode_sharded.json
    REPRO_BENCH_SMOKE=1 python -m pytest benchmarks/bench_fleet_decode.py -q

    echo "== ingest gateway benchmark (smoke mode) =="
    rm -f benchmarks/results/BENCH_ingest_gateway.json
    REPRO_BENCH_SMOKE=1 python -m pytest benchmarks/bench_ingest_gateway.py -q

    echo "== lossy channel benchmark (smoke mode) =="
    rm -f benchmarks/results/BENCH_lossy_channel.json
    REPRO_BENCH_SMOKE=1 python -m pytest benchmarks/bench_lossy_channel.py -q

    echo "== adaptive batching benchmark (smoke mode) =="
    rm -f benchmarks/results/BENCH_adaptive_batching.json
    REPRO_BENCH_SMOKE=1 python -m pytest benchmarks/bench_adaptive_batching.py -q

    echo "== federation benchmark (smoke mode) =="
    rm -f benchmarks/results/BENCH_federation.json
    REPRO_BENCH_SMOKE=1 python -m pytest benchmarks/bench_federation.py -q

    for name in batched_decode fleet_decode fleet_decode_sharded ingest_gateway lossy_channel adaptive_batching federation; do
        if [[ ! -s "benchmarks/results/BENCH_${name}.json" ]]; then
            echo "ERROR: benchmarks wrote no benchmarks/results/BENCH_${name}.json" >&2
            exit 1
        fi
    done

    # the lossy-channel bench must report the two-tier recovery fields
    # (a fec scenario that silently stops running would pass the mere
    # existence check above)
    python - <<'EOF'
import json, sys
with open("benchmarks/results/BENCH_lossy_channel.json") as fh:
    payload = json.load(fh)
fec = [k for k in payload["scenarios"] if k.startswith("fec_loss_")]
if not fec:
    sys.exit("ERROR: BENCH_lossy_channel.json has no fec_loss_* scenario")
required = (
    "fec_damage", "fec_off_damage", "recovered_parity",
    "recovered_retransmit", "nacks_sent", "late_retransmits",
    "overhead_ratio",
)
for key in fec:
    missing = [f for f in required if f not in payload["scenarios"][key]]
    if missing:
        sys.exit(f"ERROR: scenario {key} missing fields: {missing}")
print(f"fec scenario fields OK ({len(fec)} scenario(s))")
EOF

    # the raw-speed solver benches must report every lever: a lever
    # line that silently stops running would pass the existence check
    python - <<'EOF'
import json, sys
with open("benchmarks/results/BENCH_batched_decode.json") as fh:
    payload = json.load(fh)
levers = payload.get("levers", {})
for section, fields in {
    "baseline": ("seconds", "windows_per_s", "mean_prd"),
    "sparse": ("speedup", "windows_per_s", "mean_prd"),
    "hybrid": (
        "speedup", "windows_per_s", "prd_gap",
        "iterations_per_window", "restarts_per_window",
        "polish_rate", "corridor_pass",
    ),
    "step": (
        "hybrid_iterations_per_window",
        "scalar_step_iterations_per_window",
        "L", "L_bulk", "L_band", "band_size",
    ),
    "workspace": ("steady_state", "arenas"),
}.items():
    if section not in levers:
        sys.exit(f"ERROR: BENCH_batched_decode.json missing lever {section}")
    missing = [f for f in fields if f not in levers[section]]
    if missing:
        sys.exit(f"ERROR: lever {section} missing fields: {missing}")
if not levers["hybrid"]["corridor_pass"]:
    sys.exit("ERROR: hybrid lever left the PRD corridor")
if not levers["workspace"]["steady_state"]:
    sys.exit("ERROR: workspace arenas did not reach steady state")

with open("benchmarks/results/BENCH_fleet_decode.json") as fh:
    payload = json.load(fh)
hybrid = payload.get("hybrid", {})
required = (
    "speedup", "windows_per_s", "prd_gap",
    "polish_rate", "worker_cache_reuse",
)
missing = [f for f in required if f not in hybrid]
if missing:
    sys.exit(f"ERROR: BENCH_fleet_decode.json hybrid missing: {missing}")
if not hybrid["worker_cache_reuse"]:
    sys.exit("ERROR: fleet worker solver cache was not reused")
print("raw-speed lever fields OK (batched + fleet)")
EOF

    # the federation bench must report all three claims: scale-out
    # timings, exact bit-identity through the front door, and the
    # bounded-failover damage numbers
    python - <<'EOF'
import json, sys
with open("benchmarks/results/BENCH_federation.json") as fh:
    payload = json.load(fh)
for field in ("scaling_speedup", "windows_per_s_1gw", "windows_per_s_ngw"):
    if field not in payload["timings"]:
        sys.exit(f"ERROR: BENCH_federation.json missing timing {field}")
if payload.get("bit_identical") is not True:
    sys.exit("ERROR: federation front door output was not bit-identical")
failover = payload.get("failover")
if failover is None:
    sys.exit("ERROR: BENCH_federation.json has no failover section")
for field in ("reroutes", "max_damage_windows", "keyframe_interval"):
    if field not in failover:
        sys.exit(f"ERROR: failover section missing {field}")
if failover["max_damage_windows"] > failover["keyframe_interval"]:
    sys.exit(
        "ERROR: gateway death damaged a stream beyond keyframe_interval "
        f"({failover['max_damage_windows']} > {failover['keyframe_interval']})"
    )
print("federation fields OK")
EOF

    echo "== example smokes =="
    python examples/quickstart.py > /dev/null
    python examples/live_gateway.py > /dev/null
    python examples/federation_demo.py > /dev/null
    echo "examples OK"
fi

echo "== tier-1 OK =="
