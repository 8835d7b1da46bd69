"""``scripts/ab_pairs.py``: its arguments and the claim rule it prints
beside each metric."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "ab_pairs.py"


@pytest.fixture(scope="module")
def ab_pairs():
    spec = importlib.util.spec_from_file_location("ab_pairs", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def verdict(ab_pairs):
    return ab_pairs.verdict


PARENT = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9]


def test_gain_needs_nine_of_ten_wins_and_a_gap_past_the_spread(verdict):
    faster = [p - 20.0 for p in PARENT]
    assert verdict(PARENT, faster, "lower", 0.25) == "gain"
    # eight wins of ten is not a claim, whatever the medians say
    mixed = faster[:8] + [p + 1.0 for p in PARENT[8:]]
    assert verdict(PARENT, mixed, "lower", 0.25) == "within bound"
    # ten wins by less than the parent's interquartile range is noise
    nudged = [p - 0.01 for p in PARENT]
    assert verdict(PARENT, nudged, "lower", 0.25) == "within bound"


def test_direction_follows_the_metric(verdict):
    higher = [p + 20.0 for p in PARENT]
    assert verdict(PARENT, higher, "higher", 0.25) == "gain"
    assert verdict(PARENT, higher, "lower", 0.1) == "worse"


def test_short_runs_need_every_pair_won(verdict):
    # ⌈0.9 × 4⌉ = 4: three wins of four pairs is not a claim
    parent = [100.0, 100.2, 99.8, 100.1]
    faster = [p - 20.0 for p in parent]
    assert verdict(parent, faster, "lower", 0.25) == "gain"
    assert verdict(parent, faster[:3] + [101.0], "lower", 0.25) == (
        "within bound"
    )


def test_throughput_drop_past_the_bound_is_worse(verdict):
    slower = [p * 0.7 for p in PARENT]
    assert verdict(PARENT, slower, "higher", 0.25) == "worse"
    assert verdict(PARENT, [p * 0.8 for p in PARENT], "higher", 0.25) == (
        "within bound"
    )


def test_worse_past_the_bound(verdict):
    slower = [p * 1.3 for p in PARENT]
    assert verdict(PARENT, slower, "lower", 0.25) == "worse"
    assert verdict(PARENT, [p * 1.2 for p in PARENT], "lower", 0.25) == (
        "within bound"
    )


def test_unresolved_when_the_parent_spreads_past_the_bound(verdict):
    noisy = [50.0, 150.0, 60.0, 140.0, 100.0, 55.0, 145.0, 100.0, 65.0, 135.0]
    assert verdict(noisy, [v + 0.5 for v in noisy], "higher", 0.25) == (
        "unresolved"
    )


def test_identical_runs_read_identical(verdict):
    assert verdict([7.0] * 10, [7.0] * 10, "lower", 0.06) == "identical"


# the saturate prd_mean_pct of one checkout, in the benchmark child and
# in another process: equal to eight digits, never a change's doing
PRD_CHILD = 8.959949927788653
PRD_ELSEWHERE = 8.959949960619928


def test_a_ninth_digit_difference_is_a_tie(ab_pairs, verdict):
    parent, change = [PRD_CHILD] * 5, [PRD_ELSEWHERE] * 5
    assert ab_pairs.relative_difference(PRD_CHILD, PRD_ELSEWHERE) < 1e-8
    assert ab_pairs.wins_losses(parent, change, "lower") == (0, 0)
    # neither gain nor worse, however tight the bound
    assert verdict(parent, change, "lower", 0.0) == "within bound"
    assert verdict(change, parent, "lower", 0.0) == "within bound"


def test_a_difference_at_the_tie_threshold_counts(ab_pairs, verdict):
    faster = [p * (1 - 2e-6) for p in PARENT]
    assert ab_pairs.wins_losses(PARENT, faster, "lower") == (10, 0)
    assert ab_pairs.wins_losses(PARENT, faster, "higher") == (0, 10)
    assert ab_pairs.relative_difference(0.0, 0.0) == 0.0


def test_table_prints_the_largest_relative_difference(ab_pairs, capsys):
    runs = {
        "parent": [{"prd_mean_pct": PRD_CHILD, "ack_p50_ms": 10.0}] * 3,
        "change": [{"prd_mean_pct": PRD_ELSEWHERE, "ack_p50_ms": 10.0}] * 3,
    }
    ab_pairs.print_table(
        "saturate",
        5,
        runs,
        {"prd_mean_pct": "lower", "ack_p50_ms": "lower"},
        {"prd_mean_pct": 0.1, "ack_p50_ms": 0.25},
    )
    lines = capsys.readouterr().out.splitlines()
    rows = {line.split()[0]: line for line in lines if line}
    assert "3.7e-09  0-0" in rows["prd_mean_pct"]
    assert rows["prd_mean_pct"].endswith("within bound")
    assert "0.0e+00  0-0" in rows["ack_p50_ms"]
    assert rows["ack_p50_ms"].endswith("identical")


DECLARED = ["saturate", "paced", "lossy_fec", "offline_ref64"]


def test_workload_repeats(ab_pairs):
    args = ab_pairs.parse_args(
        ["P", "C", "--workload", "paced", "--workload", "saturate",
         "--seed", "43"]
    )
    assert args.workload == ["paced", "saturate"]
    assert (args.seed, args.pairs) == (43, 10)
    assert str(args.parent) == "P" and str(args.change) == "C"
    assert ab_pairs.selected_workloads(args.workload, DECLARED) == [
        "paced", "saturate"
    ]


def test_all_expands_to_the_declared_workloads(ab_pairs):
    args = ab_pairs.parse_args(
        ["P", "C", "--workload", "all", "--seed", "1", "--pairs", "3"]
    )
    assert args.pairs == 3
    assert ab_pairs.selected_workloads(args.workload, DECLARED) == DECLARED
    # a workload named beside "all" is not run twice
    assert ab_pairs.selected_workloads(["paced", "all"], DECLARED) == [
        "paced", "saturate", "lossy_fec", "offline_ref64"
    ]


def test_workload_and_seed_are_required(ab_pairs):
    with pytest.raises(SystemExit):
        ab_pairs.parse_args(["P", "C", "--seed", "1"])
    with pytest.raises(SystemExit):
        ab_pairs.parse_args(["P", "C", "--workload", "paced"])


def test_undeclared_workload_exits_naming_the_declared_ones(ab_pairs):
    with pytest.raises(SystemExit, match="declares saturate, paced"):
        ab_pairs.selected_workloads(["ward"], DECLARED)
