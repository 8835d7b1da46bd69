"""Figure 7: FISTA iterations and iPhone decode time per packet vs CR.

Paper's result: average iterations rise from ~600 (CR 30) to ~900
(CR 70) and the average per-packet execution time from ~0.34 s to
~0.46 s, all within the 1 s real-time budget.

Reproduced: measured iteration counts from the float32 solver, priced
by the calibrated Cortex-A8 NEON model.  The timed kernel is one FISTA
iteration's operator work at the paper's operating point.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import SystemConfig
from repro.experiments import render_table, run_fig7
from repro.solvers import fista, lambda_from_fraction

from .conftest import BENCH_PACKETS, BENCH_RECORDS

NOMINAL_CRS = (30.0, 40.0, 50.0, 60.0, 70.0)


@pytest.fixture(scope="module")
def fig7_rows(bench_database):
    return run_fig7(
        nominal_crs=NOMINAL_CRS,
        records=BENCH_RECORDS,
        packets_per_record=BENCH_PACKETS,
        database=bench_database,
    )


def test_fig7_series(
    fig7_rows, benchmark, paper_point_system, paper_point_windows, bench_json
):
    """Regenerate the Figure 7 series; time a fixed-budget FISTA solve."""
    system = paper_point_system
    system.encoder.reset()
    packet = system.encoder.encode(paper_point_windows[0])
    system.decoder.reset()
    measurements = system.decoder._decode_payload(packet)
    y = system.decoder.quantizer.dequantize(measurements)
    a = system.decoder.resources.solver.operator
    lam = lambda_from_fraction(a, y, system.config.lam)

    def solve_100_iterations():
        return fista(
            a, y, lam, max_iterations=100, tolerance=1e-12,
            lipschitz=system.decoder.resources.solver.lipschitz,
        )

    benchmark.pedantic(solve_100_iterations, rounds=5, iterations=1)

    print("\n" + render_table(fig7_rows, title="Figure 7: iterations & time vs CR"))
    for row in fig7_rows:
        benchmark.extra_info[f"cr{row['nominal_cr']:.0f}_iters"] = round(
            row["iterations"], 1
        )
        benchmark.extra_info[f"cr{row['nominal_cr']:.0f}_time_s"] = round(
            row["iphone_time_s"], 3
        )

    iterations = [row["iterations"] for row in fig7_rows]
    times = [row["iphone_time_s"] for row in fig7_rows]
    # monotone rise with CR (the paper's shape)
    assert iterations == sorted(iterations)
    assert times == sorted(times)
    # magnitudes in the paper's band at the low-CR end
    assert 400 <= iterations[0] <= 1100
    assert times[0] < 0.6
    # every point within the NEON real-time cap
    assert max(iterations) <= 2000
    bench_json(
        "fig7_iterations_time",
        params={
            "nominal_crs": list(NOMINAL_CRS),
            "records": list(BENCH_RECORDS),
            "packets_per_record": BENCH_PACKETS,
        },
        rows=fig7_rows,
    )


def test_fig7_iteration_kernel(benchmark, paper_point_system):
    """One matrix-vector pair (the per-iteration hot path)."""
    a = paper_point_system.decoder.resources.solver.operator
    n = a.shape[1]
    alpha = np.ones(n, dtype=a.dtype)

    def one_gradient():
        residual = a @ alpha
        return a.T @ residual

    benchmark(one_gradient)
