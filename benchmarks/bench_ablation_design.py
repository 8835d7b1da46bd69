"""Design-choice ablations: wavelet basis, decomposition depth, quantizer.

These back the codec defaults (``SystemConfig``: db4, 5 levels; the
quantizer's shift 4) with measurements:

- wavelet family sweep: db4-class bases capture ECG energy in fewer
  coefficients than Haar, which shows up directly as reconstruction SNR;
- depth sweep: shallow decompositions waste the coarse band;
- quantizer-shift sweep: the rate/distortion/saturation triangle behind
  the ``shift = 4`` default.
"""

from __future__ import annotations

import pytest

from repro.experiments import (
    render_table,
    run_level_ablation,
    run_quantizer_ablation,
    run_wavelet_ablation,
)
from repro.wavelet import WaveletTransform


@pytest.fixture(scope="module")
def wavelet_rows(bench_database):
    return run_wavelet_ablation(
        wavelets=("haar", "db2", "db4", "db8", "sym4", "sym8"),
        records=("100", "119"),
        packets_per_record=5,
        database=bench_database,
    )


@pytest.fixture(scope="module")
def quantizer_rows(bench_database):
    return run_quantizer_ablation(
        shifts=(0, 2, 3, 4, 5, 6), packets=8, database=bench_database
    )


def test_wavelet_ablation(wavelet_rows, benchmark, bench_database, bench_json):
    transform = WaveletTransform(512, "db4", 5)
    import numpy as np

    x = np.random.default_rng(0).standard_normal(512)
    benchmark(transform.forward, x)

    print("\n" + render_table(wavelet_rows, title="wavelet family ablation"))
    by_name = {row["wavelet"]: row for row in wavelet_rows}
    benchmark.extra_info["db4_snr"] = round(by_name["db4"]["snr_db"], 2)
    benchmark.extra_info["haar_snr"] = round(by_name["haar"]["snr_db"], 2)

    assert (
        by_name["db4"]["sparsity_50_capture"]
        > by_name["haar"]["sparsity_50_capture"]
    )
    assert by_name["db4"]["snr_db"] >= by_name["haar"]["snr_db"] - 0.5
    bench_json(
        "ablation_design",
        params={"records": ["100", "119"], "packets_per_record": 5},
        rows=wavelet_rows,
    )


def test_level_ablation(benchmark, bench_database):
    rows = run_level_ablation(
        levels=(2, 3, 4, 5, 6),
        records=("100",),
        packets_per_record=5,
        database=bench_database,
    )

    transform = WaveletTransform(512, "db4", 5)
    import numpy as np

    c = np.random.default_rng(1).standard_normal(512)
    benchmark(transform.inverse, c)

    print("\n" + render_table(rows, title="decomposition-depth ablation"))
    by_depth = {int(row["levels"]): row["snr_db"] for row in rows}
    assert by_depth[5] > by_depth[2] - 0.5


def test_quantizer_ablation(quantizer_rows, benchmark):
    from repro.core import MeasurementQuantizer
    import numpy as np

    quantizer = MeasurementQuantizer(shift=4, d=12)
    y = np.random.default_rng(2).integers(-4000, 4000, size=256)
    benchmark(quantizer.quantize, y)

    print("\n" + render_table(quantizer_rows, title="quantizer-shift ablation"))
    by_shift = {int(row["shift"]): row for row in quantizer_rows}
    benchmark.extra_info["shift4_cr"] = round(by_shift[4]["measured_cr"], 2)

    # the shift-4 default: negligible saturation, strong CR
    assert by_shift[4]["saturation_percent"] < 1.0
    assert by_shift[0]["saturation_percent"] > by_shift[4]["saturation_percent"]
    assert by_shift[6]["measured_cr"] > by_shift[4]["measured_cr"]
