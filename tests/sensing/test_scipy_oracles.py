"""scipy as the oracle of the numpy kernels that replaced it.

The serving path imports numpy alone (``tests/test_numpy_only.py``), so
the resampler and the sparse ``Phi`` products are numpy code that must
reproduce what scipy computed before: the resampler to a few ulps (its
GEMVs sum in another order than ``upfirdn``) with identical digitized
samples, the ``Phi`` kernels bit for bit.  The digests at the bottom pin
the operators, the ADMM resolvent pair and the packet bytes to the
values scipy produced.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np
import pytest
import scipy.signal
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import SystemConfig
from repro.core import EcgMonitorSystem
from repro.core.decoder import build_resources, operator_key
from repro.ecg import SyntheticMitBih, resample_signal
from repro.ecg.resample import rational_ratio
from repro.ingest import encoded_packets
from repro.sensing import SparseBinaryMatrix
from repro.solvers import StructuredOperator, admm_rho
from repro.wavelet import WaveletTransform

#: the benchmarks' record set (``benchmarks/conftest.py``)
BENCH_RECORDS = ("100", "119", "201", "209")

#: (fs_in, fs_out): the paper's 360 -> 256 Hz, its inverse, two faster
#: front ends, a small coprime pair both ways, and equal rates
RATES = (
    (360.0, 256.0),
    (256.0, 360.0),
    (500.0, 256.0),
    (1000.0, 256.0),
    (7.0, 3.0),
    (3.0, 7.0),
    (256.0, 256.0),
)


def _scipy_resample(x, fs_in, fs_out):
    up, down = rational_ratio(fs_in, fs_out)
    return scipy.signal.resample_poly(x, up, down)


class TestResampler:
    @settings(max_examples=80)
    @given(
        length=st.integers(2, 5000),
        rates=st.sampled_from(RATES),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_resample_poly(self, length, rates, seed):
        x = np.random.default_rng(seed).standard_normal(length)
        got = resample_signal(x, *rates)
        want = _scipy_resample(x, *rates)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(x))

    @pytest.mark.parametrize("seed", [2011, 7])
    def test_digitized_records_identical(self, seed):
        database = SyntheticMitBih(duration_s=60.0, seed=seed)
        for name in BENCH_RECORDS:
            record = database.load(name)
            for channel in range(record.num_channels):
                signal = record.channel(channel)
                np.testing.assert_array_equal(
                    record.adc.digitize(resample_signal(signal, 360.0, 256.0)),
                    record.adc.digitize(_scipy_resample(signal, 360.0, 256.0)),
                )


#: (m, n, d): the paper point, a light d, d = m (every row full) and a
#: square d = 1 with empty rows (a trailing one included at seed 2011)
PHI_SHAPES = ((256, 512, 12), (128, 512, 4), (16, 32, 16), (64, 64, 1))


def _scipy_csr(matrix, dtype=np.float64, value=None):
    """The CSR the package built with scipy before, from the row draw."""
    rows = matrix.rows_per_column.ravel()
    columns = np.repeat(np.arange(matrix.n), matrix.d)
    data = np.full(rows.size, matrix.scale if value is None else value, dtype)
    return scipy.sparse.csc_matrix(
        (data, (rows, columns)), shape=matrix.shape
    ).tocsr()


class TestPhiKernels:
    @pytest.mark.parametrize("shape", PHI_SHAPES, ids=str)
    def test_bit_identical_to_scipy_csr(self, shape, rng):
        m, n, d = shape
        matrix = SparseBinaryMatrix(m, n, d=d, seed=2011)
        csr = _scipy_csr(matrix)
        np.testing.assert_array_equal(matrix.indptr, csr.indptr)
        np.testing.assert_array_equal(matrix.indices, csr.indices)
        np.testing.assert_array_equal(matrix.matrix(), csr.toarray())
        np.testing.assert_array_equal(matrix.sparse().toarray(), csr.toarray())
        x = rng.standard_normal(n)
        np.testing.assert_array_equal(matrix.measure(x), csr @ x)
        # vectors, narrow blocks and a square one: each must sum in
        # scipy's per-row order, not numpy's pairwise one
        for width in (1, 2, 3, 16, n):
            block = rng.standard_normal((n, width))
            np.testing.assert_array_equal(matrix.product(block), csr @ block)
        windows = rng.integers(-2048, 2048, size=(5, n))
        ones = _scipy_csr(matrix, np.int64, value=1)
        np.testing.assert_array_equal(
            matrix.measure_integer_batch(windows), (ones @ windows.T).T
        )

    def test_empty_rows_covered(self):
        matrix = SparseBinaryMatrix(64, 64, d=1, seed=2011)
        counts = np.diff(matrix.indptr)
        assert (counts == 0).any() and counts[-1] == 0

    def test_dense_operators_match_the_scipy_product(self, paper_config):
        psi = WaveletTransform(
            paper_config.n, paper_config.wavelet, paper_config.levels
        ).synthesis_matrix()
        matrix = SparseBinaryMatrix(
            paper_config.m, paper_config.n, paper_config.d, paper_config.seed
        )
        reference = _scipy_csr(matrix) @ psi
        for precision in ("float64", "float32", "hybrid"):
            resources = build_resources(*operator_key(paper_config, precision))
            np.testing.assert_array_equal(
                resources.solver.operator,
                reference.astype(resources.solver.operator.dtype),
            )
        structure = build_resources(
            *operator_key(paper_config, "hybrid")
        ).solver.structure
        rho = admm_rho(paper_config.lam)
        oracle = StructuredOperator(matrix, psi, dense=reference)
        for got, want in zip(structure.admm_pair(rho), oracle.admm_pair(rho)):
            np.testing.assert_array_equal(got, want)


def _digest(*arrays) -> str:
    hasher = hashlib.sha256()
    for array in arrays:
        hasher.update(np.ascontiguousarray(array).tobytes())
    return hasher.hexdigest()[:16]


def _cpu_model() -> str:
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return "?"


#: where the operator digests below were recorded: they run through
#: BLAS GEMMs (the synthesis basis, the resolvent), whose rounding
#: depends on the build and the CPU it dispatches for
DIGEST_PLATFORM = (
    "2.4.6",
    "scipy-openblas 0.3.31.188.0",
    "Intel(R) Xeon(R) Processor",
)

#: SHA-256 prefixes of the scipy-era operators at the paper point
OPERATOR_DIGESTS = {
    "float64": "d972cbdbd12f6eb1",
    "float32": "8df61fb57a7af3b6",
    "hybrid": "d972cbdbd12f6eb1",
    "admm_pair": "d82d794e00e53d16",
}

#: codebook + every packet of a calibrated 60 s record, paper point
PACKET_DIGESTS = {
    "100": "22ecef0625842053",
    "119": "1215491e950d331d",
    "201": "238ddf3535720ddd",
}


class TestRecordedDigests:
    def test_operators(self, paper_config):
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        platform = (
            np.__version__,
            f"{blas.get('name')} {blas.get('version')}",
            _cpu_model(),
        )
        if platform != DIGEST_PLATFORM:
            pytest.skip(f"digests recorded on {DIGEST_PLATFORM}, not {platform}")
        got = {
            precision: _digest(
                build_resources(
                    *operator_key(paper_config, precision)
                ).solver.operator
            )
            for precision in ("float64", "float32", "hybrid")
        }
        structure = build_resources(
            *operator_key(paper_config, "hybrid")
        ).solver.structure
        got["admm_pair"] = _digest(
            *structure.admm_pair(admm_rho(paper_config.lam))
        )
        assert got == OPERATOR_DIGESTS

    @pytest.mark.parametrize("name", sorted(PACKET_DIGESTS))
    def test_packet_bytes(self, name):
        system = EcgMonitorSystem(SystemConfig())
        record = SyntheticMitBih(duration_s=60.0).load(name)
        system.calibrate(record)
        hasher = hashlib.sha256(system.encoder.codebook.to_json().encode())
        for packet in encoded_packets(system, record):
            hasher.update(packet.to_bytes())
        assert hasher.hexdigest()[:16] == PACKET_DIGESTS[name]
