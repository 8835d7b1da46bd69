"""The dense system operator ``A = Phi Psi`` the decoder solves against.

``build_resources`` forms ``A`` once per operator key as a plain array:
the sparse-binary ``Phi`` applied to the dense synthesis matrix ``Psi``
whose columns are the wavelet basis vectors.  These tests pin that array
to its definition, so every solver that receives it sees the product of
the paper's two matrices and nothing else.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import SystemConfig
from repro.core.decoder import BACKENDS, operator_key, resources_for
from repro.errors import SolverError
from repro.sensing import SparseBinaryMatrix
from repro.solvers import BatchedFista
from repro.wavelet import WaveletTransform

CONFIG = SystemConfig(n=128, m=64, d=8, levels=4)


def _phi_psi(config: SystemConfig) -> tuple[np.ndarray, np.ndarray]:
    phi = SparseBinaryMatrix(config.m, config.n, d=config.d, seed=config.seed)
    psi = WaveletTransform(config.n, config.wavelet, config.levels).synthesis_matrix()
    return phi.matrix(), psi


class TestSynthesisMatrix:
    @pytest.mark.parametrize("wavelet", ["haar", "db2", "db8", "sym4"])
    def test_columns_synthesize_and_rows_analyse(self, wavelet, rng):
        t = WaveletTransform(64, wavelet, 3)
        psi = t.synthesis_matrix()
        c = rng.standard_normal(64)
        assert np.allclose(psi @ c, t.inverse(c), atol=1e-10)
        x = rng.standard_normal(64)
        assert np.allclose(psi.T @ x, t.forward(x), atol=1e-10)

    def test_cached_and_read_only(self):
        t = WaveletTransform(64, "db4", 3)
        psi = t.synthesis_matrix()
        assert WaveletTransform(64, "db4", 3).synthesis_matrix() is psi
        with pytest.raises(ValueError):
            psi[0, 0] = 1.0


class TestComposedOperator:
    @pytest.mark.parametrize("precision", ["float64", "float32"])
    def test_operator_is_phi_times_psi(self, precision):
        phi, psi = _phi_psi(CONFIG)
        dtype = np.float32 if precision == "float32" else np.float64
        operator = resources_for(CONFIG, precision).solver.operator
        assert operator.shape == (CONFIG.m, CONFIG.n)
        assert operator.dtype == dtype
        assert np.allclose(operator, (phi @ psi).astype(dtype), atol=1e-6)

    def test_float32_operator_is_the_float64_one_rounded(self):
        a64 = resources_for(CONFIG, "float64").solver.operator
        a32 = resources_for(CONFIG, "float32").solver.operator
        assert np.array_equal(a32, a64.astype(np.float32))

    def test_hybrid_solver_holds_the_float64_operator(self):
        a64 = resources_for(CONFIG, "float64").solver.operator
        hybrid = resources_for(CONFIG, "hybrid").solver.operator
        assert np.allclose(hybrid, a64, atol=1e-12)

    def test_adjoint_consistency(self, rng):
        """<A x, y> == <x, A^T y> for the decoder's operator."""
        a = resources_for(CONFIG, "float64").solver.operator
        x = rng.standard_normal(CONFIG.n)
        y = rng.standard_normal(CONFIG.m)
        assert np.dot(a @ x, y) == pytest.approx(np.dot(x, a.T @ y), rel=1e-10)

    def test_measuring_a_synthesized_signal(self, rng):
        """``A alpha`` is the measurement of the signal ``Psi alpha``."""
        phi, psi = _phi_psi(CONFIG)
        a = resources_for(CONFIG, "float64").solver.operator
        alpha = rng.standard_normal(CONFIG.n)
        assert np.allclose(a @ alpha, phi @ (psi @ alpha), atol=1e-10)

    @pytest.mark.parametrize("precision", BACKENDS)
    def test_one_operator_per_key(self, precision):
        first = resources_for(CONFIG, precision)
        assert resources_for(CONFIG.replace(), precision) is first
        assert operator_key(CONFIG, precision)[-1] == precision


class TestBatchedOperatorKeepsItsDtype:
    """Unlike the serial solvers, the batched engine iterates in the
    operator's own dtype (float32 GEMMs for the float32 backend)."""

    def test_float32_kept(self, rng):
        a32 = rng.standard_normal((6, 12)).astype(np.float32)
        assert BatchedFista(a32).operator.dtype == np.float32

    def test_non_2d_rejected(self):
        with pytest.raises(SolverError, match="must be 2-D"):
            BatchedFista(np.zeros(12))
