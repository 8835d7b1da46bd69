"""Tests for orthonormal wavelet filter construction."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.wavelet import get_wavelet

#: Published db2 coefficients (Daubechies 1988).
DB2_REFERENCE = (
    0.4829629131445341,
    0.8365163037378079,
    0.2241438680420134,
    -0.1294095225512604,
)

#: Published db4 coefficients (first four taps).
DB4_REFERENCE_HEAD = (0.23037781, 0.71484657, 0.63088077, -0.02798377)


class TestKnownValues:
    def test_haar(self):
        h = get_wavelet("haar").lowpass()
        assert np.allclose(h, [1 / np.sqrt(2)] * 2)

    def test_db2_matches_published_table(self):
        h = get_wavelet("db2").lowpass()
        assert np.allclose(h, DB2_REFERENCE, atol=1e-12)

    def test_db4_matches_published_table(self):
        h = get_wavelet("db4").lowpass()
        assert np.allclose(h[:4], DB4_REFERENCE_HEAD, atol=1e-7)

    def test_db1_is_haar(self):
        assert np.allclose(
            get_wavelet("db1").lowpass(), get_wavelet("haar").lowpass()
        )

    def test_sym4_first_tap_matches_pywavelets(self):
        h = get_wavelet("sym4").lowpass()
        assert h[0] == pytest.approx(-0.07576571478927333, abs=1e-9)


class TestDefiningProperties:
    @pytest.mark.parametrize(
        "name", ["haar", "db2", "db3", "db4", "db5", "db6", "db8", "db10",
                 "sym2", "sym4", "sym5", "sym6", "sym8"]
    )
    def test_double_shift_orthonormality(self, name):
        h = get_wavelet(name).lowpass()
        length = len(h)
        for k in range(length // 2):
            value = sum(h[n] * h[n + 2 * k] for n in range(length - 2 * k))
            expected = 1.0 if k == 0 else 0.0
            assert value == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("name", ["db2", "db4", "db6", "sym4", "sym8"])
    def test_sum_is_sqrt2(self, name):
        assert get_wavelet(name).lowpass().sum() == pytest.approx(
            np.sqrt(2.0), abs=1e-10
        )

    @pytest.mark.parametrize("name", ["db2", "db4", "sym4"])
    def test_highpass_is_quadrature_mirror(self, name):
        w = get_wavelet(name)
        h, g = w.lowpass(), w.highpass()
        signs = np.where(np.arange(len(h)) % 2 == 0, 1.0, -1.0)
        assert np.allclose(g, signs * h[::-1])

    @pytest.mark.parametrize("name", ["db2", "db4", "db6", "sym4", "sym8"])
    def test_highpass_sums_to_zero(self, name):
        assert get_wavelet(name).highpass().sum() == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize(
        "name,moments", [("db2", 2), ("db4", 4), ("db6", 6), ("sym4", 4)]
    )
    def test_vanishing_moments(self, name, moments):
        """g annihilates polynomials up to degree moments-1."""
        g = get_wavelet(name).highpass()
        n = np.arange(len(g), dtype=np.float64)
        for power in range(moments):
            assert np.dot(g, n**power) == pytest.approx(0.0, abs=1e-6)

    def test_symlet_more_symmetric_than_db(self):
        """The symlet selection must not be *less* linear-phase than db."""
        from repro.wavelet.filters import _phase_nonlinearity

        db = get_wavelet("db8").lowpass()
        sym = get_wavelet("sym8").lowpass()
        assert _phase_nonlinearity(sym) <= _phase_nonlinearity(db) + 1e-9


class TestLookup:
    def test_every_supported_wavelet_loads(self):
        names = ["haar", *(f"db{n}" for n in range(1, 11))]
        names += [f"sym{n}" for n in range(2, 9)]
        for name in names:
            w = get_wavelet(name)
            assert w.length >= 2

    def test_case_insensitive(self):
        assert get_wavelet("DB4").name == "db4"

    def test_unknown_name(self):
        with pytest.raises(ConfigurationError):
            get_wavelet("coif3")
        with pytest.raises(ConfigurationError):
            get_wavelet("dbx")
        with pytest.raises(ConfigurationError):
            get_wavelet("db99")
        with pytest.raises(ConfigurationError):
            get_wavelet("sym1")

    def test_cached_instances(self):
        assert get_wavelet("db4") is get_wavelet("db4")
