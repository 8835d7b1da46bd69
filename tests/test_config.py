"""Tests for repro.config.SystemConfig and module constants."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.config import (
    HUFFMAN_MAX_CODE_BITS,
    HUFFMAN_SYMBOLS,
    PACKET_SAMPLES,
    PAPER_DEFAULT,
    SystemConfig,
)
from repro.errors import ConfigurationError


class TestConstants:
    def test_packet_samples_is_512(self):
        assert PACKET_SAMPLES == 512

    def test_huffman_alphabet_is_512_symbols(self):
        assert HUFFMAN_SYMBOLS == 512

    def test_huffman_codeword_cap_is_16_bits(self):
        assert HUFFMAN_MAX_CODE_BITS == 16


class TestSystemConfigValidation:
    def test_defaults_are_paper_operating_point(self):
        cfg = SystemConfig()
        assert cfg.n == 512
        assert cfg.m == 256
        assert cfg.d == 12
        assert cfg.sample_rate_hz == 256

    def test_paper_default_singleton_matches(self):
        assert PAPER_DEFAULT == SystemConfig()

    def test_non_power_of_two_n_rejected(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(n=500)

    def test_m_larger_than_n_rejected(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(n=512, m=513)

    def test_zero_m_rejected(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(m=0)

    def test_d_larger_than_m_rejected(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(m=16, d=17)

    def test_negative_lam_rejected(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(lam=-0.1)

    def test_zero_tolerance_rejected(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(tolerance=0.0)

    @pytest.mark.parametrize("field", ["lam", "tolerance"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_solver_weights_rejected(self, field, value):
        """NaN passes ``<= 0``: a NaN ``lam`` rode 16 columns through
        4000 iterations and came back as non-finite samples."""
        with pytest.raises(ConfigurationError, match="finite"):
            SystemConfig(**{field: value})

    def test_zero_levels_rejected(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(levels=0)

    def test_zero_max_iterations_rejected(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(max_iterations=0)

    def test_keyframe_interval_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(keyframe_interval=0)

    def test_adc_bits_bounds(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(adc_bits=0)
        with pytest.raises(ConfigurationError):
            SystemConfig(adc_bits=17)

    def test_original_bits_below_adc_bits_rejected(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(adc_bits=12, original_sample_bits=11)


#: every field ``SystemConfig`` declares as an int
INT_FIELDS = (
    "n", "m", "d", "levels", "max_iterations", "sample_rate_hz",
    "adc_bits", "original_sample_bits", "keyframe_interval", "seed",
)


class TestIntegralFields:
    """A HELLO's config is JSON: a float, a non-finite number or a bool
    where an int belongs is refused before any range check sees it."""

    def test_the_declared_int_fields(self):
        declared = {
            spec.name
            for spec in dataclasses.fields(SystemConfig)
            if spec.type.startswith("int")
        }
        assert declared == set(INT_FIELDS)

    @pytest.mark.parametrize("field", INT_FIELDS)
    @pytest.mark.parametrize(
        "value", [1.5, math.inf, math.nan, True],
        ids=["fraction", "infinity", "nan", "bool"],
    )
    def test_non_integral_value_refused(self, field, value):
        with pytest.raises(ConfigurationError, match=f"{field} must be an"):
            SystemConfig(**{field: value})

    @pytest.mark.parametrize("field", INT_FIELDS)
    def test_numpy_integer_accepted(self, field):
        value = getattr(PAPER_DEFAULT, field)
        assert getattr(SystemConfig(**{field: np.int64(value)}), field) == value


class TestDerivedQuantities:
    def test_packet_seconds_is_two(self):
        assert SystemConfig().packet_seconds == pytest.approx(2.0)

    def test_nominal_cr(self):
        assert SystemConfig(m=256).nominal_cr_percent == pytest.approx(50.0)

    def test_original_packet_bits(self):
        assert SystemConfig().original_packet_bits == 512 * 12

    def test_with_target_cr_roundtrip(self):
        cfg = SystemConfig().with_target_cr(75.0)
        assert cfg.m == 128
        assert cfg.nominal_cr_percent == pytest.approx(75.0)

    def test_with_target_cr_invalid(self):
        with pytest.raises(ConfigurationError):
            SystemConfig().with_target_cr(100.0)
        with pytest.raises(ConfigurationError):
            SystemConfig().with_target_cr(-1.0)

    def test_with_target_cr_never_below_d(self):
        cfg = SystemConfig().with_target_cr(99.9)
        assert cfg.m >= cfg.d

    def test_replace_validates(self):
        with pytest.raises(ConfigurationError):
            SystemConfig().replace(m=0)

    def test_replace_changes_field(self):
        assert SystemConfig().replace(d=6).d == 6

    def test_summary_mentions_key_fields(self):
        text = SystemConfig().summary()
        assert "n=512" in text and "d=12" in text

    @given(st.floats(min_value=0.0, max_value=95.0))
    def test_with_target_cr_hits_target_within_rounding(self, cr):
        cfg = SystemConfig().with_target_cr(cr)
        # m rounds to the nearest integer: CR error bounded by 1/n
        assert abs(cfg.nominal_cr_percent - cr) <= 100.0 / cfg.n + 1e-9
