"""Tests for the measurement shift quantizer."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MeasurementQuantizer
from repro.errors import ConfigurationError


class TestQuantize:
    def test_shift_zero_is_identity(self):
        q = MeasurementQuantizer(shift=0, d=12)
        y = np.array([-5, 0, 7], dtype=np.int64)
        assert np.array_equal(q.quantize(y), y)

    def test_rounding_half_away(self):
        q = MeasurementQuantizer(shift=4, d=1)  # step 16
        assert q.quantize(np.array([8]))[0] == 1  # 8+8=16 >> 4
        assert q.quantize(np.array([7]))[0] == 0
        assert q.quantize(np.array([-8]))[0] == -1
        assert q.quantize(np.array([-7]))[0] == 0

    def test_symmetric_in_sign(self):
        q = MeasurementQuantizer(shift=3, d=4)
        y = np.arange(-100, 101, dtype=np.int64)
        assert np.array_equal(q.quantize(y), -q.quantize(-y))

    def test_rejects_float_input(self):
        q = MeasurementQuantizer()
        with pytest.raises(TypeError):
            q.quantize(np.array([1.5]))

    def test_invalid_params(self):
        with pytest.raises(ConfigurationError):
            MeasurementQuantizer(shift=-1)
        with pytest.raises(ConfigurationError):
            MeasurementQuantizer(shift=13)
        with pytest.raises(ConfigurationError):
            MeasurementQuantizer(d=0)

    def test_step_property(self):
        assert MeasurementQuantizer(shift=4).step == 16


class TestDequantize:
    def test_scale_includes_sqrt_d(self):
        q = MeasurementQuantizer(shift=4, d=16)
        out = q.dequantize(np.array([1]))
        assert out[0] == pytest.approx(16.0 / 4.0)

    def test_roundtrip_error_bounded_by_half_step(self):
        q = MeasurementQuantizer(shift=4, d=9)
        y_int = np.arange(-5000, 5000, 37, dtype=np.int64)
        recovered = q.dequantize(q.quantize(y_int)) * math.sqrt(9)
        assert np.max(np.abs(recovered - y_int)) <= q.step / 2

    @settings(max_examples=40)
    @given(st.integers(0, 8), st.integers(1, 24), st.integers(-100000, 100000))
    def test_quantization_error_bound_property(self, shift, d, value):
        q = MeasurementQuantizer(shift=shift, d=d)
        y = np.array([value], dtype=np.int64)
        recovered = q.dequantize(q.quantize(y)) * math.sqrt(d)
        assert abs(recovered[0] - value) <= q.step / 2 + 1e-9


class TestDefaultShiftChoice:
    def test_diffs_fit_codebook_range_on_corpus(self, database):
        """The shift=4 default keeps quantized inter-packet diffs inside
        [-256, 255] for essentially all entries at the paper's operating
        point (the property the codebook sizing relies on)."""
        from repro.ecg.resample import resample_record
        from repro.sensing import SparseBinaryMatrix

        q = MeasurementQuantizer(shift=4, d=12)
        phi = SparseBinaryMatrix(256, 512, d=12, seed=2011)
        total, saturated = 0, 0
        for name in ("100", "119", "201"):
            record = resample_record(database.load(name), 256.0)
            x = record.adc.digitize(record.channel(0)) - 1024
            windows = len(x) // 512
            previous = None
            for index in range(windows):
                y_q = q.quantize(
                    phi.measure_integer(x[index * 512 : (index + 1) * 512])
                )
                if previous is not None:
                    diff = y_q - previous
                    total += len(diff)
                    saturated += int(
                        np.count_nonzero((diff < -256) | (diff > 255))
                    )
                previous = y_q
        assert total > 0
        assert saturated / total < 0.01
