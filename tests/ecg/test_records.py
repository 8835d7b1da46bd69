"""Tests for Record/Annotation containers and the ADC model."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ecg import AdcSpec, Annotation, Record


class TestAdcSpec:
    def test_mitbih_parameters(self):
        adc = AdcSpec()
        assert adc.bits == 11
        assert adc.levels == 2048
        assert adc.gain_adu_per_mv == pytest.approx(204.8)

    def test_digitize_zero_maps_to_offset(self):
        adc = AdcSpec()
        assert adc.digitize(np.array([0.0]))[0] == 1024

    def test_digitize_roundtrip_within_lsb(self, rng):
        adc = AdcSpec()
        millivolts = rng.uniform(-4.5, 4.5, size=200)
        adu = adc.digitize(millivolts)
        recovered = (adu - adc.zero_offset) / adc.gain_adu_per_mv
        assert np.max(np.abs(recovered - millivolts)) <= 0.5 / adc.gain_adu_per_mv + 1e-12

    def test_saturation_at_rails(self):
        adc = AdcSpec()
        assert adc.digitize(np.array([100.0]))[0] == 2047
        assert adc.digitize(np.array([-100.0]))[0] == 0

    def test_invalid_bits(self):
        with pytest.raises(ValueError):
            AdcSpec(bits=0)
        with pytest.raises(ValueError):
            AdcSpec(bits=25)

    def test_invalid_range(self):
        with pytest.raises(ValueError):
            AdcSpec(range_mv=0.0)


class TestAnnotation:
    def test_valid(self):
        ann = Annotation(sample=100, symbol="N")
        assert ann.sample == 100

    def test_negative_sample_rejected(self):
        with pytest.raises(ValueError):
            Annotation(sample=-1, symbol="N")

    def test_empty_symbol_rejected(self):
        with pytest.raises(ValueError):
            Annotation(sample=0, symbol="")


class TestRecord:
    def _record(self):
        signals = np.zeros((2, 720))
        return Record(
            name="rec",
            fs_hz=360.0,
            signals_mv=signals,
            annotations=[Annotation(10, "N"), Annotation(360, "V")],
        )

    def test_shape_properties(self):
        record = self._record()
        assert record.num_channels == 2
        assert record.num_samples == 720
        assert record.duration_s == pytest.approx(2.0)

    def test_channel_access(self):
        record = self._record()
        assert len(record.channel(1)) == 720
        with pytest.raises(IndexError):
            record.channel(2)

    def test_1d_signals_rejected(self):
        with pytest.raises(ValueError):
            Record(name="x", fs_hz=360.0, signals_mv=np.zeros(100))

    def test_beat_samples_filtering(self):
        record = self._record()
        assert list(record.beat_samples()) == [10, 360]
        assert list(record.beat_samples(symbols=("V",))) == [360]
        assert list(record.beat_samples(symbols=("A",))) == []

    def test_digitized_channel(self):
        record = self._record()
        adu = record.adc.digitize(record.channel(0))
        assert adu.dtype == np.int64
        assert np.all(adu == 1024)  # zero millivolts
