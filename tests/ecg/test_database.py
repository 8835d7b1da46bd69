"""Tests for the 48-record synthetic corpus."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ecg import RECORD_NAMES, SyntheticMitBih
from repro.ecg.qrs import beat_match_rate, detect_qrs


class TestCorpusStructure:
    def test_48_records(self):
        assert len(RECORD_NAMES) == 48

    def test_names_match_real_mitbih(self):
        # spot checks against the PhysioNet listing
        for name in ("100", "108", "119", "201", "217", "234"):
            assert name in RECORD_NAMES
        assert "110" not in RECORD_NAMES  # does not exist in MIT-BIH
        assert "216" not in RECORD_NAMES

    def test_record_format(self, database):
        record = database.load("100")
        assert record.fs_hz == 360.0
        assert record.num_channels == 2
        assert record.adc.bits == 11
        assert record.adc.range_mv == 10.0
        assert record.num_samples == int(20.0 * 360.0)

    def test_unknown_record_rejected(self, database):
        with pytest.raises(KeyError):
            database.load("999")

    def test_caching_returns_same_object(self, database):
        assert database.load("100") is database.load("100")

    def test_deterministic_across_instances(self):
        a = SyntheticMitBih(duration_s=5.0, seed=1).load("100")
        b = SyntheticMitBih(duration_s=5.0, seed=1).load("100")
        assert np.array_equal(a.signals_mv, b.signals_mv)

    def test_seed_changes_signals(self):
        a = SyntheticMitBih(duration_s=5.0, seed=1).load("100")
        b = SyntheticMitBih(duration_s=5.0, seed=2).load("100")
        assert not np.array_equal(a.signals_mv, b.signals_mv)

    def test_records_differ_from_each_other(self, database):
        a = database.load("100")
        b = database.load("101")
        assert not np.array_equal(a.signals_mv, b.signals_mv)

    def test_subset_deterministic_and_unique(self, database):
        subset = database.subset(6)
        assert len(subset) == 6
        assert len(set(subset)) == 6
        assert subset == database.subset(6)

    def test_subset_validation(self, database):
        with pytest.raises(ValueError):
            database.subset(0)


class TestRhythmAssignments:
    def test_paced_records(self, database):
        for name in ("102", "104", "107", "217"):
            assert database.load(name).rhythm == "paced"

    def test_afib_records(self, database):
        assert database.load("201").rhythm == "atrial-fibrillation"

    def test_bigeminy_record(self, database):
        assert database.load("119").rhythm == "bigeminy"

    def test_normal_record(self, database):
        assert database.load("100").rhythm == "normal-sinus"

    def test_pvc_record_has_v_annotations(self, database):
        record = database.load("233")
        symbols = {a.symbol for a in record.annotations}
        assert "V" in symbols

    def test_annotations_within_record(self, database):
        record = database.load("119")
        samples = record.beat_samples()
        assert samples.min() >= 0
        assert samples.max() < record.num_samples


class TestSignalQuality:
    @pytest.mark.parametrize("name", ["100", "102", "106", "201", "209"])
    def test_qrs_detector_finds_annotated_beats(self, database, name):
        record = database.load(name)
        detected = detect_qrs(record.channel(0), record.fs_hz)
        rate = beat_match_rate(record.beat_samples(), detected, record.fs_hz)
        assert rate > 0.9

    def test_amplitudes_physiological(self, database):
        record = database.load("100")
        peak = np.max(np.abs(record.signals_mv))
        assert 0.5 < peak < 5.0  # mV range of surface ECG

    def test_signals_fit_adc_range(self, database):
        for name in ("100", "203", "228"):
            record = database.load(name)
            adu = record.adc.digitize(record.channel(0))
            assert adu.min() > 0 and adu.max() < 2047  # no rail clipping
