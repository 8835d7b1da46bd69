"""Tests for the rhythm models and the beat-template renderer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ecg import (
    AtrialFibrillation,
    Bigeminy,
    NormalSinus,
    OccasionalApc,
    OccasionalPvc,
    Paced,
    render_beats,
)
from repro.ecg.rhythms import TEMPLATES, Beat


class TestBeatSchedules:
    def test_normal_sinus_rate(self):
        rhythm = NormalSinus(mean_hr_bpm=60.0)
        beats = rhythm.generate_beats(60.0, seed=1)
        assert len(beats) == pytest.approx(60, abs=5)
        assert all(b.label == "N" for b in beats)

    def test_beats_strictly_increasing(self):
        for rhythm in (
            NormalSinus(),
            OccasionalPvc(),
            Bigeminy(),
            OccasionalApc(),
            AtrialFibrillation(),
            Paced(),
        ):
            beats = rhythm.generate_beats(30.0, seed=2)
            times = [b.r_time_s for b in beats]
            assert all(t2 > t1 for t1, t2 in zip(times, times[1:]))
            assert times[-1] < 30.0

    def test_bigeminy_alternates(self):
        beats = Bigeminy().generate_beats(30.0, seed=3)
        labels = [b.label for b in beats[:10]]
        assert labels == ["N", "V"] * 5

    def test_pvc_followed_by_compensatory_pause(self):
        rhythm = OccasionalPvc(mean_hr_bpm=60.0, pvc_probability=0.5)
        beats = rhythm.generate_beats(120.0, seed=4)
        for i, beat in enumerate(beats[:-1]):
            if beat.label == "V":
                # PVC coupling interval short, following interval long
                assert beat.rr_s < 0.8
                assert beats[i + 1].rr_s > 0.8

    def test_pvc_probability_controls_rate(self):
        few = OccasionalPvc(pvc_probability=0.02).generate_beats(300.0, seed=5)
        many = OccasionalPvc(pvc_probability=0.25).generate_beats(300.0, seed=5)
        frac_few = sum(b.label == "V" for b in few) / len(few)
        frac_many = sum(b.label == "V" for b in many) / len(many)
        assert frac_many > 3.0 * frac_few

    def test_af_rr_irregular(self):
        af_beats = AtrialFibrillation().generate_beats(120.0, seed=6)
        ns_beats = NormalSinus().generate_beats(120.0, seed=6)
        af_cv = np.std([b.rr_s for b in af_beats]) / np.mean(
            [b.rr_s for b in af_beats]
        )
        ns_cv = np.std([b.rr_s for b in ns_beats]) / np.mean(
            [b.rr_s for b in ns_beats]
        )
        assert af_cv > 3.0 * ns_cv

    def test_af_uses_no_p_template(self):
        beats = AtrialFibrillation().generate_beats(10.0, seed=7)
        assert all(b.key() == "N_af" for b in beats)

    def test_af_f_wave_present(self):
        rhythm = AtrialFibrillation(f_wave_amplitude_mv=0.06)
        wave = rhythm.fibrillatory_wave(10.0, 360.0, seed=8)
        assert wave is not None
        assert len(wave) == 3600
        assert 0.01 < np.max(np.abs(wave)) < 0.2

    def test_normal_sinus_has_no_f_wave(self):
        assert NormalSinus().fibrillatory_wave(10.0, 360.0, seed=1) is None

    def test_paced_rate_locked(self):
        beats = Paced(rate_bpm=70.0).generate_beats(60.0, seed=9)
        intervals = [b.rr_s for b in beats]
        assert np.std(intervals) < 0.02

    def test_deterministic(self):
        a = OccasionalPvc().generate_beats(30.0, seed=10)
        b = OccasionalPvc().generate_beats(30.0, seed=10)
        assert [x.r_time_s for x in a] == [y.r_time_s for y in b]


class TestNormalSinusRr:
    """The RR process behind every sinus record of the synthetic corpus."""

    @staticmethod
    def _rr(duration_s=120.0, seed=1, **fields) -> np.ndarray:
        beats = NormalSinus(**fields).generate_beats(duration_s, seed=seed)
        return np.array([b.rr_s for b in beats])

    @pytest.mark.parametrize("hr_bpm", [50.0, 72.0, 110.0])
    def test_mean_rr_matches_heart_rate(self, hr_bpm):
        rr = self._rr(mean_hr_bpm=hr_bpm)
        assert np.mean(rr) == pytest.approx(60.0 / hr_bpm, rel=0.02)

    def test_variability_scales_with_hrv_fraction(self):
        quiet = self._rr(hrv_fraction=0.01, seed=2)
        wild = self._rr(hrv_fraction=0.10, seed=2)
        assert np.std(wild) > 3.0 * np.std(quiet)

    def test_physiological_bounds(self):
        rr = self._rr(mean_hr_bpm=40.0, hrv_fraction=0.5, seed=4)
        assert rr.min() >= 0.3 and rr.max() <= 2.0

    def test_respiratory_modulation_dominates_the_tachogram(self):
        """Sinus arrhythmia: the RR series oscillates at 0.25 Hz."""
        beats = NormalSinus(mean_hr_bpm=60.0).generate_beats(300.0, seed=5)
        times = np.array([b.r_time_s for b in beats])
        rr = np.array([b.rr_s for b in beats])
        grid = np.arange(times[0], times[-1], 1.0 / 4.0)
        tachogram = np.interp(grid, times, rr)
        spectrum = np.abs(np.fft.rfft(tachogram - tachogram.mean())) ** 2
        freqs = np.fft.rfftfreq(len(grid), d=1.0 / 4.0)
        hf = spectrum[(freqs > 0.2) & (freqs < 0.3)].sum()
        background = spectrum[(freqs > 0.5) & (freqs < 1.0)].sum()
        assert hf > 10.0 * background

    def test_seed_changes_schedule(self):
        assert not np.array_equal(self._rr(seed=7), self._rr(seed=8))

    def test_invalid_duration(self):
        with pytest.raises(ValueError):
            NormalSinus().generate_beats(0.0, seed=1)


class TestRendering:
    def test_render_length(self):
        beats = NormalSinus().generate_beats(10.0, seed=1)
        signal = render_beats(beats, 10.0, 360.0, lead=0)
        assert len(signal) == 3600

    def test_r_peak_near_scheduled_time(self):
        beats = [Beat(r_time_s=5.0, rr_s=1.0, label="N")]
        signal = render_beats(beats, 10.0, 360.0, lead=0)
        peak = int(np.argmax(signal))
        assert abs(peak - 5.0 * 360.0) < 10

    def test_pvc_wider_than_normal(self):
        normal = render_beats(
            [Beat(2.0, 1.0, "N")], 4.0, 360.0, lead=0
        )
        pvc = render_beats([Beat(2.0, 1.0, "V")], 4.0, 360.0, lead=0)
        # width proxy: samples above half the peak
        wide_n = np.count_nonzero(normal > 0.5 * normal.max())
        wide_v = np.count_nonzero(pvc > 0.5 * pvc.max())
        assert wide_v > 1.5 * wide_n

    def test_pvc_has_no_p_wave(self):
        assert all(w.offset_s > -0.1 for w in TEMPLATES["V"][0].waves)

    def test_lead_one_differs_from_lead_zero(self):
        beats = NormalSinus().generate_beats(5.0, seed=2)
        lead0 = render_beats(beats, 5.0, 360.0, lead=0)
        lead1 = render_beats(beats, 5.0, 360.0, lead=1)
        assert not np.allclose(lead0, lead1)

    def test_amplitude_scale(self):
        beats = [Beat(1.0, 1.0, "N")]
        base = render_beats(beats, 2.0, 360.0, lead=0)
        scaled = render_beats(beats, 2.0, 360.0, lead=0, amplitude_scale=2.0)
        assert np.allclose(scaled, 2.0 * base)

    def test_invalid_lead(self):
        with pytest.raises(ValueError):
            render_beats([], 1.0, 360.0, lead=2)

    def test_unknown_template(self):
        with pytest.raises(KeyError):
            render_beats([Beat(0.5, 1.0, "X")], 1.0, 360.0, lead=0)

    def test_t_wave_scales_with_rr(self):
        """Bazett-like: slower rhythm pushes the T wave later."""
        fast = render_beats([Beat(2.0, 0.5, "N")], 4.0, 360.0, lead=0)
        slow = render_beats([Beat(2.0, 1.5, "N")], 4.0, 360.0, lead=0)
        r_sample = 720
        # T peak = max after R + 50 ms
        t_fast = r_sample + 30 + np.argmax(fast[r_sample + 30 : r_sample + 300])
        t_slow = r_sample + 30 + np.argmax(slow[r_sample + 30 : r_sample + 300])
        assert t_slow > t_fast
