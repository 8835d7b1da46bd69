"""The 48-record synthetic MIT-BIH-like corpus.

Record names match the real MIT-BIH Arrhythmia Database.  Each name maps
deterministically to a rhythm preset, a morphology scale, and a noise
recipe, so ``SyntheticMitBih().load("100")`` always produces the same
two-channel, 360 Hz, 11-bit record.  Generated records are cached in
memory; duration is configurable (the real corpus is 30 minutes per
record — full length is available, but the evaluation sweeps default to
shorter excerpts for tractable runtimes).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..utils import check_positive, derive_seed, rng_from
from .noise import NoiseModel, NoiseRecipe
from .records import AdcSpec, Annotation, Record
from .rhythms import (
    AtrialFibrillation,
    Bigeminy,
    NormalSinus,
    OccasionalApc,
    OccasionalPvc,
    Paced,
    RhythmModel,
    render_beats,
)

#: The 48 record names of the MIT-BIH Arrhythmia Database.
RECORD_NAMES: tuple[str, ...] = (
    "100", "101", "102", "103", "104", "105", "106", "107",
    "108", "109", "111", "112", "113", "114", "115", "116",
    "117", "118", "119", "121", "122", "123", "124", "200",
    "201", "202", "203", "205", "207", "208", "209", "210",
    "212", "213", "214", "215", "217", "219", "220", "221",
    "222", "223", "228", "230", "231", "232", "233", "234",
)


@dataclass(frozen=True)
class RecordProfile:
    """Generation profile of one record."""

    rhythm: RhythmModel
    noise: NoiseRecipe
    amplitude_scale: float = 1.0


def _profile_for(name: str) -> RecordProfile:
    """Deterministic rhythm/noise assignment per record name.

    The assignment loosely follows the character of the real records
    (102/104/107/217 are paced; 106/119/200/203/208/221/228/233 are
    PVC-rich; 201/202/210/219/222 contain atrial fibrillation; 209/220/
    222/232 contain APCs), with per-record parameter variation derived
    from the name.
    """
    rng = rng_from(derive_seed(2011, "profile", name))
    hr = float(rng.uniform(58.0, 92.0))
    paced = {"102", "104", "107", "217"}
    pvc_rich = {"106", "119", "200", "203", "208", "221", "228", "233"}
    bigeminy = {"119", "106"}
    afib = {"201", "202", "210", "219", "222"}
    apc = {"209", "220", "232", "223"}

    rhythm: RhythmModel
    if name in paced:
        rhythm = Paced(rate_bpm=float(rng.uniform(68.0, 75.0)))
    elif name in bigeminy:
        rhythm = Bigeminy(mean_hr_bpm=hr)
    elif name in pvc_rich:
        rhythm = OccasionalPvc(
            mean_hr_bpm=hr, pvc_probability=float(rng.uniform(0.05, 0.15))
        )
    elif name in afib:
        rhythm = AtrialFibrillation(mean_hr_bpm=float(rng.uniform(80.0, 110.0)))
    elif name in apc:
        rhythm = OccasionalApc(
            mean_hr_bpm=hr, apc_probability=float(rng.uniform(0.04, 0.10))
        )
    else:
        rhythm = NormalSinus(
            mean_hr_bpm=hr, hrv_fraction=float(rng.uniform(0.02, 0.06))
        )

    # Noisier records get motion artifacts (105/108 are famously noisy).
    noisy = {"105", "108", "203", "228"}
    noise = NoiseRecipe(
        baseline_wander_mv=float(rng.uniform(0.04, 0.12)),
        muscle_mv=float(rng.uniform(0.008, 0.03)),
        powerline_mv=float(rng.uniform(0.0, 0.015)),
        powerline_hz=60.0,
        electrode_motion_mv=0.25 if name in noisy else 0.0,
        motion_events_per_minute=1.0 if name in noisy else 0.0,
    )
    scale = float(rng.uniform(0.85, 1.15))
    return RecordProfile(rhythm=rhythm, noise=noise, amplitude_scale=scale)


class SyntheticMitBih:
    """Deterministic, in-memory synthetic MIT-BIH corpus.

    Parameters
    ----------
    duration_s:
        Length of generated records (default 60 s; the real database has
        1800 s records and any value up to that is valid).
    fs_hz:
        Record sampling rate (360 Hz like MIT-BIH).
    seed:
        Global corpus seed; record streams derive from it by name.
    """

    def __init__(
        self,
        duration_s: float = 60.0,
        fs_hz: float = 360.0,
        seed: int = 2011,
    ) -> None:
        check_positive(duration_s, "duration_s")
        check_positive(fs_hz, "fs_hz")
        self.duration_s = float(duration_s)
        self.fs_hz = float(fs_hz)
        self.seed = int(seed)
        self._cache: dict[str, Record] = {}

    # ------------------------------------------------------------------
    def subset(self, count: int, stride: int = 5) -> tuple[str, ...]:
        """A deterministic spread of ``count`` record names.

        Strided selection covers the corpus's rhythm diversity without
        loading all 48 records (used by the evaluation sweeps).
        """
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        picked = [RECORD_NAMES[(i * stride) % len(RECORD_NAMES)] for i in range(count)]
        # de-duplicate preserving order
        seen: dict[str, None] = {}
        for name in picked:
            seen.setdefault(name)
        names = list(seen)
        index = 0
        while len(names) < count and index < len(RECORD_NAMES):
            if RECORD_NAMES[index] not in seen:
                names.append(RECORD_NAMES[index])
                seen.setdefault(RECORD_NAMES[index])
            index += 1
        return tuple(names[:count])

    # ------------------------------------------------------------------
    def load(self, name: str) -> Record:
        """Generate (or fetch from cache) one record."""
        if name not in RECORD_NAMES:
            raise KeyError(
                f"unknown record {name!r}; valid names are the 48 MIT-BIH names"
            )
        cached = self._cache.get(name)
        if cached is not None:
            return cached

        profile = _profile_for(name)
        record_seed = derive_seed(self.seed, "record", name)
        beats = profile.rhythm.generate_beats(self.duration_s, record_seed)

        channels = []
        for lead in (0, 1):
            signal = render_beats(
                beats,
                self.duration_s,
                self.fs_hz,
                lead=lead,
                amplitude_scale=profile.amplitude_scale,
            )
            f_wave = profile.rhythm.fibrillatory_wave(
                self.duration_s, self.fs_hz, record_seed
            )
            if f_wave is not None:
                signal = signal + (f_wave if lead == 0 else 0.7 * f_wave)
            noise = NoiseModel(
                profile.noise, seed=derive_seed(record_seed, "noise", lead)
            )
            signal = signal + noise.render(len(signal), self.fs_hz)
            channels.append(signal)

        annotations = [
            Annotation(sample=int(round(b.r_time_s * self.fs_hz)), symbol=b.label)
            for b in beats
            if 0 <= int(round(b.r_time_s * self.fs_hz)) < int(self.duration_s * self.fs_hz)
        ]
        record = Record(
            name=name,
            fs_hz=self.fs_hz,
            signals_mv=np.vstack(channels),
            annotations=annotations,
            adc=AdcSpec(bits=11, range_mv=10.0),
            rhythm=profile.rhythm.name,
        )
        self._cache[name] = record
        return record
