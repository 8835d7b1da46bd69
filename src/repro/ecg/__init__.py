"""Physiological ECG substrate.

The paper evaluates on the MIT-BIH Arrhythmia Database (48 half-hour
two-channel records, 360 Hz, 11-bit over 10 mV).  PhysioNet is not
reachable from this workspace, so this package synthesizes a
corpus with the same interface and the same signal properties that CS
compression exploits (wavelet-domain sparsity, quasi-periodicity,
realistic noise and rhythm disturbances):

- :mod:`repro.ecg.rhythms` — a per-beat Gaussian-template engine with
  rhythm presets (normal sinus, PVCs, bigeminy, APCs, atrial
  fibrillation, paced) that builds every record of the corpus;
- :mod:`repro.ecg.noise` — baseline wander, muscle artifact, mains hum
  and electrode-motion transients;
- :mod:`repro.ecg.records` / :mod:`repro.ecg.database` — MIT-BIH-style
  records (names, annotations, 11-bit ADC) and the 48-record corpus;
- :mod:`repro.ecg.resample` — the 360 -> 256 Hz polyphase resampler the
  paper applies before feeding the Shimmer (scipy's ``resample_poly``
  filter, built and applied in numpy);
- :mod:`repro.ecg.qrs` — a light Pan–Tompkins QRS detector used for
  validation and diagnostic-quality checks (it imports scipy's filter
  design on its first call).

Loading records, resampling and digitizing need numpy alone: the node
-> gateway -> solve path imports no scipy.
"""

from .rhythms import (
    Beat,
    BeatTemplate,
    RhythmModel,
    NormalSinus,
    OccasionalPvc,
    Bigeminy,
    OccasionalApc,
    AtrialFibrillation,
    Paced,
    render_beats,
)
from .noise import NoiseModel, NoiseRecipe
from .records import Annotation, Record, AdcSpec
from .database import SyntheticMitBih, RECORD_NAMES
from .resample import resample_record, resample_signal
from .qrs import detect_qrs
from .holter import HolterPlan, HolterPlanner

__all__ = [
    "Beat",
    "BeatTemplate",
    "RhythmModel",
    "NormalSinus",
    "OccasionalPvc",
    "Bigeminy",
    "OccasionalApc",
    "AtrialFibrillation",
    "Paced",
    "render_beats",
    "NoiseModel",
    "NoiseRecipe",
    "Annotation",
    "Record",
    "AdcSpec",
    "SyntheticMitBih",
    "RECORD_NAMES",
    "resample_record",
    "resample_signal",
    "detect_qrs",
    "HolterPlan",
    "HolterPlanner",
]
