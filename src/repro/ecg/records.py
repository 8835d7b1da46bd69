"""MIT-BIH-style record containers and the 11-bit ADC model.

MIT-BIH records are digitized at 360 Hz with 11-bit resolution over a
10 mV range (200 adu/mV gain, 1024 adu baseline offset).  :class:`Record`
stores physical-unit signals (mV) together with beat annotations, and
:class:`AdcSpec` converts between millivolts and the integer sample
values the encoder ingests.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..utils import check_positive


@dataclass(frozen=True)
class AdcSpec:
    """Uniform quantizer specification of the recording front end."""

    bits: int = 11
    range_mv: float = 10.0
    #: adu value representing 0 mV (MIT-BIH uses mid-range, 1024).
    zero_offset: int = 1024

    def __post_init__(self) -> None:
        if not 1 <= self.bits <= 24:
            raise ValueError(f"bits must be in [1, 24], got {self.bits}")
        check_positive(self.range_mv, "range_mv")

    @property
    def levels(self) -> int:
        """Number of quantization levels (``2**bits``)."""
        return 1 << self.bits

    @property
    def gain_adu_per_mv(self) -> float:
        """Analog gain: adu per millivolt."""
        return self.levels / self.range_mv

    def digitize(self, millivolts: np.ndarray) -> np.ndarray:
        """mV -> integer adu with saturation at the converter rails."""
        adu = np.round(
            np.asarray(millivolts, dtype=np.float64) * self.gain_adu_per_mv
        ).astype(np.int64) + self.zero_offset
        return np.clip(adu, 0, self.levels - 1)


@dataclass(frozen=True)
class Annotation:
    """One annotated beat: sample index (at the record rate) and symbol."""

    sample: int
    symbol: str

    def __post_init__(self) -> None:
        if self.sample < 0:
            raise ValueError(f"sample must be >= 0, got {self.sample}")
        if not self.symbol:
            raise ValueError("symbol must be non-empty")


@dataclass
class Record:
    """A two-channel ECG record in physical units with annotations."""

    name: str
    fs_hz: float
    signals_mv: np.ndarray  # shape (channels, samples)
    annotations: list[Annotation] = field(default_factory=list)
    adc: AdcSpec = field(default_factory=AdcSpec)
    rhythm: str = "unknown"

    def __post_init__(self) -> None:
        check_positive(self.fs_hz, "fs_hz")
        signals = np.asarray(self.signals_mv, dtype=np.float64)
        if signals.ndim != 2:
            raise ValueError(
                f"signals_mv must be 2-D (channels, samples), got {signals.shape}"
            )
        self.signals_mv = signals

    @property
    def num_channels(self) -> int:
        """Number of leads (2 for MIT-BIH)."""
        return self.signals_mv.shape[0]

    @property
    def num_samples(self) -> int:
        """Samples per channel."""
        return self.signals_mv.shape[1]

    @property
    def duration_s(self) -> float:
        """Record duration in seconds."""
        return self.num_samples / self.fs_hz

    def channel(self, index: int) -> np.ndarray:
        """One lead in millivolts."""
        if not 0 <= index < self.num_channels:
            raise IndexError(f"channel {index} out of range")
        return self.signals_mv[index]

    def beat_samples(self, symbols: tuple[str, ...] | None = None) -> np.ndarray:
        """Annotation sample indices, optionally filtered by symbol."""
        if symbols is None:
            picked = [a.sample for a in self.annotations]
        else:
            wanted = set(symbols)
            picked = [a.sample for a in self.annotations if a.symbol in wanted]
        return np.asarray(picked, dtype=np.int64)
