"""Orthonormal wavelet substrate.

The paper's sparsifying basis ``Psi`` is an orthonormal wavelet basis.
This package provides:

- :mod:`repro.wavelet.filters` — orthonormal scaling/wavelet filter
  construction (Haar, Daubechies extremal-phase, symlets) by spectral
  factorization of the Daubechies half-band polynomial;
- :mod:`repro.wavelet.dwt` — multi-level periodized discrete wavelet
  transform and its exact inverse, vectorized, plus the dense synthesis
  matrix ``Psi`` that the decoder folds into ``A = Phi Psi``.
"""

from .filters import WaveletFilter, get_wavelet
from .dwt import WaveletTransform

__all__ = [
    "WaveletFilter",
    "get_wavelet",
    "WaveletTransform",
]
