"""Multi-level periodized orthonormal discrete wavelet transform.

One analysis level maps a length-``n`` signal to ``n/2`` approximation
and ``n/2`` detail coefficients:

    a[k] = sum_m h[m] x[(2k + m) mod n]
    d[k] = sum_m g[m] x[(2k + m) mod n]

which is an orthonormal map when ``h`` satisfies double-shift
orthogonality and ``g`` is its quadrature mirror.  The synthesis step is
the exact transpose, so forward/inverse are exact inverses of each other
(to floating-point rounding).  Coefficients are laid out in the standard
``[a_J | d_J | d_{J-1} | ... | d_1]`` order.

All levels precompute their gather index tables once, so repeated
transforms (the inner loop of FISTA) are pure vectorized numpy.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..errors import ConfigurationError
from .filters import WaveletFilter, get_wavelet


class WaveletTransform:
    """Periodized orthonormal DWT of fixed size and depth.

    Parameters
    ----------
    n:
        Signal length; must be divisible by ``2**levels``.
    wavelet:
        Wavelet name or a :class:`WaveletFilter`.
    levels:
        Decomposition depth.  ``None`` selects the maximum depth such
        that every level keeps at least ``filter length`` samples.
    """

    def __init__(
        self,
        n: int,
        wavelet: str | WaveletFilter = "db4",
        levels: int | None = None,
    ) -> None:
        if isinstance(wavelet, str):
            wavelet = get_wavelet(wavelet)
        self.wavelet = wavelet
        self.n = int(n)
        if self.n < 2:
            raise ConfigurationError(f"n must be >= 2, got {n}")

        if levels is None:
            levels = 0
            length = self.n
            while length % 2 == 0 and length >= 2 * wavelet.length:
                length //= 2
                levels += 1
            levels = max(levels, 1)
        self.levels = int(levels)
        if self.levels < 1:
            raise ConfigurationError(f"levels must be >= 1, got {levels}")
        if self.n % (1 << self.levels) != 0:
            raise ConfigurationError(
                f"n={self.n} is not divisible by 2**levels={1 << self.levels}"
            )

        self._h = wavelet.lowpass()
        self._g = wavelet.highpass()
        self._gather: list[np.ndarray] = []
        length = self.n
        for _ in range(self.levels):
            half = length // 2
            k = np.arange(half)[:, None]
            m = np.arange(len(self._h))[None, :]
            self._gather.append((2 * k + m) % length)
            length //= 2

    # ------------------------------------------------------------------
    def forward(self, x: np.ndarray) -> np.ndarray:
        """Analysis transform: signal -> wavelet coefficients (``Psi^T x``)."""
        x = np.asarray(x)
        if x.shape != (self.n,):
            raise ValueError(f"expected shape ({self.n},), got {x.shape}")
        dtype = np.float32 if x.dtype == np.float32 else np.float64
        h = self._h.astype(dtype)
        g = self._g.astype(dtype)
        approx = x.astype(dtype, copy=False)
        details: list[np.ndarray] = []
        for gather in self._gather:
            windows = approx[gather]
            details.append(windows @ g)
            approx = windows @ h
        out = np.empty(self.n, dtype=dtype)
        out[: len(approx)] = approx
        position = len(approx)
        for detail in reversed(details):
            out[position : position + len(detail)] = detail
            position += len(detail)
        return out

    def inverse(self, coefficients: np.ndarray) -> np.ndarray:
        """Synthesis transform: coefficients -> signal (``Psi alpha``)."""
        c = np.asarray(coefficients)
        if c.shape != (self.n,):
            raise ValueError(f"expected shape ({self.n},), got {c.shape}")
        dtype = np.float32 if c.dtype == np.float32 else np.float64
        h = self._h.astype(dtype)
        g = self._g.astype(dtype)

        coarse = self.n >> self.levels
        approx = c[:coarse].astype(dtype, copy=True)
        position = coarse
        for level in range(self.levels - 1, -1, -1):
            width = len(approx)
            detail = c[position : position + width].astype(dtype, copy=False)
            position += width
            gather = self._gather[level]
            signal = np.zeros(2 * width, dtype=dtype)
            contributions = approx[:, None] * h[None, :] + detail[:, None] * g[None, :]
            np.add.at(signal, gather.ravel(), contributions.ravel())
            approx = signal
        return approx

    # ------------------------------------------------------------------
    def inverse_batch(self, coefficients: np.ndarray) -> np.ndarray:
        """Synthesis of many coefficient vectors: ``(n, B) -> (n, B)``.

        The scatter-add runs over the same gather indices in the same
        order as :meth:`inverse`, so column ``b`` is bit-identical to
        ``inverse(coefficients[:, b])``.
        """
        c = np.asarray(coefficients)
        if c.ndim != 2 or c.shape[0] != self.n:
            raise ValueError(f"expected shape ({self.n}, B), got {c.shape}")
        dtype = np.float32 if c.dtype == np.float32 else np.float64
        h = self._h.astype(dtype)
        g = self._g.astype(dtype)
        batch = c.shape[1]

        coarse = self.n >> self.levels
        approx = c[:coarse].astype(dtype, copy=True)
        position = coarse
        for level in range(self.levels - 1, -1, -1):
            width = approx.shape[0]
            detail = c[position : position + width].astype(dtype, copy=False)
            position += width
            gather = self._gather[level]
            signal = np.zeros((2 * width, batch), dtype=dtype)
            contributions = (
                approx[:, None, :] * h[None, :, None]
                + detail[:, None, :] * g[None, :, None]
            )
            np.add.at(
                signal,
                gather.ravel(),
                contributions.reshape(-1, batch),
            )
            approx = signal
        return approx

    # ------------------------------------------------------------------
    def synthesis_matrix(self) -> np.ndarray:
        """Dense ``Psi`` (columns are basis vectors); for tests and fast paths."""
        return _dense_synthesis(self.n, self.wavelet.name, self.levels)

    def sparsity_profile(self, x: np.ndarray, keep: int) -> float:
        """Energy fraction captured by the ``keep`` largest coefficients."""
        if keep <= 0:
            return 0.0
        coefficients = self.forward(np.asarray(x, dtype=np.float64))
        energy = np.sum(coefficients**2)
        if energy == 0:
            return 1.0
        magnitude = np.sort(np.abs(coefficients))[::-1]
        return float(np.sum(magnitude[:keep] ** 2) / energy)


@lru_cache(maxsize=16)
def _dense_synthesis(n: int, wavelet_name: str, levels: int) -> np.ndarray:
    """Cached dense synthesis matrix built column-by-column."""
    transform = WaveletTransform(n, wavelet_name, levels)
    psi = np.empty((n, n), dtype=np.float64)
    basis = np.zeros(n, dtype=np.float64)
    for j in range(n):
        basis[j] = 1.0
        psi[:, j] = transform.inverse(basis)
        basis[j] = 0.0
    psi.setflags(write=False)
    return psi
