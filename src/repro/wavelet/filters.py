"""Orthonormal wavelet filter construction.

Rather than hard-coding coefficient tables, Daubechies filters are built
by spectral factorization of the Daubechies half-band polynomial
(Daubechies 1988; Strang & Nguyen 1996):

1. form ``P(y) = sum_k C(N-1+k, k) y^k`` for ``N`` vanishing moments;
2. substitute ``y -> -(z-1)^2 / (4 z)`` and clear denominators to get the
   degree ``2(N-1)`` polynomial ``Q(z)``;
3. pick one root from each reciprocal pair of ``Q`` (inside the unit
   circle for the extremal-phase "db" family; the most linear-phase
   conjugate-closed selection for the "sym" family);
4. the scaling filter is ``c (1+z)^N prod_k (z - r_k)`` normalized to
   ``sum h = sqrt(2)``.

The construction is verified by the test suite against the defining
properties (double-shift orthonormality, vanishing moments) and against
published db2/db4 coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb

import numpy as np

from ..errors import ConfigurationError


@dataclass(frozen=True)
class WaveletFilter:
    """An orthonormal wavelet: scaling filter ``h`` and wavelet filter ``g``.

    ``g`` is the standard quadrature-mirror counterpart
    ``g[n] = (-1)^n h[L-1-n]``.
    """

    name: str
    h: tuple[float, ...]

    @property
    def length(self) -> int:
        """Filter length ``L`` (``2N`` for ``N`` vanishing moments)."""
        return len(self.h)

    def lowpass(self) -> np.ndarray:
        """Scaling (low-pass) filter as a float64 array."""
        return np.asarray(self.h, dtype=np.float64)

    def highpass(self) -> np.ndarray:
        """Wavelet (high-pass) filter ``g[n] = (-1)^n h[L-1-n]``."""
        h = self.lowpass()
        length = len(h)
        signs = np.where(np.arange(length) % 2 == 0, 1.0, -1.0)
        return signs * h[::-1]


def _daubechies_q_polynomial(moments: int) -> np.ndarray:
    """Coefficients (highest degree first) of ``Q(z) = z^{N-1} P(y(z))``.

    ``P(y) = sum_{k<N} C(N-1+k, k) y^k`` and ``z y(z) = -(z-1)^2/4``.
    """
    n = moments
    q = np.zeros(1)
    base = np.array([-0.25, 0.5, -0.25])  # -(z-1)^2/4, highest power first
    for k in range(n):
        coefficient = comb(n - 1 + k, k)
        term = np.array([float(coefficient)])
        for _ in range(k):
            term = np.convolve(term, base)
        # multiply by z^{N-1-k}
        term = np.concatenate([term, np.zeros(n - 1 - k)])
        width = max(len(q), len(term))
        q = np.concatenate([np.zeros(width - len(q)), q])
        term = np.concatenate([np.zeros(width - len(term)), term])
        q = q + term
    return q


def _group_reciprocal_roots(roots: np.ndarray) -> list[list[complex]]:
    """Group roots into reciprocal-pair selection units.

    Each unit is a conjugate-closed set of roots strictly inside the unit
    circle; the alternative selection is the reciprocal set outside.
    Real reciprocal pairs give one-element units; complex quadruples give
    two-element (conjugate pair) units.
    """
    inside = [complex(r) for r in roots if abs(r) < 1.0]
    units: list[list[complex]] = []
    used = [False] * len(inside)
    for i, root in enumerate(inside):
        if used[i]:
            continue
        used[i] = True
        if abs(root.imag) < 1e-10:
            units.append([complex(root.real, 0.0)])
            continue
        # find its conjugate among the inside roots
        partner = None
        for j in range(i + 1, len(inside)):
            if not used[j] and abs(inside[j] - root.conjugate()) < 1e-7:
                partner = j
                break
        if partner is None:
            raise ConfigurationError(
                "root grouping failed: missing conjugate partner"
            )
        used[partner] = True
        units.append([root, inside[partner]])
    return units


def _filter_from_roots(moments: int, roots: list[complex]) -> np.ndarray:
    """Build the normalized scaling filter from selected spectral roots."""
    all_roots = [-1.0 + 0.0j] * moments + list(roots)
    coefficients = np.poly(np.array(all_roots))
    h = np.real(coefficients)
    h = h * (np.sqrt(2.0) / np.sum(h))
    return h


def _phase_nonlinearity(h: np.ndarray, num_freqs: int = 256) -> float:
    """Deviation of the filter's phase from linear (symlet criterion)."""
    omega = np.linspace(1e-3, np.pi - 1e-3, num_freqs)
    response = np.array(
        [np.sum(h * np.exp(-1j * w * np.arange(len(h)))) for w in omega]
    )
    phase = np.unwrap(np.angle(response))
    # least-squares linear fit; nonlinearity = residual energy
    design = np.vstack([omega, np.ones_like(omega)]).T
    residual = phase - design @ np.linalg.lstsq(design, phase, rcond=None)[0]
    return float(np.sum(residual**2))


@lru_cache(maxsize=None)
def _daubechies_filter(moments: int) -> tuple[float, ...]:
    """Extremal-phase Daubechies scaling filter with ``moments`` moments."""
    if moments == 1:
        inv_sqrt2 = 1.0 / np.sqrt(2.0)
        return (inv_sqrt2, inv_sqrt2)
    q = _daubechies_q_polynomial(moments)
    roots = np.roots(q)
    inside = [complex(r) for r in roots if abs(r) < 1.0]
    if len(inside) != moments - 1:
        raise ConfigurationError(
            f"spectral factorization failed for db{moments}: "
            f"{len(inside)} interior roots, expected {moments - 1}"
        )
    h = _filter_from_roots(moments, inside)
    # Canonical db filters lead with their largest coefficients; flip if
    # the energy sits at the tail so published tables are matched.
    half = len(h) // 2
    if np.sum(h[:half] ** 2) < np.sum(h[half:] ** 2):
        h = h[::-1]
    return tuple(float(x) for x in h)


@lru_cache(maxsize=None)
def _symlet_filter(moments: int) -> tuple[float, ...]:
    """Least-asymmetric (symlet) scaling filter with ``moments`` moments."""
    if moments < 2:
        raise ConfigurationError("symlets require at least 2 vanishing moments")
    q = _daubechies_q_polynomial(moments)
    roots = np.roots(q)
    units = _group_reciprocal_roots(roots)

    best_h: np.ndarray | None = None
    best_score = np.inf
    for mask in range(1 << len(units)):
        selection: list[complex] = []
        for bit, unit in enumerate(units):
            if mask & (1 << bit):
                selection.extend(1.0 / r.conjugate() for r in unit)
            else:
                selection.extend(unit)
        h = _filter_from_roots(moments, selection)
        score = _phase_nonlinearity(h)
        if score < best_score - 1e-12:
            best_score = score
            best_h = h
    assert best_h is not None
    return tuple(float(x) for x in best_h)


_SUPPORTED_DB = tuple(range(1, 11))
_SUPPORTED_SYM = tuple(range(2, 9))


@lru_cache(maxsize=None)
def get_wavelet(name: str) -> WaveletFilter:
    """Look up an orthonormal wavelet by name (``haar``, ``dbN``, ``symN``)."""
    key = name.strip().lower()
    if key == "haar":
        return WaveletFilter(name="haar", h=_daubechies_filter(1))
    if key.startswith("db"):
        try:
            moments = int(key[2:])
        except ValueError as exc:
            raise ConfigurationError(f"unknown wavelet {name!r}") from exc
        if moments not in _SUPPORTED_DB:
            raise ConfigurationError(
                f"db order {moments} unsupported (1..{_SUPPORTED_DB[-1]})"
            )
        return WaveletFilter(name=key, h=_daubechies_filter(moments))
    if key.startswith("sym"):
        try:
            moments = int(key[3:])
        except ValueError as exc:
            raise ConfigurationError(f"unknown wavelet {name!r}") from exc
        if moments not in _SUPPORTED_SYM:
            raise ConfigurationError(
                f"sym order {moments} unsupported (2..{_SUPPORTED_SYM[-1]})"
            )
        return WaveletFilter(name=key, h=_symlet_filter(moments))
    raise ConfigurationError(f"unknown wavelet {name!r}")
