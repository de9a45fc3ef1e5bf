"""Cubic wavenumber lattice for the unit torus [0,1)^3."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class GridSpec:
    """Uniform n x n x n grid on the unit torus.

    Wavenumbers are integers k in [-n/2, n/2-1] per axis (numpy FFT layout).
    All spectral multipliers in this package use the angular factor 2*pi*|k|.
    """

    n: int

    def __post_init__(self):
        if self.n < 4 or self.n % 2 != 0:
            raise ValueError(f"grid size must be even and >= 4, got {self.n}")

    @cached_property
    def k(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Integer wavenumbers along each axis, broadcastable to (n, n, n)."""
        kline = np.fft.fftfreq(self.n, d=1.0 / self.n)
        k1 = kline.reshape(self.n, 1, 1)
        k2 = kline.reshape(1, self.n, 1)
        k3 = kline.reshape(1, 1, self.n)
        return k1, k2, k3

    @cached_property
    def k_deriv(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Wavenumbers for odd-derivative multipliers.

        The unmatched Nyquist mode -n/2 is zeroed so i*k multipliers keep
        real fields real (Hermitian symmetry).
        """
        kline = np.fft.fftfreq(self.n, d=1.0 / self.n)
        kline = kline.copy()
        kline[self.n // 2] = 0.0
        k1 = kline.reshape(self.n, 1, 1)
        k2 = kline.reshape(1, self.n, 1)
        k3 = kline.reshape(1, 1, self.n)
        return k1, k2, k3

    @cached_property
    def k_sq(self) -> np.ndarray:
        """|k|^2 on the full lattice, shape (n, n, n)."""
        k1, k2, k3 = self.k
        return k1**2 + k2**2 + k3**2

    @cached_property
    def k_abs(self) -> np.ndarray:
        return np.sqrt(self.k_sq)

    @cached_property
    def dealias_mask(self) -> np.ndarray:
        """Boolean mask of modes kept by the 2/3 rule: every |k_i| <= n/3."""
        k1, k2, k3 = self.k
        cut = self.n / 3.0
        return (np.abs(k1) <= cut) & (np.abs(k2) <= cut) & (np.abs(k3) <= cut)

    def coordinates(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Grid point coordinates x_i = j/n, broadcastable to (n, n, n)."""
        x = np.arange(self.n) / self.n
        return (
            x.reshape(self.n, 1, 1),
            x.reshape(1, self.n, 1),
            x.reshape(1, 1, self.n),
        )


def _reflect(a: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    """a(-k) along the given wavenumber axes of the numpy FFT layout."""
    for axis in axes:
        a = np.roll(np.flip(a, axis=axis), 1, axis=axis)
    return a


def mirror_conjugate(coeffs: np.ndarray) -> np.ndarray:
    """conj(c(-k)) on the last three axes, the Hermitian partner array."""
    return _reflect(np.conj(coeffs), (-3, -2, -1))


def hermitian_symmetrize(coeffs: np.ndarray) -> np.ndarray:
    return 0.5 * (coeffs + mirror_conjugate(coeffs))


def full_spectrum(half: np.ndarray, n: int) -> np.ndarray:
    """The full coefficient array, exactly Hermitian, from its k3 >= 0 half
    ``half = coeffs[..., :n//2 + 1]`` (``numpy.fft.rfftn`` layout, where index
    n/2 on the last axis holds the Nyquist mode k3 = -n/2).

    The k3 = 0 and k3 = n/2 planes are their own mirror images; the Hermitian
    part of each is kept, which is what ``irfftn`` reads from them.
    """
    m = n // 2 + 1
    out = np.empty(half.shape[:-1] + (n,), dtype=complex)
    out[..., :m] = half
    for plane in (0, n // 2):
        p = half[..., plane : plane + 1]
        out[..., plane : plane + 1] = 0.5 * (p + np.conj(_reflect(p, (-3, -2))))
    # out[k1, k2, -j] = conj(half[-k1, -k2, j]) for j = n/2 - 1, ..., 1
    out[..., m:] = np.conj(_reflect(half[..., n // 2 - 1 : 0 : -1], (-3, -2)))
    return out
