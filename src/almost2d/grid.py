"""Cubic wavenumber lattice for the unit torus [0,1)^3, as the k3 >= 0 half of ``rfftn``."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


def _axes(line: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A 1-D array along each of the three axes, broadcastable to (n, n, n)."""
    n = len(line)
    return line.reshape(n, 1, 1), line.reshape(1, n, 1), line.reshape(1, 1, n)


@dataclass(frozen=True)
class GridSpec:
    """Uniform n x n x n grid on the unit torus.

    Wavenumbers are integers in [-n/2, n/2-1] along k1 and k2 (numpy FFT
    layout) and 0 ... n/2 along k3, where n/2 stands for the Nyquist mode
    -n/2.  Spectral multipliers use the angular factor 2*pi*|k|.  Every
    lattice array is read-only.
    """

    n: int

    def __post_init__(self):
        if self.n < 4 or self.n % 2 != 0:
            raise ValueError(f"grid size must be even and >= 4, got {self.n}")

    @cached_property
    def k(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Integer wavenumbers along each axis, broadcastable to (n, n, n/2 + 1)."""
        k1, k2, _ = _axes(np.fft.fftfreq(self.n, d=1.0 / self.n))
        k3 = np.fft.rfftfreq(self.n, d=1.0 / self.n).reshape(1, 1, -1)
        return tuple(_read_only(a) for a in (k1, k2, k3))

    @cached_property
    def k_deriv(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Wavenumbers for odd-derivative multipliers.

        The unmatched Nyquist mode n/2 is zeroed so i*k multipliers keep
        real fields real (Hermitian symmetry).
        """
        return tuple(_read_only(np.where(np.abs(ki) == self.n // 2, 0.0, ki)) for ki in self.k)

    @cached_property
    def k_deriv_sq_safe(self) -> np.ndarray:
        """|k_deriv|^2 with its zeros set to 1, shape (n, n, n/2 + 1): the
        divisor of the Leray projection, Biot-Savart and the pressure, whose
        numerators vanish wherever k_deriv does."""
        k1, k2, k3 = self.k_deriv
        ksq = k1**2 + k2**2 + k3**2
        return _read_only(np.where(ksq == 0, 1.0, ksq))

    @cached_property
    def k_sq(self) -> np.ndarray:
        """|k|^2 on the half lattice, shape (n, n, n/2 + 1)."""
        k1, k2, k3 = self.k
        return _read_only(k1**2 + k2**2 + k3**2)

    @cached_property
    def shell_index(self) -> np.ndarray:
        """|k|^2 as int64 on the half lattice, the shell each coefficient is
        binned into."""
        return _read_only(self.k_sq.astype(np.int64))

    @cached_property
    def multiplicity(self) -> np.ndarray:
        """Plancherel weight of each k3 plane, shape (1, 1, n/2 + 1): 1 on the
        self-conjugate planes k3 = 0 and n/2, 2 on the others."""
        k3 = self.k[2]
        return _read_only(np.where((k3 == 0) | (k3 == self.n // 2), 1.0, 2.0))

    @property
    def kc(self) -> int:
        """The 2/3 rule's cutoff (n - 1) // 3, the largest |k| with 3|k| < n: a
        quadratic product of modes with every |k_i| <= kc reaches |k_i| <= 2kc,
        and 2kc - n < -kc, so no product aliases back into the band."""
        return (self.n - 1) // 3

    @cached_property
    def dealias_mask(self) -> np.ndarray:
        """Boolean mask of modes kept by the 2/3 rule: every |k_i| <= kc, that
        is |k_i| < n/3."""
        k1, k2, k3 = self.k
        kc = self.kc
        return _read_only((np.abs(k1) <= kc) & (np.abs(k2) <= kc) & (np.abs(k3) <= kc))

    def coordinates(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Grid point coordinates x_i = j/n, broadcastable to (n, n, n)."""
        return _axes(np.arange(self.n) / self.n)


def _read_only(a: np.ndarray) -> np.ndarray:
    """``a``, marked read-only: lattice arrays are cached and shared."""
    a.setflags(write=False)
    return a


def conjugate_planes(half: np.ndarray) -> np.ndarray:
    """Make the self-conjugate planes k3 = 0 and n/2 of half-spectrum coefficients
    (..., n, n, n/2 + 1) exactly Hermitian in place, and return them: each plane
    keeps its Hermitian part 0.5 (c(k) + conj c(-k)), the part ``irfftn`` reads."""
    n = half.shape[-2]
    neg = -np.arange(n) % n  # index of -k along a k1 or k2 axis
    for plane in (0, n // 2):
        p = half[..., plane]
        half[..., plane] = 0.5 * (p + np.conj(p[..., neg, :][..., neg]))
    return half


def hermitian_defect(coeffs: np.ndarray) -> float:
    """max_k |c(k) - conj c(-k)| over the last three axes of a full coefficient
    array, zero for the coefficients of a real field.  k and -k have the same
    defect, so only k3 >= 0 is read."""
    n = coeffs.shape[-1]
    neg = -np.arange(n) % n  # index of -k along each axis
    mirror = coeffs[..., neg[: n // 2 + 1]][..., neg, :][..., neg, :, :]
    return float(np.max(np.abs(coeffs[..., : n // 2 + 1] - np.conj(mirror))))
