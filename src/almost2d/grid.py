"""Cubic wavenumber lattice for the unit torus [0,1)^3, as the k3 >= 0 half of ``rfftn``."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np


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
        line = np.fft.fftfreq(self.n, d=1.0 / self.n)
        k1, k2 = line.reshape(-1, 1, 1), line.reshape(1, -1, 1)
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
        divisor of the Leray projection, whose numerator vanishes wherever
        k_deriv does."""
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

    @lru_cache(maxsize=8)
    def band(self, K: int) -> Band:
        """The band |k_i| <= K, k3 >= 0, and multipliers on it, cached for the
        process and shared between calls (its arrays are read-only).
        ``band(kc)`` is the 2/3 rule's block and ``band(n // 2)`` the whole
        half spectrum; K is clipped at n/2, where the k >= 0 half of a k1 or
        k2 axis ends and the k < 0 half holds the Nyquist row -n/2."""
        n = self.n
        lo, hi, m = min(K + 1, n // 2), min(K, n // 2), min(K + 1, n // 2 + 1)
        # (band, spectrum) slices of the k >= 0 and k < 0 halves of a k1 or k2 axis
        halves = ((slice(0, lo), slice(0, lo)), (slice(lo, None), slice(n - hi, n)))
        index = np.r_[0:lo, n - hi : n]  # the band's k1 and k2 rows of the lattice
        k_deriv = (self.k_deriv[0][index], self.k_deriv[1][:, index], self.k_deriv[2][..., :m])
        k_sq = self.k_sq[np.ix_(index, index, np.arange(m))]
        kd_sq = k_deriv[0] ** 2 + k_deriv[1] ** 2 + k_deriv[2] ** 2
        with np.errstate(divide="ignore"):
            inv_kderiv_sq = np.where(kd_sq == 0, 0.0, 1.0 / kd_sq)
            omega_h_weight = np.where(k_sq == 0, 0.0, 1.0 / (2 * np.pi * np.sqrt(k_sq)))
        return Band(
            n, (lo + hi, lo + hi, m), halves, tuple(map(_read_only, k_deriv)), _read_only(k_sq),
            _read_only(inv_kderiv_sq), self.multiplicity[..., :m], _read_only(omega_h_weight),
        )


class Band(NamedTuple):
    """A band of the half lattice, |k_i| <= K with k3 >= 0 (``GridSpec.band``),
    and multipliers on it: a (b, b, m) block with k1 and k2 in FFT order (0
    up, then negative) and k3 = 0 .. m - 1.  The 2/3 rule's band is the block
    |k_i| <= kc, (2kc+1, 2kc+1, kc+1): the solver state is zero outside it,
    and cropping a product to it is the 2/3 truncation.  The band |k_i| <=
    n/2 is the whole half spectrum, (n, n, n/2 + 1), which ``pad`` and
    ``crop`` copy whole."""

    n: int
    shape: tuple[int, int, int]
    rows: tuple  # (band slice, spectrum slice) of the k >= 0, then k < 0, k1/k2 rows
    k_deriv: tuple[np.ndarray, np.ndarray, np.ndarray]  # Nyquist zeroed
    k_sq: np.ndarray
    inv_kderiv_sq: np.ndarray  # 1/|k_deriv|^2, 0 where k_deriv = 0
    multiplicity: np.ndarray  # Plancherel weight: 1 on k3 = 0, n/2, else 2 (the grid's)
    omega_h_weight: np.ndarray  # 1/(2 pi |k|), 0 at k = 0

    def _quadrants(self, m: int) -> list:
        """(band index, half-spectrum index) of the four k1/k2 quadrants,
        over m planes: the first m of a block or of the half spectrum."""
        return [
            ((..., b1, b2, slice(None)), (..., s1, s2, slice(0, m)))
            for b1, s1 in self.rows
            for b2, s2 in self.rows
        ]

    def pad(self, block: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Band coefficients (..., b, b, m) written into their rows and planes
        of the half spectrum ``out`` (..., n, n, n/2 + 1), which is written
        nowhere else."""
        for b, s in self._quadrants(block.shape[-1]):
            out[s] = block[b]
        return out

    def crop(self, coeffs: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The band of half-spectrum coefficients (k3 = 0 first), written into
        ``out`` (..., b, b, planes) if given, else into a fresh array."""
        if out is None:
            out = np.empty(coeffs.shape[:-3] + self.shape, dtype=complex)
        for b, s in self._quadrants(out.shape[-1]):
            out[b] = coeffs[s]
        return out

    def k_rows(self, rows: slice) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``k_deriv`` on the band's k1 rows ``rows``."""
        k1, k2, k3 = self.k_deriv
        return k1[rows], k2, k3


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
