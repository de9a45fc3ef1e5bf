"""Explicit divergence-free fields with closed-form norms.

Every generator returns a mean-zero, divergence-free spectral field, written
on the k3 >= 0 half spectrum, so generated data doubles as a test oracle for
the norm machinery.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .field import (
    CONSTRUCTION_DIVFREE_TOL, TWO_D_TOL, SpectralVectorField, divergence_defect, leray_project,
    to_physical,
)
from .grid import GridSpec
from .norms import samples_lebesgue_norm


def _empty(grid: GridSpec) -> np.ndarray:
    return np.zeros((3, grid.n, grid.n, grid.n // 2 + 1), dtype=complex)


def _mode_index(grid: GridSpec, k: tuple[int, int, int]) -> tuple[int, int, int]:
    n = grid.n
    for ki in k:
        if not -n // 2 <= ki <= n // 2 - 1:
            raise ValueError(f"mode {k} not resolved by grid n={n}")
    return tuple(ki % n for ki in k)


def set_mode_pair(
    half: np.ndarray, grid: GridSpec, k: tuple[int, int, int], value: np.ndarray
) -> None:
    """Write uhat(k) = value and uhat(-k) = conj(value) where each falls in the half spectrum."""
    kpos = _mode_index(grid, k)
    kneg = _mode_index(grid, tuple(-ki for ki in k))
    for index, v in ((kpos, value), (kneg, np.conj(value))):
        if index[2] <= grid.n // 2:
            half[(slice(None),) + index] = v


def _require_amplitude(amplitude: float) -> None:
    """Refuse an amplitude not finite or subnormal: its field has no usable norms."""
    if not math.isfinite(amplitude) or 0 < abs(amplitude) < sys.float_info.min:
        raise ValueError(f"amplitude must be finite, and 0 or at least {sys.float_info.min!r} "
                         f"in magnitude, got {amplitude!r}")


def taylor_green_2d(grid: GridSpec, amplitude: float = 1.0) -> SpectralVectorField:
    """u = A (sin(2pi x1) cos(2pi x2), -cos(2pi x1) sin(2pi x2), 0).

    Closed forms at A=1: K0 = 1/4, E0 = 2 pi^2, omega_h = 0.
    """
    _require_amplitude(amplitude)
    coeffs = _empty(grid)
    a = amplitude / 4.0
    # sin(a)cos(b) = (1/4i)(e^{i(a+b)} + e^{i(a-b)} - e^{-i(a-b)} - e^{-i(a+b)})
    set_mode_pair(coeffs, grid, (1, 1, 0), np.array([-1j * a, 1j * a, 0.0]))
    set_mode_pair(coeffs, grid, (1, -1, 0), np.array([-1j * a, -1j * a, 0.0]))
    return SpectralVectorField(grid, coeffs)


def un_family(n: int, grid: GridSpec) -> SpectralVectorField:
    """Two-mode field uhat(+-(1,n,1)) = a_n (n,-1,0), with
    a_n = sqrt( sqrt(n^2+2) / (4 pi (n^2+1)) ).

    Closed forms: ||omega_h||_{H^-1/2} = 1, ||u||_{H^1/2}^2 = n^2 + 2,
    and the k3 = 0 plane restriction vanishes.
    """
    if n < 1:
        raise ValueError(f"family index must be >= 1, got {n}")
    if n > grid.n // 2 - 1:
        raise ValueError(f"mode k2={n} not resolved by grid n={grid.n}")
    a_n = math.sqrt(math.sqrt(n**2 + 2) / (4 * math.pi * (n**2 + 1)))
    coeffs = _empty(grid)
    set_mode_pair(coeffs, grid, (1, n, 1), a_n * np.array([n, -1.0, 0.0]))
    return SpectralVectorField(grid, coeffs)


def large_almost_2d(n: int, grid: GridSpec) -> SpectralVectorField:
    """u = n (1,-1,0) cos(2pi(x1+x2)) + exp(-n^5) (1,-2,1) cos(2pi(x1+x2+x3)).

    The perturbation amplitude exp(-n^5) is used literally; it underflows to
    zero in float64 for n >= 4, making the field exactly two dimensional.
    """
    if n < 1:
        raise ValueError(f"family index must be >= 1, got {n}")
    coeffs = _empty(grid)
    set_mode_pair(coeffs, grid, (1, 1, 0), (n / 2.0) * np.array([1.0, -1.0, 0.0]))
    eps = math.exp(-float(n) ** 5)
    set_mode_pair(coeffs, grid, (1, 1, 1), (eps / 2.0) * np.array([1.0, -2.0, 1.0]))
    return SpectralVectorField(grid, coeffs)


def two_d_plus_perturbation(
    v2d: SpectralVectorField, w: SpectralVectorField, delta: float
) -> SpectralVectorField:
    """u = v2d + delta * w for an x3-independent base v2d."""
    if float(np.max(np.abs(v2d.half[..., 1:]))) > TWO_D_TOL * v2d.amplitude():
        raise ValueError("base field must be independent of x3 (support on k3=0)")
    return v2d + delta * w


@dataclass
class RescaledVorticity:
    """Vorticity stretched vertically by an integer factor.

    The stretched field lives on an m-times-taller torus; it is stored on the
    unit torus through the measure-preserving index map k3 -> m*k3 (i.e. the
    stored field at height y3 is the tall-torus field at m*y3).  Lebesgue
    norms of the tall-torus object are the stored-field grid norms times
    m^(1/q); the sup norm is unchanged.  All norms share one transform.
    """

    field: SpectralVectorField
    stretch: int

    def __post_init__(self):
        self._samples = to_physical(self.field).samples

    def lebesgue_norm(self, q: float) -> float:
        return self._tall_torus_norm(self._samples, q)

    def component_lebesgue_norm(self, part: str, q: float) -> float:
        if part == "horizontal":
            return self._tall_torus_norm(self._samples[:2], q)
        if part == "vertical":
            return self._tall_torus_norm(self._samples[2:], q)
        raise ValueError(f"unknown part {part!r}")

    def _tall_torus_norm(self, samples: np.ndarray, q: float) -> float:
        base = samples_lebesgue_norm(samples, q)
        return base if q == np.inf else self.stretch ** (1.0 / q) * base


def rescaled_vorticity(
    base_omega: SpectralVectorField, m: int, a: float
) -> RescaledVorticity:
    """eps^(2/3) log(1/eps^a)^(1/4) (eps w1, eps w2, w3)(x1, x2, eps*x3)
    with eps = 1/m.

    m = 1 is rejected: log(1) = 0 forces the zero field.  The grid must
    resolve the stretched vertical modes m*k3.
    """
    if m < 2:
        raise ValueError(f"stretch factor must be an integer >= 2, got {m}")
    if not 0 < a < math.inf:
        raise ValueError(f"log exponent must be positive and finite, got {a}")
    grid = base_omega.grid
    n = grid.n
    eps = 1.0 / m
    prefactor = eps ** (2.0 / 3.0) * (a * math.log(m)) ** 0.25
    if not math.isfinite(prefactor):
        raise ValueError(f"prefactor eps^(2/3) log(m^a)^(1/4) overflows at a={a!r}, m={m}")

    src = base_omega.half
    out = _empty(grid)
    for k3 in range(n // 2 + 1):  # k3 >= 0 maps to m*k3 >= 0, and -k3 to its mirror
        if np.max(np.abs(src[..., k3])) == 0.0:
            continue
        k3_new = m * k3
        if k3_new > n // 2 - 1:
            raise ValueError(
                f"stretched mode k3={k3_new} not resolved by grid n={n}"
            )
        out[:2, :, :, k3_new] += eps * src[:2, :, :, k3]
        out[2, :, :, k3_new] += src[2, :, :, k3]
    out *= prefactor
    field = SpectralVectorField(grid, out)
    return RescaledVorticity(field, m)


def helical_base_vorticity(grid: GridSpec) -> SpectralVectorField:
    """omega = (cos(2pi x3), sin(2pi x3), sin(2pi(x1+x2))).

    Divergence-free with |omega(x)| independent of x3, so vertical
    subsampling integrates its fractional Lq powers exactly; the reference
    base for rescaling sweeps.
    """
    coeffs = _empty(grid)
    set_mode_pair(coeffs, grid, (0, 0, 1), np.array([0.5, 1.0 / 2j, 0.0]))
    set_mode_pair(coeffs, grid, (1, 1, 0), np.array([0.0, 0.0, 1.0 / 2j]))
    return SpectralVectorField(grid, coeffs)


def annulus_analog(n: int, grid: GridSpec) -> SpectralVectorField:
    """Lattice shell field mirroring the thin-annulus family.

    Modes with rho <= sqrt(k1^2+k2^2) <= 2*rho on the planes |k3| <= 1 (the
    lattice floor of the continuum thinness |z| < 1/n) carry
    what(k) = B (e3 - (k3/r) e_r), divergence-free mode by mode.  The L2
    mass is normalized to 4 loglog(n) and the shell radius dilates slowly,
    rho = 7.5 loglog(n)^(1/2).  That balance reproduces the continuum
    family's trends on the lattice: the heat-kernel Besov norm (which sees
    mass/rho) grows, while the horizontal component (relative size k3/r per
    mode, so mass/rho^2 in Lq and mass/rho^3 in the critical Hilbert norm)
    and with it both regularity-criterion quantities fall.
    """
    if n < 3:
        raise ValueError(f"family index must be >= 3 (loglog undefined below), got {n}")
    loglog = math.log(math.log(n))
    rho = 7.5 * math.sqrt(loglog)
    if 2 * rho > grid.n // 2 - 1:
        raise ValueError(
            f"shell radius 2*rho={2 * rho:.2f} not resolved by grid n={grid.n}"
        )

    kline = np.fft.fftfreq(grid.n, d=1.0 / grid.n).astype(int)
    # sqrt of the exact integer k1^2 + k2^2 is math.hypot(k1, k2) as bits.
    r = np.sqrt((kline[:, None] ** 2 + kline[None, :] ** 2).astype(float))
    i1, i2 = np.nonzero((rho <= r) & (r <= 2 * rho))  # C order: k1 rows, then k2
    if not i1.size:
        raise ValueError(f"empty lattice shell for n={n}, rho={rho}")
    r = r[i1, i2]

    # Each point carries the modes k3 = -1, 0, 1, summed in that order as floats.
    mass = sum(1.0 + (k3 / x) ** 2 for x in r.tolist() for k3 in (-1, 0, 1))
    amp = math.sqrt(4.0 * loglog / mass)

    # what(-k) = what(k) is real, so each mode is its own conjugate partner
    # and the modes with k3 >= 0 are the half spectrum.
    coeffs = _empty(grid)
    e_r = np.stack([kline[i1] / r, kline[i2] / r, np.zeros_like(r)])
    e_3 = np.array([[0.0], [0.0], [1.0]])
    for k3 in (0, 1):
        coeffs[:, i1, i2, k3] = amp * (e_3 - (k3 / r) * e_r)
    field = SpectralVectorField(grid, coeffs)
    # The shell stays inside |k_i| < n/2, where k_deriv is the plain lattice.
    if divergence_defect(field) > CONSTRUCTION_DIVFREE_TOL:
        raise AssertionError("annulus construction produced a non-solenoidal mode")
    return field


def random_divergence_free(
    grid: GridSpec, seed: int, kmax: int | None = None, amplitude: float = 1.0
) -> SpectralVectorField:
    """Seeded band-limited random field: Gaussian coefficients on the modes
    with every |k_i| <= kmax, made Hermitian (real), then Leray
    projected and recentered to mean zero."""
    _require_amplitude(amplitude)
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    n = grid.n
    if kmax is None:
        kmax = max(1, n // 4)
    if kmax > n // 2 - 1:
        raise ValueError(f"kmax={kmax} not resolved by grid n={n}")
    # The Hermitian part 0.5 (c(k) + conj c(-k)) of c = real + i imag on the
    # band's half, real and imag each a (3, n, n, n) standard normal draw.
    kline = np.fft.fftfreq(n, d=1.0 / n).astype(int)
    rows = np.flatnonzero(np.abs(kline) <= kmax)  # closed under k -> -k
    planes = np.arange(kmax + 1)
    # The draws are made an (n, n) x1 plane at a time, in the stream's order;
    # only the planes in rows, which the block and its mirror read, are kept.
    slot = np.full(n, -1)
    slot[rows] = np.arange(len(rows))
    kept = np.empty((2, 3, len(rows), n, n))
    spare = np.empty((n, n))
    rng = np.random.default_rng(seed)
    for component in kept.reshape(6, len(rows), n, n):
        for x1 in range(n):
            rng.standard_normal(out=component[slot[x1]] if slot[x1] >= 0 else spare)
    real, imag = kept
    block = (slice(None),) + np.ix_(slot[rows], rows, planes)
    mirror = (slice(None),) + np.ix_(slot[-rows % n], -rows % n, -planes % n)
    coeffs = _empty(grid)
    coeffs[(slice(None),) + np.ix_(rows, rows, planes)] = 0.5 * (
        real[block] + 1j * imag[block] + np.conj(real[mirror] + 1j * imag[mirror]))
    coeffs[:, 0, 0, 0] = 0.0
    u = SpectralVectorField(grid, coeffs)
    # The draws go before the projection, and the block with it; component,
    # real and imag are views of kept.
    del kept, real, imag, spare, component, coeffs
    u = leray_project(u)
    scale = float(np.max(np.abs(u.half)))
    if scale > 0:
        u = u * (amplitude / scale)
    return u
