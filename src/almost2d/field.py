"""Spectral vector fields on the unit torus and the operators acting on them.

Coefficients follow the Fourier-series convention
    u(x) = sum_k uhat(k) exp(2*pi*i k.x),   uhat(k) = (1/n^3) sum_x u(x) exp(-2*pi*i k.x),
so hand-computed series coefficients can be compared to stored arrays
literally.  Physical sample arrays are indexed [component, x1, x2, x3]
(x3 fastest in memory).

A field is its grid and the read-only k3 >= 0 half spectrum of a real field,
Hermitian by construction: it is made from samples (``to_spectral``) or from
a half spectrum, never from a full coefficient array, so no operation checks
Hermitian symmetry.  Every field transform goes through one real-data pair,
``rfft3`` / ``irfft3``, and every solver transform through the passes of its
band form: the same pocketfft 1-D passes, in the same order and with the same
factor, run only over the lines that are not zero on the way in or cropped
away on the way out, so they agree with the pair as bits.  Each line of the
complex passes (``band_inverse_planes``, ``band_forward_planes``) lies in one
band plane k3 < m, and each of the real ones along the last axis
(``irfft_k3``, ``rfft_x3``) in one x1 slab, so a caller may run them plane
block by plane block and slab by slab.  Every transform here runs on one
thread and starts none.  The band, its rows and its pad and crop are
``GridSpec.band(K)``'s.  No function here calls ``numpy.fft``.  Mean zero is
read from k = 0 by each operation that needs it (``is_mean_zero``).
Multipliers k.c, 2 pi i k x c and pi i (k_i c_j + k_j c_i) and the Leray
projection c - (k.c / |k|^2) k are written once, as kernels on coefficients
and a ``k_deriv`` triple (``k_dot``, ``curl_coeffs``, ``strain_coeffs``,
``project_coeffs``): all but the strain applied here to the half lattice, the
last three by the solver to its band.  Each forms its products in its result
array or one scratch array and adds, subtracts and scales in place, in the
plain expression's order: no temporary per product, and no bit moved.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.fft

from .grid import Band, GridSpec, conjugate_planes

# Every tolerance: *_DIVFREE_TOL bounds max|k.uhat|/max|uhat|, *_MEAN_TOL |uhat(0)|/max|uhat|.
DIVFREE_TOL = 1e-10  # solver inputs: the isometries they feed hold to 1e-10
NORM_DIVFREE_TOL = 1e-8  # norm battery input: the defect enters ||curl u||^2 only squared
CONSTRUCTION_DIVFREE_TOL = 1e-12  # modes solenoidal by construction: above roundoff is a bug
MEAN_TOL = 1e-13  # s < 0 Sobolev and Besov norms diverge on a mean; transforms leave ~1e-16
INITIAL_MEAN_TOL = 1e-12  # the solver drops the initial mean, so this only rejects a real one
TWO_D_TOL = 1e-13  # max|uhat(k3 != 0)|/max|uhat| of a 2-D base field: transforms leave ~1e-16
T_END_LATTICE_TOL = 1e-9  # |t_end/dt - steps|/steps: a decimal dt such as 0.01 leaves ~1e-16
DECAY_SLACK_TOL = 1e-6  # dE/dt <= 0 relative to max(|dE/dt|, E, 1): differences err O(dt^2)
GRONWALL_2D_TOL = 1e-13  # ||omega_h(0)|| / sqrt(max(E0, 1)) at or below which data are 2-D
GRONWALL_2D_GROWTH_TOL = 1e-12  # the same ratio after t = 0: 2-D data stay 2-D to roundoff
GRONWALL_LOG_TOL = 1e-6  # Gronwall log-ratio slack: the envelope's trapezoid quadrature error
LP_MAJORANT_TOL = 1e-9  # Hilbert left side over its Lp majorant (log scale): derivation margin
NODE_DIVFREE_TOL = 1e-14  # xi . what at quadrature nodes vanishes identically up to one rounding
QUADRATURE_TOL = 1e-8  # quadrature against closed forms: the acceptance oracle's tolerance
MAJORANT_TOL = 1e-10  # relative slack of a quadrature value or torus norm under its majorant


def rfft3(samples: np.ndarray) -> np.ndarray:
    """k3 >= 0 half-spectrum coefficients (..., n, n, n/2 + 1) of real samples
    over the last three axes, with the 1/n^3 forward normalization."""
    return scipy.fft.rfftn(samples, axes=(-3, -2, -1), norm="forward", workers=1)


def irfft3(half: np.ndarray, n: int) -> np.ndarray:
    """Real samples (..., n, n, n) from k3 >= 0 half-spectrum coefficients."""
    return scipy.fft.irfftn(half, s=(n, n, n), axes=(-3, -2, -1), norm="forward", workers=1)


def band_inverse_planes(block: np.ndarray, band: Band, half: np.ndarray) -> np.ndarray:
    """The complex passes of ``irfft3`` of coefficients (..., b, b, m) on
    ``band`` zero-padded to the half spectrum, over the planes of ``block``,
    k3 < m of the work array ``half`` (..., n, n, n/2 + 1): clear the off-band
    part that an earlier call left there, pad the band, then k1 over the
    band's k2 rows and k2 over every row, in place (scipy's pocketfft writes
    a complex input given ``overwrite_x``).  These are pocketfft's passes for
    ``irfftn``, in its order and with its unit factor, with the lines that
    are zero skipped; ``irfft_k3`` makes the last.  Planes k3 >= m of
    ``half`` are never written and must be zero.  Each line lies in one k3
    plane, so a solver part passes a block and ``half`` cut to its planes."""
    m = block.shape[-1]
    (_, low), (_, high) = band.rows
    gap = slice(low.stop, high.start)  # the rows off the band, none when K >= n/2
    planes = half[..., :m]
    planes[..., gap, :, :] = 0.0
    for s in (low, high):
        planes[..., s, gap, :] = 0.0
    band.pad(block, out=half)
    for s in (low, high):
        scipy.fft.ifft(half[..., s, :m], axis=-3, norm="forward", overwrite_x=True, workers=1)
    scipy.fft.ifft(planes, axis=-2, norm="forward", overwrite_x=True, workers=1)
    return half


def irfft_k3(half: np.ndarray, n: int) -> np.ndarray:
    """Real samples (..., n) from the k3 axis of ``half``: the last inverse
    pass after ``band_inverse_planes``; a solver part passes one x1 slab of
    it."""
    return scipy.fft.irfft(half, n, axis=-1, norm="forward", workers=1)


def rfft_x3(samples: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The real transform of ``samples`` (..., n) along x3, its planes k3 < m
    scaled by 1/n^3 into ``out`` (..., m): the first forward pass on one x1
    slab, written into the planes k3 < m of a half-spectrum work array.  It
    runs unnormalized and the scale is applied once, here, where pocketfft's
    ``rfftn`` applies its factor (per axis, 1/n moves the last bit when n is
    not a power of two), in place on the contiguous transform, before the
    copy into the strided ``out``."""
    n = samples.shape[-1]
    lines = scipy.fft.rfft(samples, axis=-1, workers=1)
    # Real and imaginary parts, each scaled as rfftn scales them.
    parts = lines.view(np.float64)
    np.multiply(parts, 1.0 / n**3, out=parts)
    out[...] = lines[..., : out.shape[-1]]
    return out


def band_forward_planes(forward: np.ndarray, band: Band, out: np.ndarray) -> np.ndarray:
    """The complex passes of ``rfft3``, cropped to the band, over the planes of
    ``forward`` (..., n, n, m), which ``rfft_x3`` transformed along x3 and
    scaled (the solver's are the planes k3 < m of its work array): x1 over
    every row, then x2 over the band's k1 rows, in place, then the crop to
    the band into ``out`` (..., b, b, m).  Each line lies in one k3 plane, so
    a solver part passes ``forward`` and ``out`` cut to its planes."""
    scipy.fft.fft(forward, axis=-3, overwrite_x=True, workers=1)
    for _, s in band.rows:
        scipy.fft.fft(forward[..., s, :, :], axis=-2, overwrite_x=True, workers=1)
    return band.crop(forward, out)


def is_mean_zero(k0: np.ndarray, peak: float, tol: float) -> bool:
    """The k = 0 test on the c magnitudes ``k0`` at k = 0, relative to
    ``peak``, the field's largest magnitude (1 for the zero field)."""
    return float(np.max(k0)) <= tol * (peak or 1.0)


@dataclass(frozen=True)
class SpectralVectorField:
    """Fourier coefficients of a real three-component field: the k3 >= 0 half
    spectrum of ``rfftn``, the other half being its conjugate.  The array is
    marked read-only when the field is made, so a field never changes."""

    grid: GridSpec
    half: np.ndarray  # complex, shape (3, n, n, n/2 + 1), read-only

    def __post_init__(self):
        n = self.grid.n
        if self.half.shape != (3, n, n, n // 2 + 1):
            raise ValueError(
                f"half-spectrum array shape {self.half.shape} does not match grid n={n}"
            )
        self.half.setflags(write=False)

    def amplitude(self) -> float:
        m = float(np.max(np.abs(self.half)))
        return m if m > 0 else 1.0

    def __add__(self, other: "SpectralVectorField") -> "SpectralVectorField":
        _check_same_grid(self, other)
        return SpectralVectorField(self.grid, self.half + other.half)

    def __mul__(self, scalar: float) -> "SpectralVectorField":
        return SpectralVectorField(self.grid, self.half * scalar)

    __rmul__ = __mul__


@dataclass
class PhysicalVectorField:
    """Real samples at the n^3 grid points, indexed [component, x1, x2, x3]."""

    grid: GridSpec
    samples: np.ndarray  # float64, shape (3, n, n, n)

    def __post_init__(self):
        n = self.grid.n
        if self.samples.shape != (3, n, n, n):
            raise ValueError(
                f"sample array shape {self.samples.shape} does not match grid n={n}"
            )


#: The slot of each strain component S_ij, i <= j, in a (6, ...) strain array:
#: S11, S12, S13, S22, S23, S33.
STRAIN_SLOTS = {(1, 1): 0, (1, 2): 1, (1, 3): 2, (2, 2): 3, (2, 3): 4, (3, 3): 5}
#: The weights by slot that restore the full symmetric-matrix sums.
FROBENIUS_WEIGHTS = (1.0, 2.0, 2.0, 1.0, 2.0, 1.0)


def _check_same_grid(a, b) -> None:
    if a.grid.n != b.grid.n:
        raise ValueError(f"grid mismatch: {a.grid.n} vs {b.grid.n}")


def to_spectral(f: PhysicalVectorField) -> SpectralVectorField:
    """Forward DFT (1/n^3 normalization) onto the half spectrum, its
    self-conjugate planes made exactly Hermitian; k = 0 as computed."""
    if not np.all(np.isfinite(f.samples)):
        raise ValueError("physical samples contain non-finite values")
    return SpectralVectorField(f.grid, conjugate_planes(rfft3(f.samples)))


def to_physical(u: SpectralVectorField) -> PhysicalVectorField:
    """Inverse transform of the half spectrum."""
    return PhysicalVectorField(u.grid, irfft3(u.half, u.grid.n))


def k_dot(c: np.ndarray, k_deriv: tuple) -> np.ndarray:
    """k . c(k) of coefficients (3, ...) on the lattice of ``k_deriv``:
    (k1 c[0] + k2 c[1]) + k3 c[2], the products formed in the result or one
    scratch array and added in place."""
    k1, k2, k3 = k_deriv
    out = np.multiply(k1, c[0])
    term = np.multiply(k2, c[1])
    out += term
    out += np.multiply(k3, c[2], out=term)
    return out


def curl_coeffs(c: np.ndarray, k_deriv: tuple, out: np.ndarray | None = None) -> np.ndarray:
    """Curl multiplier 2*pi*i k x c(k), written into ``out`` (3, ...) if given.
    Each component's first product is formed in ``out``, the second in one
    scratch array and subtracted in place, then 2*pi*i is applied in place."""
    k1, k2, k3 = k_deriv
    out = np.empty(c.shape, dtype=complex) if out is None else out
    term = np.empty(c.shape[1:], dtype=complex)
    for slot, (ka, a, kb, b) in enumerate(
        ((k2, c[2], k3, c[1]), (k3, c[0], k1, c[2]), (k1, c[1], k2, c[0]))
    ):
        np.multiply(ka, a, out=out[slot])
        out[slot] -= np.multiply(kb, b, out=term)
    out *= 2j * np.pi
    return out


def strain_coeffs(c: np.ndarray, k_deriv: tuple, out: np.ndarray | None = None) -> np.ndarray:
    """Strain multiplier pi*i (k_i c_j + k_j c_i), components (6, ...) in
    ``STRAIN_SLOTS`` order, written into ``out`` if given.  The first product
    is formed in ``out``; a diagonal adds it to itself, an off-diagonal adds
    the second, formed in the S33 slot, which is written last.  Then pi*i is
    applied in place."""
    out = np.empty((6,) + c.shape[1:], dtype=complex) if out is None else out
    last = out[STRAIN_SLOTS[(3, 3)]]
    for (i, j), slot in STRAIN_SLOTS.items():  # S33 last
        np.multiply(k_deriv[i - 1], c[j - 1], out=out[slot])
        if i == j:
            out[slot] += out[slot]
        else:
            out[slot] += np.multiply(k_deriv[j - 1], c[i - 1], out=last)
    out *= 1j * np.pi
    return out


def project_coeffs(c: np.ndarray, k_deriv: tuple, k_sq_safe: np.ndarray,
                   out: np.ndarray | None = None) -> np.ndarray:
    """Leray projection c - (k.c / k_sq_safe) k, k_sq_safe = |k_deriv|^2 (1 where
    0), of coefficients (3, ...) on the lattice of ``k_deriv``: the quotient in
    k.c's array, each product in ``out`` (made after it if None), then c - it."""
    dot = k_dot(c, k_deriv)
    dot /= k_sq_safe
    out = np.empty(c.shape, dtype=complex) if out is None else out
    for component, c_i, k_i in zip(out, c, k_deriv):
        np.multiply(dot, k_i, out=component)
        np.subtract(c_i, component, out=component)
    return out


def divergence_defect(u: SpectralVectorField, peak: float | None = None) -> float:
    """max_k |k . uhat(k)| / max_k |uhat(k)|, zero for divergence-free fields.
    ``peak`` is max_k |uhat(k)|, when the caller has already taken it."""
    peak = float(np.max(np.abs(u.half))) if peak is None else peak
    return float(np.max(np.abs(k_dot(u.half, u.grid.k_deriv)))) / (peak if peak > 0 else 1.0)


def leray_project(v: SpectralVectorField) -> SpectralVectorField:
    """The divergence-free part v - (k.v / |k|^2) k of v, ``project_coeffs``
    into a new array; the k = 0 mode, a constant, passes through."""
    grid = v.grid
    return SpectralVectorField(grid, project_coeffs(v.half, grid.k_deriv, grid.k_deriv_sq_safe))


def curl(u: SpectralVectorField) -> SpectralVectorField:
    """Spectral curl, multiplier 2*pi*i k x uhat(k)."""
    return SpectralVectorField(u.grid, curl_coeffs(u.half, u.grid.k_deriv))


def heat_semigroup(u: SpectralVectorField, t: float) -> SpectralVectorField:
    """Heat flow for time t, exp(-4 pi^2 m t) per shell m = |k|^2 (``shell_index``)."""
    if t < 0:
        raise ValueError(f"heat semigroup requires t >= 0, got {t}")
    shells = np.arange(3 * (u.grid.n // 2) ** 2 + 1)
    factor = np.exp(-4 * np.pi**2 * shells * t)[u.grid.shell_index]
    return SpectralVectorField(u.grid, u.half * factor)
