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
away on the way out, so they agree with the pair as bits.  A solver part runs
them on its share (``band_parts``): the complex passes on band planes k3 < m
(``band_inverse_planes``, ``band_forward_planes``) and the real ones along the
last axis on x1 slabs (``irfft_k3``, ``rfft_x3``).  The band, its rows and
its pad and crop are ``GridSpec.band(K)``'s.  No function here calls
``numpy.fft``.  Mean zero is read from k = 0 by each operation that needs it
(``is_mean_zero``).
Multipliers k.c, 2 pi i k x c and pi i (k_i c_j + k_j c_i) are written once, as
kernels on coefficients and a ``k_deriv`` triple (``k_dot``, ``curl_coeffs``,
``strain_coeffs``), the first two applied here to the half lattice and all
three by the solver to its band.  Each kernel forms its products in its
result array or one scratch array and adds, subtracts and scales in place,
in the plain expression's order, so it makes no temporary per product and
moves no bit; so does ``leray_project``.
"""

from __future__ import annotations

import os
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

#: Grids with at least this many points per axis run each transform on every
#: core the process may use: a 3-D transform as one threaded pocketfft call, and
#: a solver run as that many parts (``band_parts``), one in the calling thread
#: and the others on the run's pool, each part's 1-D passes on one thread.
#: Below it a run has one part, which the calling thread runs through the same
#: passes, and starts no thread.  Two threads against one on a 2-vCPU VM
#: (pocketfft, 3-D transforms), one ``simulate`` end to end, median of 8
#: alternating pairs: 1.75x slower at n=16, 1.33x slower at n=32, 1.14x faster
#: at n=48 and 1.17x faster at n=64.
#: Threaded output is bit-identical.
THREADED_MIN_N = 48

#: x1-plane points in the slabs a solver part transforms and multiplies at a
#: time: a slab is SLAB_POINTS // n^2 planes high, 8 at n=64, whose samples
#: (6, 8, 64, 64) are 1.5 MB, so a slab's pointwise work reads what its
#: transform just wrote while it is still in cache.  One n=64 RK stage in two
#: parts on a 2-vCPU VM, median of 60 in each of two interleaved orders (ms):
#: height 2: 22.2 / 20.3, 4: 21.4 / 19.1, 8: 20.8 / 18.9, 16: 21.5 / 19.0,
#: 32 (one slab per part): 21.8 / 19.9.  Smaller grids fit a part in one slab,
#: and so pay the per-call cost of the slab passes once.
SLAB_POINTS = 8 * 64 * 64


def _workers(n: int) -> int:
    if n < THREADED_MIN_N:
        return 1
    if hasattr(os, "sched_getaffinity"):  # the cores this process may use
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def band_parts(n: int, b: int, m: int) -> tuple[tuple[slice, ...], tuple[slice, ...],
                                                tuple[tuple[slice, ...], ...]]:
    """How a solver run splits its work on an n-point grid whose band has b
    k1 rows and m planes: (rows, planes, slabs), each part's k1 rows of the
    band, its planes k3 < m and its x1 slabs.

    There are ``_workers(n)`` parts, at most m (one plane each) and at most n
    (one x1 plane each), so no part is empty (b > m).  The slabs are
    SLAB_POINTS // n^2 planes high, at least 1 and at most n // parts, so
    that each part gets one, dealt out in turn; a part's first slab is its
    highest.  Each 1-D line of a band transform lies in one k3 plane or one
    x1 slab, so a split transform equals the whole one as bits; the
    elementwise band work is split by k1 rows, whose inner loops stay
    contiguous.
    """
    count = min(_workers(n), m, n)
    height = max(min(SLAB_POINTS // n**2, n // count), 1)
    slabs = [slice(x, min(x + height, n)) for x in range(0, n, height)]
    return (
        tuple(slice(b * i // count, b * (i + 1) // count) for i in range(count)),
        tuple(slice(m * i // count, m * (i + 1) // count) for i in range(count)),
        tuple(tuple(slabs[i::count]) for i in range(count)),
    )


def rfft3(samples: np.ndarray) -> np.ndarray:
    """k3 >= 0 half-spectrum coefficients (..., n, n, n/2 + 1) of real samples
    over the last three axes, with the 1/n^3 forward normalization."""
    return scipy.fft.rfftn(
        samples, axes=(-3, -2, -1), norm="forward", workers=_workers(samples.shape[-1])
    )


def irfft3(half: np.ndarray, n: int) -> np.ndarray:
    """Real samples (..., n, n, n) from k3 >= 0 half-spectrum coefficients."""
    return scipy.fft.irfftn(
        half, s=(n, n, n), axes=(-3, -2, -1), norm="forward", workers=_workers(n)
    )


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
    """Real samples (..., n) from the k3 axis of ``half``, on one thread: the
    last inverse pass after ``band_inverse_planes``; a solver part passes one
    x1 slab of it."""
    return scipy.fft.irfft(half, n, axis=-1, norm="forward", workers=1)


def rfft_x3(samples: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The real transform of ``samples`` (..., n) along x3, on one thread, its
    planes k3 < m scaled by 1/n^3 into ``out`` (..., m): the first forward
    pass on one x1 slab, written into a compact forward array.  It runs
    unnormalized and the scale is applied once, here, where pocketfft's
    ``rfftn`` applies its factor (per axis, 1/n moves the last bit when n is
    not a power of two)."""
    n = samples.shape[-1]
    lines = scipy.fft.rfft(samples, axis=-1, workers=1)
    # Real and imaginary parts, each scaled as rfftn scales them.
    np.multiply(lines[..., : out.shape[-1]].view(np.float64), 1.0 / n**3,
                out=out.view(np.float64))
    return out


def band_forward_planes(forward: np.ndarray, band: Band, out: np.ndarray) -> np.ndarray:
    """The complex passes of ``rfft3``, cropped to the band, over the planes of
    ``forward`` (..., n, n, m), which ``rfft_x3`` transformed along x3 and
    scaled: x1 over every row, then x2 over the band's k1 rows, in place, then
    the crop to the band into ``out`` (..., b, b, m).  Each line lies in one
    k3 plane, so a solver part passes ``forward`` and ``out`` cut to its
    planes."""
    scipy.fft.fft(forward, axis=-3, overwrite_x=True, workers=1)
    for _, s in band.rows:
        scipy.fft.fft(forward[..., s, :, :], axis=-2, overwrite_x=True, workers=1)
    return band.crop(forward, out)


def is_mean_zero(magnitude: np.ndarray, tol: float) -> bool:
    """The k = 0 test on |half| (c, n, n, n/2 + 1), relative to the largest magnitude."""
    amplitude = float(np.max(magnitude)) or 1.0
    return float(np.max(magnitude[:, 0, 0, 0])) <= tol * amplitude


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


def divergence_defect(u: SpectralVectorField, peak: float | None = None) -> float:
    """max_k |k . uhat(k)| / max_k |uhat(k)|, zero for divergence-free fields.
    ``peak`` is max_k |uhat(k)|, when the caller has already taken it."""
    peak = float(np.max(np.abs(u.half))) if peak is None else peak
    return float(np.max(np.abs(k_dot(u.half, u.grid.k_deriv)))) / (peak if peak > 0 else 1.0)


def leray_project(v: SpectralVectorField) -> tuple[SpectralVectorField, SpectralVectorField]:
    """Helmholtz split v = u_df + grad_part.

    u_df(k) = v(k) - (k.v(k)) k / |k|^2 is divergence-free, grad_part(k) is
    parallel to k.  The k=0 mode (a constant, hence divergence-free) passes
    through to u_df.  The quotient and each product are written into arrays
    made once here.
    """
    k_deriv = v.grid.k_deriv
    dot = k_dot(v.half, k_deriv)
    dot /= v.grid.k_deriv_sq_safe
    grad = np.empty_like(v.half)
    for component, k_i in zip(grad, k_deriv):
        np.multiply(dot, k_i, out=component)
    grad[:, 0, 0, 0] = 0.0
    u_df = np.subtract(v.half, grad)
    return SpectralVectorField(v.grid, u_df), SpectralVectorField(v.grid, grad)


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
