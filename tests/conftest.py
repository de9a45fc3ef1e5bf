import math
import threading
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import pytest
import scipy.fft

from almost2d import GridSpec, SpectralVectorField, curl, lebesgue_norm, run
from almost2d import solver
from almost2d.criteria import (
    CriterionReport, Envelopes, _log_verdict, _require_valid_inputs, constants,
    gamma2d_from_norms,
)
from almost2d.families import random_divergence_free
from almost2d.field import (
    FROBENIUS_WEIGHTS, STRAIN_SLOTS, curl_coeffs, irfft3, k_dot, rfft3, strain_coeffs,
)
from almost2d.grid import conjugate_planes
from almost2d.norms import ShellSpectrum, field_summary
from almost2d.solver import _lattice, _stage, nonlinear_term
from almost2d.wholespace import QuadratureSpec

HERMITIAN_TOL = 1e-10  # over the sample rms: transforms leave ~1e-16, a complex field O(1)


@pytest.fixture(scope="session")
def grid16():
    return GridSpec(16)


@pytest.fixture(scope="session")
def grid24():
    return GridSpec(24)


@pytest.fixture(scope="session")
def grid32():
    return GridSpec(32)


def seeded_fields(grid, count, kmax=5, amplitude=1.0, base_seed=7000):
    """Deterministic batch of divergence-free mean-zero test fields."""
    return [
        random_divergence_free(grid, base_seed + i, kmax=kmax, amplitude=amplitude)
        for i in range(count)
    ]


def random_physical(grid, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((3, grid.n, grid.n, grid.n))


def full_coeffs(x):
    """Full-lattice coefficients (..., n, n, n) of a field (or of a half-spectrum
    array), rebuilt by a ``numpy.fft`` round trip, irfftn then fftn: an oracle
    independent of the package's transform pair and of its mirroring.  Fresh
    and writable; exact zeros of the half come back as roundoff."""
    half = x.half if isinstance(x, SpectralVectorField) else x
    n = half.shape[-2]
    axes = (-3, -2, -1)
    return np.fft.fftn(np.fft.irfftn(half, s=(n, n, n), axes=axes), axes=axes)


def two_thirds_mask(grid):
    """The modes the 2/3 rule keeps on the half lattice, written out from the
    wavenumbers alone: every |k_i| < n/3."""
    k1, k2, k3 = grid.k
    n = grid.n
    return (3 * np.abs(k1) < n) & (3 * np.abs(k2) < n) & (3 * np.abs(k3) < n)


def full_wavenumbers(n):
    """Integer wavenumbers of the full (n, n, n) lattice, numpy FFT order."""
    k = np.fft.fftfreq(n, d=1.0 / n)
    return k[:, None, None], k[None, :, None], k[None, None, :]


def _reflect(a):
    """a(-k) over the last three axes of a full coefficient array."""
    for axis in (-3, -2, -1):
        a = np.roll(np.flip(a, axis=axis), 1, axis=axis)
    return a


def hermitian_defect(coeffs):
    """Max |c(k) - conj(c(-k))| of a full array, zero for a real field."""
    return float(np.max(np.abs(coeffs - np.conj(_reflect(coeffs)))))


def from_full_coeffs(grid: GridSpec, coeffs: np.ndarray) -> SpectralVectorField:
    """The field of full-lattice coefficients (3, n, n, n), such as mode pairs
    written out by hand.  Rejects coefficients of a non-real field:
    max_k |c(k) - conj c(-k)| against HERMITIAN_TOL times max(rms, 1), where
    the sample rms is sqrt(sum |c|^2) by Plancherel."""
    n = grid.n
    if coeffs.shape != (3, n, n, n):
        raise ValueError(f"coefficient array shape {coeffs.shape} does not match grid n={n}")
    defect = hermitian_defect(coeffs)
    rms = math.sqrt(float(np.vdot(coeffs, coeffs).real))
    if defect > HERMITIAN_TOL * max(rms, 1.0):
        raise ValueError(f"Hermitian symmetry violated: coefficient defect {defect:.3e}")
    return SpectralVectorField(grid, conjugate_planes(coeffs[..., : n // 2 + 1].copy()))


def plane_defect(half):
    """Max |c(k) - conj c(-k)| over the self-conjugate planes k3 = 0 and n/2
    of a half-spectrum array: zero when the field it stores is real."""
    n = half.shape[-2]
    neg = -np.arange(n) % n
    planes = (half[..., 0], half[..., n // 2])
    return max(float(np.max(np.abs(p - np.conj(p[..., neg, :][..., neg])))) for p in planes)


def padded(band, block):
    """Band coefficients (..., b, b, m) in a fresh half spectrum
    (..., n, n, n/2 + 1), zero off the band."""
    n = band.n
    return band.pad(block, np.zeros(block.shape[:-3] + (n, n, n // 2 + 1), dtype=complex))


@pytest.fixture
def run_with_final(monkeypatch):
    """``run`` that also returns the field the run ends with: (series, final
    field).  Every run ends on a diagnostics row, the row at t_end or the row
    that stops it, so the band state that the calling thread's last
    ``_spectral_diagnostics`` call read is the last state, padded here.  One
    spy per test, keyed by thread, so concurrent runs keep their own."""
    last = {}
    diagnostics = solver._spectral_diagnostics

    def spy(c, stage):
        last[threading.get_ident()] = (c, stage.lat)
        return diagnostics(c, stage)

    monkeypatch.setattr(solver, "_spectral_diagnostics", spy)

    def run_with_final(u0, cfg):
        series = run(u0, cfg)
        c, lat = last.pop(threading.get_ident())
        return series, SpectralVectorField(u0.grid, conjugate_planes(padded(lat, c)))

    return run_with_final


def half_spectrum(coeffs):
    """The k3 >= 0 half (``numpy.fft.rfftn`` layout) of a coefficient array."""
    n = coeffs.shape[-1]
    return coeffs[..., : n // 2 + 1].copy()


def zeroed(u, index):
    """A copy of field u with ``u.half[index]`` set to zero."""
    half = u.half.copy()
    half[index] = 0.0
    return SpectralVectorField(u.grid, half)


def coordinates(grid):
    """Grid point coordinates x_i = j/n, broadcastable to (n, n, n)."""
    x = np.arange(grid.n) / grid.n
    return x.reshape(-1, 1, 1), x.reshape(1, -1, 1), x.reshape(1, 1, -1)


# Operators of the paper's anisotropic statements (Prop. 3.x), which no verb
# runs: the references the acceptance tests and the norm tests compare with.


def sobolev_norm(u: SpectralVectorField, s: float) -> float:
    """Homogeneous Sobolev norm of order s of a whole field on the torus."""
    return math.sqrt(ShellSpectrum(u.grid, u.half).sobolev_sq(s).sum())


def p2d_split(u: SpectralVectorField) -> tuple[SpectralVectorField, SpectralVectorField]:
    """Vertical-average projection as two whole fields, (the k3 = 0 plane,
    the remainder); they sum to u exactly.  iftimie_check reads the same two
    norms from ShellSpectrum's plane blocks of u instead."""
    plane = u.grid.k[2] == 0
    return tuple(SpectralVectorField(u.grid, u.half * part) for part in (plane, ~plane))


def gradient_of_component(u: SpectralVectorField, i: int) -> SpectralVectorField:
    """grad(u_i) as a spectral vector field."""
    k1, k2, k3 = u.grid.k_deriv
    c = u.half[i]
    return SpectralVectorField(u.grid, 2j * np.pi * np.stack([k1 * c, k2 * c, k3 * c]))


def partial3(u: SpectralVectorField) -> SpectralVectorField:
    """d/dx3 applied componentwise."""
    return SpectralVectorField(u.grid, 2j * np.pi * u.grid.k_deriv[2] * u.half)


class StrainField(NamedTuple):
    """Six independent strain components as half-spectrum scalar fields, in
    ``STRAIN_SLOTS`` order."""

    grid: GridSpec
    comps: np.ndarray  # complex, shape (6, n, n, n/2 + 1)


def strain(u: SpectralVectorField) -> StrainField:
    """Symmetric velocity gradient, Shat_ij = pi*i (k_i uhat_j + k_j uhat_i)."""
    return StrainField(u.grid, strain_coeffs(u.half, u.grid.k_deriv))


def horizontal(v: SpectralVectorField) -> SpectralVectorField:
    """(v1, v2, 0) as a new field; the first two components are v's exactly."""
    c = v.half
    return SpectralVectorField(v.grid, np.concatenate((c[:2], np.zeros_like(c[2:]))))


@dataclass
class HorizontalParts:
    """Horizontal vorticity, the vector v3 = d3 u + grad u3, and the two
    independent components of the strain commutator matrix."""

    omega_h: SpectralVectorField
    v3: SpectralVectorField
    s13: np.ndarray
    s23: np.ndarray

    def sh_sobolev_norm(self, s: float) -> float:
        """Frobenius Sobolev norm of [[0,0,S13],[0,0,S23],[-S13,-S23,0]]."""
        spectrum = ShellSpectrum(self.omega_h.grid, np.stack((self.s13, self.s23)))
        return math.sqrt(2.0 * spectrum.sobolev_sq(s).sum())


def horizontal_parts(u: SpectralVectorField) -> HorizontalParts:
    s_field = strain(u)
    return HorizontalParts(
        omega_h=horizontal(curl(u)),
        v3=partial3(u) + gradient_of_component(u, 2),
        s13=s_field.comps[STRAIN_SLOTS[(1, 3)]],
        s23=s_field.comps[STRAIN_SLOTS[(2, 3)]],
    )


def advection(u: SpectralVectorField, apply_dealias: bool = True) -> SpectralVectorField:
    """(u . grad) u formed in physical space, then truncated to the 2/3 rule's
    band ``grid.band(grid.kc)``.

    The convective form, with ``numpy.fft`` transforms, not the package's
    pair; the solver uses the rotational form and tests compare the two.
    """
    n = u.grid.n
    u_phys = np.fft.irfftn(u.half, s=(n, n, n), axes=(1, 2, 3)) * n**3
    grad_hat = np.stack([gradient_of_component(u, j).half for j in range(3)])
    grads = np.fft.irfftn(grad_hat, s=(n, n, n), axes=(2, 3, 4)) * n**3
    adv = np.einsum("ixyz,jixyz->jxyz", u_phys, grads)
    out = conjugate_planes(np.fft.rfftn(adv, axes=(1, 2, 3)) / n**3)
    out[:, 0, 0, 0] = 0.0
    if apply_dealias:
        band = u.grid.band(u.grid.kc)
        out = padded(band, band.crop(out))
    return SpectralVectorField(u.grid, out)


def rhs(u: SpectralVectorField, nu: float, dealias_rule: str = "two_thirds") -> SpectralVectorField:
    """Leray-projected tendency nu lap(u) - P_df((u.grad)u) of the solver's
    dynamics: under the 2/3 rule u is first truncated to the band, as ``run``
    truncates its initial data."""
    grid = u.grid
    lat = _lattice(grid, dealias_rule)
    c = lat.crop(u.half)
    tendency = stage_tendency(c, grid, dealias_rule)
    tendency -= nu * 4 * np.pi**2 * lat.k_sq * c
    return SpectralVectorField(grid, conjugate_planes(padded(lat, tendency)))


def stage_tendency(c, grid, rule="two_thirds"):
    """``solver.nonlinear_term`` of band coefficients c, in a stage of its own
    on the band of ``rule``, as one ``run`` would form it, into a fresh array."""
    with _stage(_lattice(grid, rule)) as stage:
        return nonlinear_term(c, stage, np.empty_like(c))


def nonlinear_term_oracle(u_hat, grid, dealias_rule="two_thirds"):
    """``solver.nonlinear_term`` as it was before a run owned stage buffers:
    fresh arrays on every call and u x omega in a separate product array.
    The bit-for-bit reference for buffer reuse."""
    lat = _lattice(grid, dealias_rule)
    fields = np.empty((6,) + u_hat.shape[1:], dtype=complex)
    fields[:3] = u_hat
    curl_coeffs(u_hat, lat.k_deriv, out=fields[3:])
    u1, u2, u3, w1, w2, w3 = irfft3(padded(lat, fields), lat.n)
    product = np.empty((3,) + u1.shape)
    scratch = np.empty(u1.shape)
    for p, (a, b, x, y) in zip(product, ((u2, w3, u3, w2), (u3, w1, u1, w3), (u1, w2, u2, w1))):
        np.multiply(a, b, out=p)
        np.multiply(x, y, out=scratch)
        p -= scratch
    out = lat.crop(rfft3(product))
    # 1/|k_deriv|^2, 0 where k_deriv = 0, times k.c: the package divides k.c
    # by |k_deriv|^2 (1 there), which numpy forms as this same multiply.
    k1, k2, k3 = lat.k_deriv
    kd_sq = k1**2 + k2**2 + k3**2
    with np.errstate(divide="ignore"):
        dot = k_dot(out, lat.k_deriv) * np.where(kd_sq == 0, 0.0, 1.0 / kd_sq)
    for component, k in zip(out, lat.k_deriv):
        component -= dot * k
    out[:, 0, 0, 0] = 0.0
    return out


# The field layer's full-lattice expressions as they were before its kernels
# wrote into arrays made once: fresh temporaries for every product, sum and
# factor.  The bit-for-bit references of tests/test_bitwise.py.


def k_dot_oracle(c, k_deriv):
    k1, k2, k3 = k_deriv
    return k1 * c[0] + k2 * c[1] + k3 * c[2]


def curl_coeffs_oracle(c, k_deriv):
    k1, k2, k3 = k_deriv
    out = np.empty(c.shape, dtype=complex)
    out[0] = 2j * np.pi * (k2 * c[2] - k3 * c[1])
    out[1] = 2j * np.pi * (k3 * c[0] - k1 * c[2])
    out[2] = 2j * np.pi * (k1 * c[1] - k2 * c[0])
    return out


def strain_coeffs_oracle(c, k_deriv):
    out = np.empty((6,) + c.shape[1:], dtype=complex)
    for (i, j), slot in STRAIN_SLOTS.items():
        out[slot] = 1j * np.pi * (k_deriv[i - 1] * c[j - 1] + k_deriv[j - 1] * c[i - 1])
    return out


def project_coeffs_oracle(c, k_deriv, k_sq_safe):
    """The Leray projection of coefficients (3, ...) on the lattice of
    ``k_deriv``, |k_deriv|^2 (1 where 0) being ``k_sq_safe``: c - grad."""
    dot = k_dot_oracle(c, k_deriv) / k_sq_safe
    return c - np.stack([dot * k for k in k_deriv])


def leray_project_oracle(half, grid):
    """(divergence-free part, gradient part) of half-spectrum coefficients."""
    k1, k2, k3 = grid.k_deriv
    dot = k_dot_oracle(half, grid.k_deriv) / grid.k_deriv_sq_safe
    grad = np.stack([dot * k1, dot * k2, dot * k3])
    grad[:, 0, 0, 0] = 0.0
    return half - grad, grad


def biot_savart_oracle(half, grid):
    """The Biot-Savart multiplier on a vorticity's coefficients, unchecked."""
    u = curl_coeffs_oracle(half, grid.k_deriv)
    u /= 4 * np.pi**2 * grid.k_deriv_sq_safe
    u[:, 0, 0, 0] = 0.0
    return u


def gamma2d_of_field(u, nu):
    """The almost-2D criterion on a velocity field, from its field summary."""
    s = field_summary(u)
    return gamma2d_from_norms(s.omega_h_hminushalf, s.K, s.E, nu)


def gamma2d_lp_hilbert_oracle(omega, nu):
    """``log_lhs_hilbert`` as ``gamma2d_lp_check`` once formed it: the
    Hilbert criterion's left side on the velocity rebuilt from omega by
    Biot-Savart, through a second field summary."""
    u = SpectralVectorField(omega.grid, biot_savart_oracle(omega.half, omega.grid))
    return gamma2d_of_field(u, nu).inputs["log_lhs"]


class BlowupTimeBounds(NamedTuple):
    upper_if_blowup: float  # valid only if the solution blows up at all
    lower: float


def blowup_time_bounds(K0, E0, nu):
    """The paper's bounds on a blow-up time; no verb prints them."""
    _require_valid_inputs(nu)
    upper = K0**2 / (13824 * math.pi**4 * nu**5)
    lower = math.inf if E0 == 0 else 1728 * math.pi**4 * nu**3 / E0**2
    return BlowupTimeBounds(upper, lower)


# The criteria layer's formulas as they were before one core stated the
# almost-2D criterion and SMALL_DATA_COEFF the growth coefficient: each form
# with its own exponent, right side and verdict, and the coefficient's
# multiples as literals.  The bit-for-bit references of tests/test_bitwise.py.


def gamma2d_from_norms_oracle(omega_h_norm, K0, E0, nu):
    _require_valid_inputs(nu, omega_h_norm, K0, E0)
    consts = constants()
    exponent = (K0 * E0 - 6912 * math.pi**4 * nu**4) / (consts.r2 * nu**3)
    rhs = consts.r1 * nu
    log_lhs, lhs, satisfied = _log_verdict(omega_h_norm, exponent, rhs)
    return CriterionReport("gamma2d", lhs, rhs, satisfied, {
        "K0": K0, "E0": E0, "nu": nu, "omega_h_hminushalf": omega_h_norm, "log_lhs": log_lhs,
    })


def gamma2d_lp_from_norms_oracle(omega_h_l32, omega_l65, omega_l2, nu):
    _require_valid_inputs(nu, omega_h_l32, omega_l65, omega_l2)
    consts = constants()
    product = 0.25 * consts.c2**2 * omega_l65**2 * omega_l2**2
    exponent = (product - 6912 * math.pi**4 * nu**4) / (consts.r2 * nu**3)
    rhs = consts.r1 * nu
    log_lhs, lhs, satisfied = _log_verdict(consts.c1 * omega_h_l32, exponent, rhs)
    return CriterionReport("gamma2d-lp", lhs, rhs, satisfied, {
        "omega_h_l32": omega_h_l32, "omega_l65": omega_l65, "omega_l2": omega_l2,
        "nu": nu, "KE_upper": product, "log_lhs": log_lhs,
    })


def envelopes_oracle(K0, E0, nu, t):
    _require_valid_inputs(nu)
    if t < 0:
        raise ValueError(f"time must be nonnegative, got {t}")
    reason = None
    threshold = 6912 * math.pi**4 * nu**4
    if K0 * E0 < threshold:
        global_bound = E0 / (1.0 - K0 * E0 / threshold)
    else:
        global_bound = None
        reason = "K0*E0 at or above the small-data threshold"
    window = 1728 * math.pi**4 * nu**3
    if E0 == 0:
        local_bound = 0.0
    elif t < window / E0**2:
        local_bound = E0 / math.sqrt(1.0 - E0**2 * t / window)
    else:
        raise ValueError(f"t={t} is beyond the local validity window {window / E0**2}")
    return Envelopes(global_bound, local_bound, nu, reason)


def samples_lebesgue_norm_oracle(samples, p):
    mag = np.sqrt(np.sum(samples**2, axis=0))
    if p == np.inf:
        return float(np.max(mag))
    return float(np.mean(mag**p) ** (1.0 / p))


def random_divergence_free_oracle(grid, seed, kmax=None, amplitude=1.0):
    """Half-spectrum coefficients of ``random_divergence_free`` from two whole
    (3, n, n, n) draws."""
    n = grid.n
    kmax = max(1, n // 4) if kmax is None else kmax
    rng = np.random.default_rng(seed)
    real, imag = rng.standard_normal((3, n, n, n)), rng.standard_normal((3, n, n, n))
    kline = np.fft.fftfreq(n, d=1.0 / n).astype(int)
    rows = np.flatnonzero(np.abs(kline) <= kmax)
    planes = np.arange(kmax + 1)
    block = (slice(None),) + np.ix_(rows, rows, planes)
    mirror = (slice(None),) + np.ix_(-rows % n, -rows % n, -planes % n)
    coeffs = np.zeros((3, n, n, n // 2 + 1), dtype=complex)
    coeffs[block] = 0.5 * (real[block] + 1j * imag[block]
                           + np.conj(real[mirror] + 1j * imag[mirror]))
    coeffs[:, 0, 0, 0] = 0.0
    u, _ = leray_project_oracle(coeffs, grid)
    scale = float(np.max(np.abs(u)))
    return u * (amplitude / scale) if scale > 0 else u


def annulus_analog_oracle(index, grid):
    """Half-spectrum coefficients of ``annulus_analog``, mode by mode."""
    loglog = math.log(math.log(index))
    rho = 7.5 * math.sqrt(loglog)
    kline = np.fft.fftfreq(grid.n, d=1.0 / grid.n).astype(int)
    modes = []
    for i1, k1 in enumerate(kline):
        for i2, k2 in enumerate(kline):
            r = math.hypot(k1, k2)
            if not rho <= r <= 2 * rho:
                continue
            for k3 in (-1, 0, 1):
                modes.append((i1, i2, k3 % grid.n, k1, k2, k3, r))
    mass = sum(1.0 + (k3 / r) ** 2 for *_ignored, k3, r in modes)
    amp = math.sqrt(4.0 * loglog / mass)
    coeffs = np.zeros((3, grid.n, grid.n, grid.n // 2 + 1), dtype=complex)
    for i1, i2, i3, k1, k2, k3, r in modes:
        if k3 >= 0:
            e_r = np.array([k1 / r, k2 / r, 0.0])
            coeffs[:, i1, i2, i3] = amp * (np.array([0.0, 0.0, 1.0]) - (k3 / r) * e_r)
    return coeffs


def scalar_to_physical(grid, coeffs):
    """Inverse transform of a half-spectrum scalar coefficient array, through
    the full array of ``full_coeffs``; real part returned."""
    n = grid.n
    samples = np.fft.ifftn(full_coeffs(coeffs)) * n**3
    scale = max(float(np.max(np.abs(samples.real))), 1e-300)
    if np.max(np.abs(samples.imag)) > HERMITIAN_TOL * max(scale, 1.0):
        raise ValueError("scalar field has a non-real inverse transform")
    return samples.real


def strain_sobolev_norm(s_field, s):
    """Frobenius Sobolev norm of the strain, off-diagonals counted twice,
    summed over the full lattice with its own weight (2 pi |k|)^{2s}."""
    k1, k2, k3 = full_wavenumbers(s_field.grid.n)
    kabs = np.sqrt(k1**2 + k2**2 + k3**2)
    weight = (2 * np.pi * np.where(kabs == 0, 1.0, kabs)) ** (2 * s)
    if s != 0:
        weight[0, 0, 0] = 0.0
    comps = full_coeffs(s_field.comps)
    total = 0.0
    for slot, w in enumerate(FROBENIUS_WEIGHTS):
        total += w * float(np.sum(weight * np.abs(comps[slot]) ** 2))
    return math.sqrt(total)


def v3_omega_h_ratio(u, q):
    """||v3||_Lq / ||omega_h||_Lq, the two-sided Riesz-equivalence ratio."""
    parts = horizontal_parts(u)
    denom = lebesgue_norm(parts.omega_h, q)
    if denom == 0:
        raise ValueError("omega_h vanishes; ratio undefined")
    return lebesgue_norm(parts.v3, q) / denom


def lambda_n_closed_forms(n, quad=QuadratureSpec()):
    """Independent 1D reductions of the thin-shell integrals (analytic in z).

    volume and l2_sq are fully closed-form; hminus1_sq reduces to
    loglog^(1/2) ln2 / pi; horizontal keeps a smooth 1D r-integral.
    """
    loglog_half = math.sqrt(math.log(math.log(n)))
    volume = 6 * math.pi / n
    l2_sq = loglog_half * (6 * math.pi + 4 * math.pi * math.log(2) / (3 * n**2))
    hminus1_sq = loglog_half * math.log(2) / math.pi

    def horiz_integrand(r):
        # int_{-1/n}^{1/n} z^2/sqrt(r^2+z^2) dz, analytic in z
        zmax = 1.0 / n
        inner = zmax * np.sqrt(zmax**2 + r**2) - r**2 * np.arcsinh(zmax / r)
        return inner / r

    r, wr = quad.rule(1.0, 2.0)
    horizontal_sq = n * loglog_half * float(np.sum(wr * horiz_integrand(r)))
    return {
        "volume": volume,
        "l2_sq": l2_sq,
        "hminus1_sq_upper": hminus1_sq,
        "horizontal_hminushalf_sq": horizontal_sq,
    }


_FFT_NAMES = ("fft", "ifft", "rfft", "irfft", "fft2", "ifft2", "rfft2", "irfft2",
              "fftn", "ifftn", "rfftn", "irfftn")


@pytest.fixture
def transform_counts(monkeypatch):
    """Counts of 3-D transforms and of the 1-D lines of other transforms made
    through numpy.fft and scipy.fft, each call counted by its batch: the
    number of transforms along its axes.  A lock guards each count, as a
    run's parts call from several threads at once."""
    counts = {"3d": 0, "other": 0}
    lock = threading.Lock()

    def counting(fn, default_ndim):
        def wrapper(a, *args, **kwargs):
            arr = np.asarray(a)
            if default_ndim == 1:  # (a, n, axis)
                axes = kwargs.get("axis", args[1] if len(args) > 1 else -1)
            else:  # (a, s, axes)
                axes = kwargs.get("axes", args[1] if len(args) > 1 else None)
            if axes is None:
                axes = range(-(default_ndim or arr.ndim), 0)
            axes = tuple(axes) if np.iterable(axes) else (axes,)
            batch = arr.size // math.prod(arr.shape[ax] for ax in axes)
            with lock:
                counts["3d" if len(axes) == 3 else "other"] += batch
            return fn(a, *args, **kwargs)

        return wrapper

    for module in (np.fft, scipy.fft):
        for name in _FFT_NAMES:
            default_ndim = {"2": 2, "n": None}.get(name[-1], 1)
            monkeypatch.setattr(module, name, counting(getattr(module, name), default_ndim))
    return counts
