"""Dealiased pseudo-spectral time integration with trajectory monitors.

Classical RK4 is applied to the integrating-factor form: the viscous
multiplier exp(-4 pi^2 |k|^2 nu dt) is exact, so only the advective scale
constrains the step.  Monitors compare centered differences of recorded
functionals against instantaneous spectral right-hand sides:

    dE/dt = -2 nu ||S||_{H1}^2 - 4 int det S          (strain identity)
    dE/dt <= -2 nu ||S||_{H1}^2 + (2 sqrt6 / 9) ||S||_{L3}^3
    dE/dt <= E^3 / (3456 pi^4 nu^3)                   (cubic bound)
    ||omega_h|| < R1 nu  =>  dE/dt <= 0               (horizontal decay)
    ||omega_h(t)||^2 <= ||omega_h(0)||^2 exp(int ||omega||_L2^4 / (R2 nu^3))

The nonlinear term is evaluated in rotational form, P(u x omega) with
omega = curl u, using real FFTs.  The state holds only the band of
coefficients the dealias rule keeps: under the 2/3 rule the k3 >= 0 half of
the cube |k_i| <= n // 3 (30% of the ``numpy.fft.rfftn`` half spectrum at
n=64), with "none" the whole half spectrum.  Each stage makes 6 inverse real
transforms of the band, zero-padded to the half spectrum, and 3 forward ones
cropped back to it; grids with n >= ``THREADED_MIN_N`` run them on every
available core.  ``run`` converts from and to the full-spectrum
``SpectralVectorField`` only at entry and exit.  (u.grad)u and omega x u
differ by the gradient grad(|u|^2/2), which the Leray projection P removes.
Under the 2/3 rule every product is alias-free, so the rotational form
equals the convective form ``field.advection`` to roundoff.  With
``dealias="none"`` the two forms alias differently and their tendencies
differ by O(1) at the resolved scales; "none" means the aliased rotational
form.
"""

from __future__ import annotations

import functools
import math
import os
import warnings
from dataclasses import dataclass, field as dc_field
from typing import NamedTuple

import numpy as np
import scipy.fft

from .criteria import constants
from .field import SpectralVectorField, StrainField
from .grid import GridSpec, full_spectrum

ALL_MONITORS = frozenset({"strain_identity", "enstrophy_inequality", "horizontal"})

CSV_COLUMNS = [
    "t",
    "K",
    "E",
    "strain_h1_sq",
    "det_S_integral",
    "omega_h_hminushalf",
    "energy_eq_residual",
    "strain_identity_residual",
    "enstrophy_ineq_slack",
    "horizontal_decay_flag",
]


@dataclass(frozen=True)
class SolverConfig:
    grid: GridSpec
    nu: float
    dt: float
    t_end: float
    dealias: str = "two_thirds"  # or "none"
    monitors: frozenset = ALL_MONITORS
    blowup_threshold: float = 1e8
    record_stride: int = 1

    def __post_init__(self):
        if not 0 < self.nu < math.inf:
            raise ValueError(f"viscosity must be positive and finite, got {self.nu}")
        if not self.blowup_threshold > 0:
            raise ValueError(
                f"blowup_threshold must be positive, got {self.blowup_threshold}"
            )
        if not (0 < self.dt < math.inf and 0 < self.t_end < math.inf):
            raise ValueError("dt and t_end must be positive and finite")
        ratio = self.t_end / self.dt
        if abs(ratio - round(ratio)) > 1e-9 * ratio:
            raise ValueError(
                f"t_end={self.t_end!r} is not an integer multiple of dt={self.dt!r}"
            )
        if self.dealias not in ("two_thirds", "none"):
            raise ValueError(f"unknown dealias rule {self.dealias!r}")
        if self.record_stride < 1:
            raise ValueError("record_stride must be >= 1")
        unknown = set(self.monitors) - ALL_MONITORS
        if unknown:
            raise ValueError(f"unknown monitors {sorted(unknown)}")

    @property
    def n_steps(self) -> int:
        return round(self.t_end / self.dt)


@dataclass
class DiagnosticsSeries:
    """Per-step record of the monitored functionals.

    Column convention: residual/slack/flag entries needing a centered
    difference are NaN at the first and last recorded rows.
    """

    t: np.ndarray
    K: np.ndarray
    E: np.ndarray
    strain_h1_sq: np.ndarray
    det_S_integral: np.ndarray
    omega_h_hminushalf: np.ndarray
    energy_eq_residual: np.ndarray
    strain_identity_residual: np.ndarray
    enstrophy_ineq_slack: np.ndarray
    horizontal_decay_flag: np.ndarray
    status: str = "completed"
    final_field: SpectralVectorField | None = None
    summary: dict = dc_field(default_factory=dict)

    def to_csv(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(",".join(CSV_COLUMNS) + "\n")
            for i in range(len(self.t)):
                cells = []
                for col in CSV_COLUMNS:
                    value = getattr(self, col)[i]
                    if col == "horizontal_decay_flag":
                        cells.append("" if np.isnan(value) else str(int(value)))
                    else:
                        cells.append(f"{value:.12e}")
                fh.write(",".join(cells) + "\n")


#: Grids with at least this many points per axis run each 3-D transform on
#: every core the process may use.  Two threads against one on a 2-vCPU VM
#: (pocketfft), one ``simulate`` end to end, median of 8 alternating pairs:
#: 1.75x slower at n=16, 1.33x slower at n=32, 1.14x faster at n=48 and 1.17x
#: faster at n=64.  Threaded output is bit-identical.
THREADED_MIN_N = 48


class _Lattice(NamedTuple):
    """The band of coefficients the solver keeps, and multipliers on it.

    Under the 2/3 rule the band is the block |k_i| <= kc = n // 3, k3 >= 0, of
    shape (2kc+1, 2kc+1, kc+1): k1 and k2 in FFT order (0..kc, then -kc..-1)
    and k3 = 0..kc.  The solver state is zero outside it, and cropping a
    product to it is the 2/3 truncation.  With dealias "none" the band is the
    whole k3 >= 0 half spectrum of ``rfftn``, (n, n, n/2 + 1), and ``pad`` and
    ``crop`` copy it whole.  Cached per grid and rule and shared between calls,
    so the arrays made here are read-only.
    """

    n: int
    shape: tuple[int, int, int]
    pieces: tuple  # (band index, spectrum index) of the four k1/k2 quadrants
    k_deriv: tuple[np.ndarray, np.ndarray, np.ndarray]  # Nyquist zeroed
    k_sq: np.ndarray
    inv_kderiv_sq: np.ndarray  # 1/|k_deriv|^2, 0 where k_deriv = 0
    multiplicity: np.ndarray  # Plancherel weight: 1 on k3 = 0, n/2, else 2
    omega_h_weight: np.ndarray  # 1/(2 pi |k|), 0 at k = 0

    def pad(self, block: np.ndarray) -> np.ndarray:
        """Half-spectrum coefficients (..., n, n, n/2 + 1), zero off the band."""
        n = self.n
        out = np.zeros(block.shape[:-3] + (n, n, n // 2 + 1), dtype=complex)
        for b, s in self.pieces:
            out[s] = block[b]
        return out

    def crop(self, coeffs: np.ndarray) -> np.ndarray:
        """The band of full- or half-spectrum coefficients (k3 = 0 first)."""
        out = np.empty(coeffs.shape[:-3] + self.shape, dtype=complex)
        for b, s in self.pieces:
            out[b] = coeffs[s]
        return out


@functools.lru_cache(maxsize=8)
def _lattice(grid: GridSpec, dealias_rule: str) -> _Lattice:
    n = grid.n
    if dealias_rule == "two_thirds":
        lo, hi, m = n // 3 + 1, n // 3, n // 3 + 1
    elif dealias_rule == "none":
        lo, hi, m = n // 2, n // 2, n // 2 + 1
    else:
        raise ValueError(f"unknown dealias rule {dealias_rule!r}")
    # (band, spectrum) slices of the k >= 0 and k < 0 halves of a k1 or k2 axis
    halves = ((slice(0, lo), slice(0, lo)), (slice(lo, None), slice(n - hi, n)))
    pieces = tuple(
        ((..., b1, b2, slice(None)), (..., s1, s2, slice(0, m)))
        for b1, s1 in halves
        for b2, s2 in halves
    )
    kline = np.concatenate([np.arange(lo), np.arange(-hi, 0)]).astype(float)
    k3line = np.arange(m, dtype=float)
    k = (kline.reshape(-1, 1, 1), kline.reshape(1, -1, 1), k3line.reshape(1, 1, -1))
    k_deriv = tuple(np.where(np.abs(ki) == n // 2, 0.0, ki) for ki in k)
    k_sq = k[0] ** 2 + k[1] ** 2 + k[2] ** 2
    kd_sq = k_deriv[0] ** 2 + k_deriv[1] ** 2 + k_deriv[2] ** 2
    multiplicity = np.where((k3line == 0) | (k3line == n // 2), 1.0, 2.0).reshape(1, 1, m)
    with np.errstate(divide="ignore"):
        inv_kderiv_sq = np.where(kd_sq == 0, 0.0, 1.0 / kd_sq)
        omega_h_weight = np.where(k_sq == 0, 0.0, 1.0 / (2 * np.pi * np.sqrt(k_sq)))
    for a in (*k_deriv, k_sq, inv_kderiv_sq, multiplicity, omega_h_weight):
        a.setflags(write=False)
    return _Lattice(
        n, (lo + hi, lo + hi, m), pieces, k_deriv, k_sq, inv_kderiv_sq,
        multiplicity, omega_h_weight,
    )


def _workers(n: int) -> int:
    if n < THREADED_MIN_N:
        return 1
    if hasattr(os, "sched_getaffinity"):  # the cores this process may use
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _irfft3(block: np.ndarray, lat: _Lattice) -> np.ndarray:
    """Grid samples from band coefficients (1/n^3 forward convention)."""
    n = lat.n
    return scipy.fft.irfftn(
        lat.pad(block), s=(n, n, n), axes=(-3, -2, -1), norm="forward",
        overwrite_x=True, workers=_workers(n),
    )


def _rfft3(samples: np.ndarray, lat: _Lattice) -> np.ndarray:
    """Band coefficients of real grid samples."""
    return lat.crop(scipy.fft.rfftn(
        samples, axes=(-3, -2, -1), norm="forward", workers=_workers(lat.n)
    ))


def rhs(u: SpectralVectorField, nu: float, dealias_rule: str = "two_thirds") -> SpectralVectorField:
    """Leray-projected tendency nu lap(u) - P_df((u.grad)u) of the solver's
    dynamics: under the 2/3 rule u is first truncated to the band, as ``run``
    truncates its initial data."""
    grid = u.grid
    lat = _lattice(grid, dealias_rule)
    c = lat.crop(u.coeffs)
    tendency = nonlinear_term(c, grid, dealias_rule)
    tendency -= nu * 4 * np.pi**2 * lat.k_sq * c
    return SpectralVectorField(grid, full_spectrum(lat.pad(tendency), grid.n), True)


def nonlinear_term(
    u_hat: np.ndarray, grid: GridSpec, dealias_rule: str = "two_thirds"
) -> np.ndarray:
    """-P(omega x u) = P(u x omega) on band coefficients (3, *band shape).

    Under the 2/3 rule the product is truncated to the band.  The k = 0 mode
    of the result is zero.
    """
    lat = _lattice(grid, dealias_rule)
    k1, k2, k3 = lat.k_deriv
    c0, c1, c2 = u_hat
    fields = np.empty((6,) + u_hat.shape[1:], dtype=complex)
    fields[:3] = u_hat
    fields[3] = 2j * np.pi * (k2 * c2 - k3 * c1)
    fields[4] = 2j * np.pi * (k3 * c0 - k1 * c2)
    fields[5] = 2j * np.pi * (k1 * c1 - k2 * c0)
    u1, u2, u3, w1, w2, w3 = _irfft3(fields, lat)
    product = np.empty((3,) + u1.shape)
    scratch = np.empty(u1.shape)
    for p, (a, b, x, y) in zip(product, ((u2, w3, u3, w2), (u3, w1, u1, w3), (u1, w2, u2, w1))):
        np.multiply(a, b, out=p)
        np.multiply(x, y, out=scratch)
        p -= scratch
    out = _rfft3(product, lat)
    dot = (k1 * out[0] + k2 * out[1] + k3 * out[2]) * lat.inv_kderiv_sq
    out[0] -= dot * k1
    out[1] -= dot * k2
    out[2] -= dot * k3
    out[:, 0, 0, 0] = 0.0
    return out


def _det_integral(s_phys: np.ndarray) -> float:
    s11, s12, s13, s22, s23, s33 = s_phys
    det = (
        s11 * (s22 * s33 - s23**2)
        - s12 * (s12 * s33 - s23 * s13)
        + s13 * (s12 * s23 - s22 * s13)
    )
    return float(np.mean(det))


def _strain_l3(s_phys: np.ndarray) -> float:
    w = StrainField.FROBENIUS_WEIGHTS
    mag = np.sqrt(sum(wi * si**2 for wi, si in zip(w, s_phys)))
    return float(np.mean(mag**3) ** (1.0 / 3.0))


def _spectral_diagnostics(c: np.ndarray, lat: _Lattice) -> dict:
    """One diagnostics row from band coefficients."""
    abs_sq = lat.multiplicity * (np.abs(c[0]) ** 2 + np.abs(c[1]) ** 2 + np.abs(c[2]) ** 2)
    four_pi_sq_ksq = 4 * np.pi**2 * lat.k_sq
    K = 0.5 * float(np.sum(abs_sq))
    E = 0.5 * float(np.sum(four_pi_sq_ksq * abs_sq))
    strain_h1 = 0.5 * float(np.sum(four_pi_sq_ksq**2 * abs_sq))

    ks = lat.k_deriv
    k1, k2, k3 = ks
    w1 = 2j * np.pi * (k2 * c[2] - k3 * c[1])
    w2 = 2j * np.pi * (k3 * c[0] - k1 * c[2])
    omega_h_sq = float(
        np.sum(lat.multiplicity * lat.omega_h_weight * (np.abs(w1) ** 2 + np.abs(w2) ** 2))
    )

    # Shat_ij = pi i (k_i uhat_j + k_j uhat_i)
    s_hat = np.empty((6,) + c.shape[1:], dtype=complex)
    for (i, j), slot in StrainField.INDEX.items():
        s_hat[slot] = 1j * np.pi * (ks[i - 1] * c[j - 1] + ks[j - 1] * c[i - 1])
    s_phys = _irfft3(s_hat, lat)
    return {
        "K": K,
        "E": E,
        "strain_h1_sq": strain_h1,
        "det_S_integral": _det_integral(s_phys),
        "omega_h_hminushalf": math.sqrt(max(omega_h_sq, 0.0)),
        "strain_l3": _strain_l3(s_phys),
    }


def run(u0: SpectralVectorField, cfg: SolverConfig) -> DiagnosticsSeries:
    """Integrate to t_end, recording diagnostics every record_stride steps."""
    from .field import divergence_defect

    if u0.grid.n != cfg.grid.n:
        raise ValueError("initial data grid does not match the solver grid")
    if float(np.max(np.abs(u0.coeffs[:, 0, 0, 0]))) > 1e-12 * u0.amplitude():
        raise ValueError("initial data must be mean-zero")
    if divergence_defect(u0) > 1e-10:
        raise ValueError("initial data must be divergence-free")

    grid = cfg.grid
    lat = _lattice(grid, cfg.dealias)
    u = lat.crop(u0.coeffs)
    u[:, 0, 0, 0] = 0.0

    n_steps = cfg.n_steps
    h = cfg.dt
    half_decay = np.exp(-4 * np.pi**2 * lat.k_sq * cfg.nu * h / 2.0)
    full_decay = half_decay**2

    stability = _advective_cfl_warning(u, lat, cfg)

    rows = []
    status = "completed"

    def record(step: int, state: np.ndarray) -> bool:
        diag = _spectral_diagnostics(state, lat)
        diag["t"] = step * h
        rows.append(diag)
        if not math.isfinite(diag["E"]):
            return False
        return diag["E"] <= cfg.blowup_threshold

    ok = record(0, u)
    if not ok:
        status = "blowup_suspected" if math.isfinite(rows[-1]["E"]) else "nan_abort"
        n_steps = 0
    for step in range(1, n_steps + 1):
        k1 = nonlinear_term(u, grid, cfg.dealias)
        k2 = nonlinear_term(half_decay * (u + 0.5 * h * k1), grid, cfg.dealias)
        k3 = nonlinear_term(half_decay * u + 0.5 * h * k2, grid, cfg.dealias)
        k4 = nonlinear_term(full_decay * u + h * half_decay * k3, grid, cfg.dealias)
        u = full_decay * u + (h / 6.0) * (
            full_decay * k1 + 2 * half_decay * (k2 + k3) + k4
        )
        if step % cfg.record_stride == 0 or step == n_steps:
            ok = record(step, u)
            if not ok:
                status = (
                    "nan_abort"
                    if not math.isfinite(rows[-1]["E"])
                    else "blowup_suspected"
                )
                break

    series = _assemble_series(rows, cfg)
    series.status = status
    series.final_field = SpectralVectorField(grid, full_spectrum(lat.pad(u), grid.n), u0.mean_zero)
    series.summary.update(stability)
    return series


def _advective_cfl_warning(u_hat: np.ndarray, lat: _Lattice, cfg: SolverConfig) -> dict:
    samples = _irfft3(u_hat, lat)
    umax = float(np.max(np.sqrt(np.sum(samples**2, axis=0))))
    cfl = cfg.dt * umax * cfg.grid.n
    if cfl > 0.5:
        warnings.warn(
            f"advective CFL dt*max|u|*n = {cfl:.3g} exceeds 0.5", stacklevel=2
        )
    return {
        "advective_cfl": cfl,
        "stiff_heuristic": cfg.dt * cfg.nu * (2 * np.pi * cfg.grid.n / 2) ** 2,
    }


def _assemble_series(rows: list[dict], cfg: SolverConfig) -> DiagnosticsSeries:
    # Imported on use: scipy.integrate adds 34 modules and about 2 MB to
    # every process that imports almost2d, and only a run needs it.
    from scipy.integrate import cumulative_trapezoid

    m = len(rows)
    cols = {
        key: np.array([row[key] for row in rows])
        for key in ("t", "K", "E", "strain_h1_sq", "det_S_integral",
                    "omega_h_hminushalf", "strain_l3")
    }
    t, K, E = cols["t"], cols["K"], cols["E"]

    dissipated = cumulative_trapezoid(E, t, initial=0.0)
    energy_residual = np.abs(K - K[0] + 2 * cfg.nu * dissipated)

    dEdt = np.full(m, np.nan)
    if m >= 3:
        dEdt[1:-1] = (E[2:] - E[:-2]) / (t[2:] - t[:-2])

    consts = constants()
    strain_res = np.full(m, np.nan)
    slack = np.full(m, np.nan)
    flag = np.full(m, np.nan)
    want_strain = "strain_identity" in cfg.monitors
    want_enstrophy = "enstrophy_inequality" in cfg.monitors
    want_horizontal = "horizontal" in cfg.monitors

    for i in range(1, m - 1):
        if want_strain:
            inst = -2 * cfg.nu * cols["strain_h1_sq"][i] - 4 * cols["det_S_integral"][i]
            scale = max(abs(inst), abs(dEdt[i]), 1e-30)
            strain_res[i] = abs(dEdt[i] - inst) / scale
        if want_enstrophy:
            cubic = E[i] ** 3 / (3456 * math.pi**4 * cfg.nu**3)
            cor22 = (
                -2 * cfg.nu * cols["strain_h1_sq"][i]
                + (2.0 / 9.0) * math.sqrt(6.0) * cols["strain_l3"][i] ** 3
            )
            slack[i] = min(cubic - dEdt[i], cor22 - dEdt[i])
        if want_horizontal:
            small = cols["omega_h_hminushalf"][i] < consts.r1 * cfg.nu
            decay_ok = dEdt[i] <= 1e-6 * max(abs(dEdt[i]), E[i], 1.0)
            flag[i] = float((not small) or decay_ok)

    gronwall_ok = True
    gronwall_max_log_ratio = -math.inf
    if want_horizontal and m >= 2:
        omega_h = cols["omega_h_hminushalf"]
        e0_scale = math.sqrt(max(E[0], 1.0))
        if omega_h[0] <= 1e-13 * e0_scale:
            # 2D data: the envelope degenerates to zero
            gronwall_ok = not bool(np.any(omega_h[1:] > 1e-12 * e0_scale))
        else:
            exponent = cumulative_trapezoid((2 * E) ** 2, t) / (consts.r2 * cfg.nu**3)
            log_ratio = 2 * np.log(np.maximum(omega_h[1:], 1e-300) / omega_h[0]) - exponent
            log_ratio = log_ratio[~np.isnan(log_ratio)]
            if log_ratio.size:
                gronwall_max_log_ratio = float(np.max(log_ratio))
            gronwall_ok = not bool(np.any(log_ratio > 1e-6))

    per_step_increase = float(np.max(np.diff(K))) if m >= 2 else 0.0
    summary = {
        "max_energy_eq_residual": float(np.max(energy_residual)),
        "max_strain_identity_residual": _nanmax(strain_res),
        "min_enstrophy_ineq_slack": _nanmin(slack),
        "horizontal_flag_all_true": bool(np.all(flag[1:-1] > 0.5)) if m > 2 else True,
        "gronwall_envelope_ok": gronwall_ok,
        "gronwall_max_log_ratio": gronwall_max_log_ratio,
        "max_energy_increase_per_step": per_step_increase,
    }
    return DiagnosticsSeries(
        t=t,
        K=K,
        E=E,
        strain_h1_sq=cols["strain_h1_sq"],
        det_S_integral=cols["det_S_integral"],
        omega_h_hminushalf=cols["omega_h_hminushalf"],
        energy_eq_residual=energy_residual,
        strain_identity_residual=strain_res,
        enstrophy_ineq_slack=slack,
        horizontal_decay_flag=flag,
        summary=summary,
    )


def _nanmax(a: np.ndarray) -> float:
    vals = a[~np.isnan(a)]
    return float(np.max(vals)) if len(vals) else 0.0


def _nanmin(a: np.ndarray) -> float:
    vals = a[~np.isnan(a)]
    return float(np.min(vals)) if len(vals) else 0.0

