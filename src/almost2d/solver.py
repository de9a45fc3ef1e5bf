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

``run(u0, cfg)`` integrates u0 on its own grid and returns the one record
``simulate`` writes, a ``DiagnosticsSeries`` whose summary ends with the
step's advective CFL and viscous stiffness on u0; a dt past the advective
limit shows only there, as advective_cfl > 0.5 (the run writes no stderr).

The nonlinear term is evaluated in rotational form, P(u x omega) with
omega = curl u, using real FFTs.  The state holds only the band |k_i| <= K,
k3 >= 0, the dealias rule keeps (``_lattice``, ``GridSpec.band(K)``): under
the 2/3 rule K = kc = (n - 1) // 3, that is |k_i| < n/3 (30% of the
``numpy.fft.rfftn`` half spectrum at n=64), with "none" K = n/2, the whole
half spectrum.  Each stage makes 6 inverse real transforms of the band,
zero-padded to the half spectrum, and 3 forward ones cropped back to it, as
do each row's strain and the CFL sample: bit for bit the package's
``irfft3`` / ``rfft3`` of the padded band, through ``field``'s band passes,
which skip the 1-D lines that are zero on input or cropped on output (under
"none" the band is every line, and nothing is skipped).  The
curl, each row's strain and the projection's k.c are ``field``'s multiplier
kernels applied to the band.  ``run`` crops the band from a
``SpectralVectorField``'s half spectrum at entry and returns no state.
(u.grad)u and omega x u differ by the gradient grad(|u|^2/2), which the
Leray projection P removes.  Under the 2/3 rule every product is
alias-free, at every n: a product of band modes reaches |k_i| <= 2kc, and
since 3kc < n its aliases k - n fall below -kc, outside the band.  So the
rotational form equals the convective form, truncated to the band, to
roundoff.
With ``dealias="none"`` the two forms alias differently and their tendencies
differ by O(1) at the resolved scales; "none" means the aliased rotational
form.

A stage, a row and the CFL sample are cut into parts (``field.band_parts``):
one below n = ``field.THREADED_MIN_N``, which the calling thread runs, and
from it one per core, the calling thread running one and a pool of the run's
own threads the others, at once.  The transform passes in spectral space
(the pad and the k1/k2 passes in, the x1/x2 passes and the crop out) are
split by band planes k3 < m, and the elementwise band work (the fill of
(u, omega) or of a row's strain, the projection) by band k1 rows, whose
inner loops stay contiguous; the physical work by x1 slabs: each slab's real
transform along k3, its pointwise work (u x omega, the row's det S and
|S|^3, the CFL's |u|) and, in a stage, its real transform along x3, scaled
by 1/n^3 into a compact (3, n, n, m) forward array.  Each 1-D line lies
wholly in one plane or one slab and each transform runs on one thread, so
the parts change no bit.  Every run takes this one path; with one part it
starts no thread.

Each ``run`` opens one ``_Stage`` (``_stage``) and hands it to every RK
stage, diagnostics row and CFL sample: its band, its split into parts, the
pool that runs every part after the first, and the buffers they write into.
These are the padded (6, n, n, n/2 + 1) half spectrum, the band inverse's
work array (its planes k3 beyond the band stay zero, and each transform
clears the rest of the off-band part, pads the band and transforms in
place); the 6-field band array of (u, omega), or of a row's strain; a
stage's compact (3, n, n, m) forward array; and a (2, n, n, n) real array,
into which a row writes det S and |S|^3 before it averages them, and of
which each part takes the x1 planes of its first slab as the scratch in
which u x omega is formed over its samples.  So no stage, row or CFL sample
holds more samples than one slab per part.  Allocated per stage instead,
these arrays went back to the C allocator and were page-faulted in again:
three traced n=64 ``simulate`` invocations of 4 steps took 198k minor faults
and 0.84 s of system time that way, 25k and 0.13 s with the buffers.  The
``_Stage`` is a local of ``run``, not module state, so concurrent runs share
only the read-only lattices, and no thread outlives the call.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, field as dc_field, fields
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .criteria import SMALL_DATA_COEFF, _require_valid_inputs, constants
from .field import (
    DECAY_SLACK_TOL, DIVFREE_TOL, FROBENIUS_WEIGHTS, GRONWALL_2D_GROWTH_TOL, GRONWALL_2D_TOL,
    GRONWALL_LOG_TOL, INITIAL_MEAN_TOL, T_END_LATTICE_TOL, SpectralVectorField,
    band_forward_planes, band_inverse_planes, band_parts, curl_coeffs, divergence_defect,
    irfft_k3, is_mean_zero, k_dot, rfft_x3, strain_coeffs,
)
from .grid import Band, GridSpec
from .norms import samples_lebesgue_norm

#: The band cutoff K of each dealias rule on a grid: the 2/3 rule's kc, or
#: with "none" n/2, the whole half spectrum.
_DEALIAS_CUTOFFS = {"two_thirds": lambda grid: grid.kc, "none": lambda grid: grid.n // 2}


def _cutoff(dealias_rule: str) -> Callable[[GridSpec], int]:
    if dealias_rule not in _DEALIAS_CUTOFFS:
        raise ValueError(f"unknown dealias rule {dealias_rule!r}")
    return _DEALIAS_CUTOFFS[dealias_rule]


@dataclass(frozen=True)
class SolverConfig:
    """The caller's choices for one ``run``; the grid is the initial field's."""

    nu: float
    dt: float
    t_end: float
    dealias: str = "two_thirds"  # or "none"
    blowup_threshold: float = 1e8
    record_stride: int = 1

    def __post_init__(self):
        _require_valid_inputs(self.nu)
        if not self.blowup_threshold > 0:
            raise ValueError(
                f"blowup_threshold must be positive, got {self.blowup_threshold}"
            )
        if not (0 < self.dt < math.inf and 0 < self.t_end < math.inf):
            raise ValueError("dt and t_end must be positive and finite")
        ratio = self.t_end / self.dt
        if abs(ratio - round(ratio)) > T_END_LATTICE_TOL * ratio:
            raise ValueError(
                f"t_end={self.t_end!r} is not an integer multiple of dt={self.dt!r}"
            )
        _cutoff(self.dealias)  # rejects an unknown rule
        if self.record_stride < 1:
            raise ValueError("record_stride must be >= 1")

    @property
    def n_steps(self) -> int:
        return round(self.t_end / self.dt)


@dataclass
class DiagnosticsSeries:
    """Per-step record of the monitored functionals.  Its array fields, the
    ones without a default, are the CSV columns, in order.

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
    summary: dict = dc_field(default_factory=dict)


CSV_COLUMNS = tuple(f.name for f in fields(DiagnosticsSeries)
                    if f.default is MISSING and f.default_factory is MISSING)


class _Stage(NamedTuple):
    """What one ``run`` hands every RK stage, diagnostics row and CFL sample:
    its band ``lat``; its split (``band_parts``), each part's band k1 rows,
    band planes and x1 slabs, with ``map(fn, items)``, which runs fn on every
    item, one per part, the first in the calling thread and the others on the
    run's pool, and returns the results as a list; and the arrays they all
    write into, so that none allocates (and page-faults in) its own."""

    lat: Band
    map: Callable[[Callable, tuple], list]
    rows: tuple[slice, ...]
    planes: tuple[slice, ...]
    slabs: tuple[tuple[slice, ...], ...]
    band: np.ndarray  # (6, *band shape) complex: (u, omega) of a stage, a row's strain
    half: np.ndarray  # (6, n, n, n/2 + 1) complex, the band inverse's work array: 0 at k3 >= m
    real: np.ndarray  # (2, n, n, n): a row's det S and |S|^3; u x omega's scratch, by slabs
    forward: np.ndarray  # (3, n, n, m) complex: a stage's scaled x3 transform


@contextmanager
def _stage(lat: Band) -> Iterator[_Stage]:
    """A fresh stage on ``lat``, its half spectrum zeroed, whose parts after
    the first run on a pool that the ``with`` block owns: no thread outlives
    it, and one part submits nothing, so starts no thread."""
    n, m = lat.n, lat.shape[2]
    rows, planes, slabs = band_parts(n, lat.shape[0], m)
    with ThreadPoolExecutor(max(len(planes) - 1, 1)) as pool:

        def run_parts(fn, items):
            rest = [pool.submit(fn, item) for item in items[1:]]
            try:
                first = fn(items[0])
            finally:
                # No part still writes into the buffers when this returns or
                # raises.  exception() waits without raising; wait(rest) took
                # 3 of the 4.3 us of a one-part map, of which a stage makes 5.
                for future in rest:
                    future.exception()
            return [first] + [future.result() for future in rest]

        yield _Stage(
            lat, run_parts, rows, planes, slabs,
            np.empty((6,) + lat.shape, dtype=complex),
            np.zeros((6, n, n, n // 2 + 1), dtype=complex),
            np.empty((2, n, n, n)),
            np.empty((3, n, n, m), dtype=complex),
        )


def _lattice(grid: GridSpec, dealias_rule: str) -> Band:
    """The band ``grid.band(K)`` the solver keeps under ``dealias_rule``."""
    return grid.band(_cutoff(dealias_rule)(grid))


def nonlinear_term(u_hat: np.ndarray, stage: _Stage) -> np.ndarray:
    """-P(omega x u) = P(u x omega) on band coefficients (3, *band shape),
    formed in the run's stage.

    Under the 2/3 rule the product is truncated to the band.  The k = 0 mode
    of the result is zero.  The result is a fresh array.
    """
    lat, band, forward = stage.lat, stage.band, stage.forward

    def fill(rows):
        band[:3, rows] = u_hat[:, rows]
        curl_coeffs(u_hat[:, rows], lat.k_rows(rows), out=band[3:, rows])

    def slab_product(samples, x1, scratch):
        rfft_x3(_cross_in_place(samples, scratch[:, : len(samples[0])]), forward[:, x1])

    def forward_planes(planes):
        band_forward_planes(forward[..., planes], lat, out[..., planes])

    _band_samples(band, fill, stage, slab_product)
    out = np.empty((3,) + lat.shape, dtype=complex)
    stage.map(forward_planes, stage.planes)
    stage.map(lambda rows: _project(out[:, rows], lat, rows), stage.rows)
    out[:, 0, 0, 0] = 0.0
    return out


def _band_samples(block: np.ndarray, fill: Callable, stage: _Stage, on_slab: Callable) -> list:
    """The inverse band transform of ``block``, which ``fill(rows)`` writes
    first, handed to ``on_slab(samples, x1 slice, scratch)``: on_slab's
    results, part by part, each part's slabs in order.

    Each part fills its band k1 rows, then passes its band planes, then
    transforms its x1 slabs one at a time, on one thread, with a slice of the
    real buffer as its scratch; the parts' maps are the only barriers.
    """
    lat, half = stage.lat, stage.half[: len(block)]

    def planes_part(planes):
        band_inverse_planes(block[..., planes], lat, half[..., planes])

    def slabs_part(slabs):
        scratch = stage.real[:, slabs[0]]  # the part's first slab is its highest
        return [on_slab(irfft_k3(half[:, x1], lat.n), x1, scratch) for x1 in slabs]

    stage.map(fill, stage.rows)
    stage.map(planes_part, stage.planes)
    return [result for part in stage.map(slabs_part, stage.slabs) for result in part]


def _project(coeffs: np.ndarray, lat: Band, rows: slice) -> None:
    """Leray-project band coefficients (3, rows, b, m) in place."""
    k = lat.k_rows(rows)
    dot = k_dot(coeffs, k)
    dot *= lat.inv_kderiv_sq[rows]
    term = np.empty_like(dot)
    for component, k_i in zip(coeffs, k):
        component -= np.multiply(dot, k_i, out=term)


def _cross_in_place(phys: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """u x omega from samples (u1, u2, u3, w1, w2, w3), formed over (u2, u3, w1)
    and returned as that view.  Each component is a*b - x*y, two products and a
    difference.  The two products of w1 wait in the (2, n, n, n) scratch, so
    that w1 is free for the third component; every other product overwrites a
    sample it was the last to read, and nothing is copied."""
    u1, u2, u3, w1, w2, w3 = phys
    s, t = scratch
    np.multiply(u3, w1, out=s)
    np.multiply(u2, w1, out=t)
    np.multiply(u1, w2, out=w1)
    w1 -= t
    np.multiply(u2, w3, out=u2)
    np.multiply(u3, w2, out=w2)
    u2 -= w2
    np.multiply(u1, w3, out=w3)
    np.subtract(s, w3, out=u3)
    return phys[1:4]


def _det(s_phys: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """det S at each sample of the strain (S11, S12, S13, S22, S23, S33),
    written into ``out`` if given."""
    s11, s12, s13, s22, s23, s33 = s_phys
    return np.add(
        s11 * (s22 * s33 - s23**2) - s12 * (s12 * s33 - s23 * s13),
        s13 * (s12 * s23 - s22 * s13),
        out=out,
    )


def _strain_cubed(s_phys: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """|S|^3, the Frobenius norm cubed, at each sample of the strain, written
    into ``out`` if given."""
    return np.power(np.sqrt(sum(w * s**2 for w, s in zip(FROBENIUS_WEIGHTS, s_phys))), 3, out=out)


def _spectral_diagnostics(c: np.ndarray, stage: _Stage) -> dict:
    """One diagnostics row from band coefficients, omega and the strain
    formed in the run's stage.  det S and |S|^3 are written slab by
    slab into the real buffer and averaged whole, so no split moves a bit."""
    lat = stage.lat
    abs_sq = lat.multiplicity * (np.abs(c[0]) ** 2 + np.abs(c[1]) ** 2 + np.abs(c[2]) ** 2)
    four_pi_sq_ksq = 4 * np.pi**2 * lat.k_sq
    K = 0.5 * float(np.sum(abs_sq))
    E = 0.5 * float(np.sum(four_pi_sq_ksq * abs_sq))
    strain_h1 = 0.5 * float(np.sum(four_pi_sq_ksq**2 * abs_sq))

    w = curl_coeffs(c, lat.k_deriv, out=stage.band[:3])
    omega_h_sq = float(
        np.sum(lat.multiplicity * lat.omega_h_weight * (np.abs(w[0]) ** 2 + np.abs(w[1]) ** 2))
    )
    band, det, cubed = stage.band, stage.real[0], stage.real[1]

    def fill(rows):
        strain_coeffs(c[:, rows], lat.k_rows(rows), out=band[:, rows])

    def slab_strain(s_phys, x1, scratch):
        _det(s_phys, out=det[x1])
        _strain_cubed(s_phys, out=cubed[x1])

    _band_samples(band, fill, stage, slab_strain)
    return {
        "K": K,
        "E": E,
        "strain_h1_sq": strain_h1,
        "det_S_integral": float(np.mean(det)),
        "omega_h_hminushalf": math.sqrt(max(omega_h_sq, 0.0)),
        "strain_l3": float(np.mean(cubed) ** (1.0 / 3.0)),
    }


def run(u0: SpectralVectorField, cfg: SolverConfig) -> DiagnosticsSeries:
    """Integrate u0 on its grid to t_end, recording diagnostics every record_stride steps."""
    if not is_mean_zero(np.abs(u0.half), INITIAL_MEAN_TOL):
        raise ValueError("initial data must be mean-zero")
    if divergence_defect(u0) > DIVFREE_TOL:
        raise ValueError("initial data must be divergence-free")

    lat = _lattice(u0.grid, cfg.dealias)
    u = lat.crop(u0.half)
    u[:, 0, 0, 0] = 0.0

    n_steps = cfg.n_steps
    h = cfg.dt
    half_decay = np.exp(-4 * np.pi**2 * lat.k_sq * cfg.nu * h / 2.0)
    full_decay = half_decay**2

    rows = []
    # This call's own stage: concurrent runs share neither its buffers nor
    # its pool, and no thread outlives the call.
    with _stage(lat) as stage:
        stability = _stability(u, stage, cfg)

        def record(step: int, state: np.ndarray) -> str:
            diag = _spectral_diagnostics(state, stage)
            diag["t"] = step * h
            rows.append(diag)
            if not math.isfinite(diag["E"]):
                return "nan_abort"
            return "blowup_suspected" if diag["E"] > cfg.blowup_threshold else "completed"

        status = record(0, u)
        step = 0
        while status == "completed" and step < n_steps:
            step += 1
            k1 = nonlinear_term(u, stage)
            k2 = nonlinear_term(half_decay * (u + 0.5 * h * k1), stage)
            k3 = nonlinear_term(half_decay * u + 0.5 * h * k2, stage)
            k4 = nonlinear_term(full_decay * u + h * half_decay * k3, stage)
            u = full_decay * u + (h / 6.0) * (
                full_decay * k1 + 2 * half_decay * (k2 + k3) + k4
            )
            if step % cfg.record_stride == 0 or step == n_steps:
                status = record(step, u)

    return _assemble_series(rows, cfg, status, stability)


def _stability(u_hat: np.ndarray, stage: _Stage, cfg: SolverConfig) -> dict:
    """The step's advective CFL dt max|u| n, past the limit above 0.5, and its
    viscous stiffness dt nu (pi n)^2, on the initial band state."""
    n = stage.lat.n
    return {
        "advective_cfl": cfg.dt * _max_speed(u_hat, stage) * n,
        "stiff_heuristic": cfg.dt * cfg.nu * (2 * np.pi * n / 2) ** 2,
    }


def _max_speed(u_hat: np.ndarray, stage: _Stage) -> float:
    """max|u| over the grid samples of band coefficients u_hat, slab by slab."""
    slab_max = _band_samples(u_hat, lambda rows: None, stage,
                             lambda samples, x1, scratch: samples_lebesgue_norm(samples, np.inf))
    return float(np.max(slab_max))


def _assemble_series(rows: list[dict], cfg: SolverConfig, status: str,
                     stability: dict) -> DiagnosticsSeries:
    """The finished record of a run: the rows' columns, the monitors derived
    from them, and a summary of the monitors' extremes, then ``stability``."""
    m = len(rows)
    cols = {key: np.array([row[key] for row in rows]) for key in rows[0]}
    strain_l3 = cols.pop("strain_l3")
    t, K, E = cols["t"], cols["K"], cols["E"]

    dissipated = np.concatenate(([0.0], _cumulative_trapezoid(E, t)))
    energy_residual = np.abs(K - K[0] + 2 * cfg.nu * dissipated)

    dEdt = np.full(m, np.nan)
    if m >= 3:
        dEdt[1:-1] = (E[2:] - E[:-2]) / (t[2:] - t[:-2])

    consts = constants()
    strain_res = np.full(m, np.nan)
    slack = np.full(m, np.nan)
    flag = np.full(m, np.nan)
    # Interior rows, where E is finite.  float_power is libm pow per element, as a
    # scalar ** is; the SIMD loop behind an array ** can differ in the last bit.
    d, h1, E_i = dEdt[1:-1], cols["strain_h1_sq"][1:-1], E[1:-1]
    inst = -2 * cfg.nu * h1 - 4 * cols["det_S_integral"][1:-1]
    scale = np.maximum(np.maximum(np.abs(inst), np.abs(d)), 1e-30)
    strain_res[1:-1] = np.abs(d - inst) / scale
    cubic = np.float_power(E_i, 3) / (SMALL_DATA_COEFF / 2 * cfg.nu**3) - d
    l3_cubed = np.float_power(strain_l3[1:-1], 3)
    cor22 = -2 * cfg.nu * h1 + (2.0 / 9.0) * math.sqrt(6.0) * l3_cubed - d
    slack[1:-1] = np.where(cor22 < cubic, cor22, cubic)  # min(cubic, cor22), NaN as min() keeps it
    small = cols["omega_h_hminushalf"][1:-1] < consts.r1 * cfg.nu
    decay_ok = d <= DECAY_SLACK_TOL * np.maximum(np.maximum(np.abs(d), E_i), 1.0)
    flag[1:-1] = ~small | decay_ok

    gronwall_ok = True
    gronwall_max_log_ratio = -math.inf
    if m >= 2:
        omega_h = cols["omega_h_hminushalf"]
        e0_scale = math.sqrt(max(E[0], 1.0))
        if omega_h[0] <= GRONWALL_2D_TOL * e0_scale:
            # 2D data: the envelope degenerates to zero
            gronwall_ok = not bool(np.any(omega_h[1:] > GRONWALL_2D_GROWTH_TOL * e0_scale))
        else:
            exponent = _cumulative_trapezoid((2 * E) ** 2, t) / (consts.r2 * cfg.nu**3)
            log_ratio = 2 * np.log(np.maximum(omega_h[1:], 1e-300) / omega_h[0]) - exponent
            log_ratio = log_ratio[~np.isnan(log_ratio)]
            if log_ratio.size:
                gronwall_max_log_ratio = float(np.max(log_ratio))
            gronwall_ok = not bool(np.any(log_ratio > GRONWALL_LOG_TOL))

    per_step_increase = float(np.max(np.diff(K))) if m >= 2 else 0.0
    summary = {
        "max_energy_eq_residual": float(np.max(energy_residual)),
        "max_strain_identity_residual": _non_nan(np.max, strain_res),
        "min_enstrophy_ineq_slack": _non_nan(np.min, slack),
        "horizontal_flag_all_true": bool(np.all(flag[1:-1] > 0.5)) if m > 2 else True,
        "gronwall_envelope_ok": gronwall_ok,
        "gronwall_max_log_ratio": gronwall_max_log_ratio,
        "max_energy_increase_per_step": per_step_increase,
        **stability,
    }
    return DiagnosticsSeries(
        **cols, energy_eq_residual=energy_residual, strain_identity_residual=strain_res,
        enstrophy_ineq_slack=slack, horizontal_decay_flag=flag, status=status, summary=summary,
    )


def _cumulative_trapezoid(y: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Running trapezoid integrals of y over t, one per interval: the
    expression of ``scipy.integrate.cumulative_trapezoid``, whose import
    loads scipy.optimize with it (274 modules and about 23 MB on scipy 1.17)."""
    return np.cumsum(np.diff(t) * (y[1:] + y[:-1]) / 2.0)


def _non_nan(reduce, a: np.ndarray) -> float:
    """``reduce`` over the non-NaN entries of a, 0.0 if there are none."""
    vals = a[~np.isnan(a)]
    return float(reduce(vals)) if len(vals) else 0.0

