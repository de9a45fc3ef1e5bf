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
curl, each row's strain and the Leray projection are ``field``'s kernels,
applied to the band.  ``run`` crops the band from a
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

A stage, a row and the CFL sample are cut into parts (``_stage``): one below
n = ``THREADED_MIN_N``, which the calling thread runs, and from it one per
core, the calling thread running one and a pool of the run's own threads the
others, at once.  That pool is the only thread the package starts: every
other transform, ``field``'s pair included, runs on the calling thread.  The
transform passes in spectral space (the pad and the k1/k2 passes in, the
x1/x2 passes and the crop out) are split by band planes k3 < m, and the
elementwise band work (the fill of (u, omega) or of a row's strain, the
projection) by band k1 rows, whose inner loops stay contiguous; the
physical work by x1 slabs: each slab's real transform along k3, its
pointwise work (u x omega, the row's det S and |S|^3, the CFL's |u|) and,
in a stage, its real transform along x3, scaled by 1/n^3 into the planes
k3 < m of its own x1 rows of the work array.  Each 1-D line lies wholly in
one plane or one slab and each transform runs on one thread, so the parts
change no bit.  Every run takes this one path; with one part it starts no
thread.

Each ``run`` opens one ``_Stage`` (``_stage``) and hands it to every RK
stage, diagnostics row and CFL sample: its band, its split into parts, the
pool that runs every part after the first, and the buffers they write into.
These are the padded (6, n, n, n/2 + 1) half spectrum, the work array of
every band transform (its planes k3 beyond the band stay zero; each inverse
clears the rest of the off-band part, pads the band and transforms in place,
and a stage's forward passes then run in fields 0-2 at k3 < m, where a slab
writes only after its inverse has read them, and slabs are disjoint across
parts); the 6-field band array of (u, omega) (whose first three fields then
take the cropped u x omega), or of a row's strain; and a (2, n, n, n) real
array, in which a row forms |S|^3 and det S before it averages them, and of
which each part takes the x1 planes of its first slab as the scratch in which
u x omega is formed over its samples.  So no stage, row or CFL sample holds
more samples than one slab per part, and none allocates (and page-faults in) a
sample or half-spectrum array of its own; nor does an RK4 step allocate a band
array: ``run`` forms each in four of its own, updating its state in place.  The
``_Stage`` is a local of ``run``, not module state, so concurrent runs share
only the read-only lattices, and no thread outlives the call.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, field as dc_field, fields
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .criteria import SMALL_DATA_COEFF, _require_valid_inputs, constants
from .field import (
    DECAY_SLACK_TOL, DIVFREE_TOL, FROBENIUS_WEIGHTS, GRONWALL_2D_GROWTH_TOL, GRONWALL_2D_TOL,
    GRONWALL_LOG_TOL, INITIAL_MEAN_TOL, T_END_LATTICE_TOL, SpectralVectorField,
    band_forward_planes, band_inverse_planes, curl_coeffs, divergence_defect, irfft_k3,
    is_mean_zero, project_coeffs, rfft_x3, strain_coeffs,
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
        if not math.isfinite(ratio):
            raise ValueError(f"t_end={self.t_end!r} / dt={self.dt!r} is not a finite step count")
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


#: Grids with at least this many points per axis run each RK stage,
#: diagnostics row and CFL sample as one part per core the process may use
#: (``_stage``), one in the calling thread and the others on the run's pool,
#: each part's 1-D passes on one thread.  Below it a run has one part, which
#: the calling thread runs through the same passes, and starts no thread.
#: Two parts against one on a 2-vCPU VM, a whole run, median of 11
#: alternating runs in one process: 2.0x slower at n=16 and 1.2x slower at
#: n=32, losing every run.  At n=64 the benchmark's dns-n64 read 0.29-0.30 s
#: split against 0.38-0.40 s in one part (4 pairs; 10 more in ``README.md``).
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

#: numpy's floating-point errors a run reports by its status and its inf or NaN
#: monitors, not by a warning.  A pool thread does not inherit numpy's setting,
#: so ``_stage`` makes it in each thread of a run, and ``_assemble_series`` too.
_RUN_ERRSTATE = {"over": "ignore", "invalid": "ignore"}


class _Stage(NamedTuple):
    """What one ``run`` hands every RK stage, diagnostics row and CFL sample:
    its band ``lat``; its split (``_stage``), each part's band k1 rows,
    band planes and x1 slabs, with ``map(fn, items)``, which runs fn on every
    item, one per part, the first in the calling thread and the others on the
    run's pool, and returns the results as a list; and the arrays they all
    write into, so that none allocates (and page-faults in) its own.  A
    stage's forward passes run in ``half`` too, in fields 0-2 at k3 < m, which
    a slab writes only after its inverse has read them."""

    lat: Band
    map: Callable[[Callable, tuple], list]
    rows: tuple[slice, ...]
    planes: tuple[slice, ...]
    slabs: tuple[tuple[slice, ...], ...]
    band: np.ndarray  # (6, *band shape) complex: (u, omega), then u x omega, or a row's strain
    half: np.ndarray  # (6, n, n, n/2 + 1) complex, the band transforms' work array: 0 at k3 >= m
    real: np.ndarray  # (2, n, n, n): a row's det S and |S|^3; u x omega's scratch, by slabs


@contextmanager
def _stage(lat: Band) -> Iterator[_Stage]:
    """A fresh stage on ``lat``, its half spectrum zeroed, split into parts:
    one below THREADED_MIN_N, and from it one per core the process may use,
    at most m (one band plane each) and at most n (one x1 plane each), so no
    part is empty (b > m).  Each part gets its band k1 rows, its planes k3 < m
    and its x1 slabs, SLAB_POINTS // n^2 planes high, at least 1 and at most
    n // parts, so that each part gets one, dealt out in turn; a part's first
    slab is its highest.  The parts after the first run on a pool that the
    ``with`` block owns: no thread outlives it, and one part submits nothing,
    so starts no thread."""
    n, (b, _, m) = lat.n, lat.shape
    count = 1
    if n >= THREADED_MIN_N:
        cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        count = min(cores or 1, m, n)
    height = max(min(SLAB_POINTS // n**2, n // count), 1)
    slabs = [slice(x, min(x + height, n)) for x in range(0, n, height)]
    rows = tuple(slice(b * i // count, b * (i + 1) // count) for i in range(count))
    planes = tuple(slice(m * i // count, m * (i + 1) // count) for i in range(count))
    with np.errstate(**_RUN_ERRSTATE), ThreadPoolExecutor(
            max(count - 1, 1), initializer=lambda: np.seterr(**_RUN_ERRSTATE)) as pool:

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
            lat, run_parts, rows, planes, tuple(tuple(slabs[i::count]) for i in range(count)),
            np.empty((6,) + lat.shape, dtype=complex),
            np.zeros((6, n, n, n // 2 + 1), dtype=complex),
            np.empty((2, n, n, n)),
        )


def _lattice(grid: GridSpec, dealias_rule: str) -> Band:
    """The band ``grid.band(K)`` the solver keeps under ``dealias_rule``."""
    return grid.band(_cutoff(dealias_rule)(grid))


def nonlinear_term(u_hat: np.ndarray, stage: _Stage, out: np.ndarray) -> np.ndarray:
    """-P(omega x u) = P(u x omega) of band coefficients (3, *band shape),
    formed in the run's stage and written into ``out``, another band array.

    Under the 2/3 rule the product is truncated to the band.  The k = 0 mode
    of the result is zero.
    """
    lat, band = stage.lat, stage.band
    forward = stage.half[:3, ..., : lat.shape[2]]

    def fill(rows):
        band[:3, rows] = u_hat[:, rows]
        curl_coeffs(u_hat[:, rows], lat.k_rows(rows), out=band[3:, rows])

    def slab_product(samples, x1, scratch):
        # irfft_k3 has read half[:, x1], so the slab's forward lines may land there.
        rfft_x3(_cross_in_place(samples, scratch[:, : len(samples[0])]), forward[:, x1])

    def forward_planes(planes):  # (u, omega) are read: u x omega takes band[:3]
        band_forward_planes(forward[..., planes], lat, band[:3, ..., planes])

    def project(rows):
        project_coeffs(band[:3, rows], lat.k_rows(rows), lat.k_deriv_sq_safe[rows], out[:, rows])

    _band_samples(band, fill, stage, slab_product)
    stage.map(forward_planes, stage.planes)
    stage.map(project, stage.rows)
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


def _strain_cubed(s_phys: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """|S|^3, the Frobenius norm cubed, at each sample of the strain, formed in
    ``out``: the weighted squares summed in slot order, each formed in
    ``scratch``, then the root and the cube."""
    for slot, (w, s) in enumerate(zip(FROBENIUS_WEIGHTS, s_phys)):
        term = out if slot == 0 else scratch
        np.square(s, out=term)
        np.multiply(w, term, out=term)
        if slot:
            out += term
    np.sqrt(out, out=out)
    return np.power(out, 3, out=out)


def _det(s_phys: np.ndarray, out: np.ndarray) -> np.ndarray:
    """det S = s11 (s22 s33 - s23^2) - s12 (s12 s33 - s23 s13) + s13 (s12 s23
    - s22 s13) at each sample of the strain (S11, S12, S13, S22, S23, S33),
    formed in ``out`` in that order.  s11 and s33 are overwritten after their
    last reads, and s23^2 is the one temporary."""
    s11, s12, s13, s22, s23, s33 = s_phys
    np.multiply(s22, s33, out=out)
    out -= np.square(s23)
    np.multiply(s11, out, out=out)
    np.multiply(s12, s33, out=s11)
    np.multiply(s23, s13, out=s33)
    s11 -= s33
    out -= np.multiply(s12, s11, out=s11)
    np.multiply(s12, s23, out=s11)
    s11 -= np.multiply(s22, s13, out=s33)
    out += np.multiply(s13, s11, out=s11)
    return out


def _spectral_diagnostics(c: np.ndarray, stage: _Stage) -> dict:
    """One diagnostics row from band coefficients, omega and the strain
    formed in the run's stage.  |S|^3 and then det S are formed slab by slab
    in the real buffer, consuming the slab's samples, and averaged whole, so
    no split moves a bit."""
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
        _strain_cubed(s_phys, cubed[x1], det[x1])
        _det(s_phys, det[x1])

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
    peak = float(np.max(np.abs(u0.half)))
    if not is_mean_zero(np.abs(u0.half[:, 0, 0, 0]), peak, INITIAL_MEAN_TOL):
        raise ValueError("initial data must be mean-zero")
    if divergence_defect(u0, peak) > DIVFREE_TOL:
        raise ValueError("initial data must be divergence-free")

    lat = _lattice(u0.grid, cfg.dealias)
    u = lat.crop(u0.half)
    u[:, 0, 0, 0] = 0.0

    n_steps = cfg.n_steps
    h = cfg.dt
    half_decay = np.exp(-4 * np.pi**2 * lat.k_sq * cfg.nu * h / 2.0)
    full_decay = half_decay**2
    h_half_decay, two_half_decay = h * half_decay, 2 * half_decay

    rows = []
    with _stage(lat) as stage:
        stability = _stability(u, stage, cfg)
        a, b, c, arg = np.empty((4, 3) + lat.shape, dtype=complex)

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
            # Classical RK4, u = fd u + h/6 (fd k1 + 2 hd (k2 + k3) + k4) with
            # k2 = N(hd (u + h/2 k1)), k3 = N(hd u + h/2 k2) and
            # k4 = N(fd u + h hd k3), in the buffers a, b, c and arg and in u
            # itself; every ufunc takes the expression's operands in its order.
            nonlinear_term(u, stage, a)  # k1
            np.multiply(0.5 * h, a, out=arg)
            np.add(u, arg, out=arg)
            np.multiply(half_decay, arg, out=arg)
            np.multiply(full_decay, a, out=a)  # fd k1
            nonlinear_term(arg, stage, b)  # k2
            np.multiply(half_decay, u, out=arg)
            np.add(arg, np.multiply(0.5 * h, b, out=c), out=arg)
            nonlinear_term(arg, stage, c)  # k3
            np.add(b, c, out=b)  # k2 + k3
            np.multiply(h_half_decay, c, out=c)
            np.multiply(full_decay, u, out=arg)
            np.add(arg, c, out=arg)
            nonlinear_term(arg, stage, c)  # k4
            np.multiply(two_half_decay, b, out=b)
            np.add(a, b, out=a)
            np.add(a, c, out=a)
            np.multiply(h / 6.0, a, out=a)
            np.multiply(full_decay, u, out=u)
            np.add(u, a, out=u)
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


@np.errstate(**_RUN_ERRSTATE)
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

    # A key that covers no row is None: the centered monitors need m >= 3,
    # the step increase and the Gronwall envelope m >= 2.
    gronwall_ok = gronwall_max_log_ratio = None
    if m >= 2:
        omega_h = cols["omega_h_hminushalf"]
        e0_scale = math.sqrt(max(E[0], 1.0))
        if omega_h[0] <= GRONWALL_2D_TOL * e0_scale:
            # 2D data: the envelope degenerates to zero
            gronwall_ok = not bool(np.any(omega_h[1:] > GRONWALL_2D_GROWTH_TOL * e0_scale))
        else:
            # E^2 past 1e308 overflows to an infinite exponent, a row the
            # envelope cannot bound: it and rows with no omega_h go unevaluated.
            exponent = _cumulative_trapezoid((2 * E) ** 2, t) / (consts.r2 * cfg.nu**3)
            log_ratio = 2 * np.log(np.maximum(omega_h[1:], 1e-300) / omega_h[0]) - exponent
            log_ratio = log_ratio[np.isfinite(exponent) & ~np.isnan(log_ratio)]
            if log_ratio.size:
                gronwall_max_log_ratio = float(np.max(log_ratio))
                gronwall_ok = bool(gronwall_max_log_ratio <= GRONWALL_LOG_TOL)

    summary = {
        "max_energy_eq_residual": float(np.max(energy_residual)),
        "max_strain_identity_residual": _non_nan(np.max, strain_res),
        "min_enstrophy_ineq_slack": _non_nan(np.min, slack),
        "horizontal_flag_all_true": bool(np.all(flag[1:-1] > 0.5)) if m > 2 else None,
        "gronwall_envelope_ok": gronwall_ok,
        "gronwall_max_log_ratio": gronwall_max_log_ratio,
        "max_energy_increase_per_step": float(np.max(np.diff(K))) if m >= 2 else None,
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


def _non_nan(reduce, a: np.ndarray) -> float | None:
    """``reduce`` over the non-NaN entries of a, None if there are none."""
    vals = a[~np.isnan(a)]
    return float(reduce(vals)) if len(vals) else None

