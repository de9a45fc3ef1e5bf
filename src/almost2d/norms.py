"""Function-space norms.

Every Hilbert-space quantity is a dot product with one shell spectrum
P(m) = sum_{|k|^2 = m} |fhat(k)|^2, m = 0 ... 3 (n/2)^2 (``ShellSpectrum``),
summed over the half lattice with each plane's Plancherel multiplicity:
    ||f||_{Hs}^2 = sum_{m > 0} (2 pi sqrt(m))^{2s} P(m)  (m = 0 too at s = 0),
    ||e^{t lap} f||_{L2}^2 = sum_m exp(-8 pi^2 m t) P(m).
The vertical average P2d f and its complement are the spectra of the k3 = 0
plane and of the planes k3 >= 1, binned from f's own coefficients.
Lebesgue norms are equal-weight grid quadratures of the pointwise
Euclidean magnitude |u(x)|.  The heat-kernel Besov norm B^{-s}_{p,inf}
is sup_{t>0} t^{s/2} ||e^{t lap} u||_{Lp}, discretized by a scan of
COARSE_POINTS log-spaced times in [T_MIN, T_MAX] plus a bounded refinement
of at most REFINE_CALLS objective calls around the interior maximum; p = 2
evaluates the spectrum at each t with no transform, p != 2 is the
definition itself, the Lp norm of ``heat_semigroup(u, t)``.  Each spectrum
bins through the grid's cached ``shell_index``, and ``samples_lebesgue_norm``
forms |u|, then |u|^p, in one array.  The refinement is the package's own
bounded Brent search (``_bounded_minimum``), so no verb loads scipy.optimize,
whose import costs 240 modules and about 20 MB.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .field import (
    MEAN_TOL,
    NORM_DIVFREE_TOL,
    SpectralVectorField,
    curl,
    divergence_defect,
    heat_semigroup,
    is_mean_zero,
    to_physical,
)
from .grid import GridSpec

#: The Besov sup's discretization: the coarse scan's window and points, and
#: the cap on the refinement's objective calls.
T_MIN, T_MAX, COARSE_POINTS, REFINE_CALLS = 1e-6, 1e2, 64, 80


def _require_divergence_free(u: SpectralVectorField, context: str,
                             peak: float | None = None) -> None:
    if divergence_defect(u, peak) > NORM_DIVFREE_TOL:
        raise ValueError(f"{context} requires a divergence-free field")


class ShellSpectrum:
    """Shell-summed spectrum P_c(m) = sum_{|k|^2 = m} |c_c(k)|^2 of each
    component c of a half-spectrum array (c, n, n, n/2 + 1), planes weighted
    by multiplicity, with the largest |c| and the k = 0 mean-zero test.
    ``planes`` bins only that block of k3 planes, read as a view: the block
    k3 = 0 is the vertical average P2d, k3 >= 1 its complement.  A block
    without k3 = 0 holds no mean and passes the test.  |c| is formed one
    component at a time, in one array that is squared and weighted in place."""

    def __init__(self, grid: GridSpec, half: np.ndarray, planes: slice = slice(None)):
        size = 3 * (grid.n // 2) ** 2 + 1
        shells = grid.shell_index[..., planes].ravel()
        weight = grid.multiplicity[..., planes]
        holds_mean = 0 in range(grid.n // 2 + 1)[planes]
        peaks, k0, power = [], [], []
        for component in half:
            p = np.abs(component[..., planes])
            peaks.append(np.max(p))
            k0.append(p[0, 0, 0] if holds_mean else 0.0)
            np.square(p, out=p)
            p *= weight
            power.append(np.bincount(shells, weights=p.ravel(), minlength=size))
        self.peak = float(np.max(peaks))
        self.mean_zero = is_mean_zero(k0, self.peak, MEAN_TOL)
        self.power = np.stack(power)
        self._m = np.arange(size, dtype=float)

    def sobolev_sq(self, s: float) -> np.ndarray:
        """||.||_{Hs}^2 of each component; s < 0 needs a mean-zero array."""
        if s == 0:
            return self.power.sum(axis=1)
        if s < 0 and not self.mean_zero:
            raise ValueError(f"sobolev norm with s={s} < 0 requires a mean-zero field")
        weight = np.zeros_like(self._m)
        weight[1:] = (2 * np.pi * np.sqrt(self._m[1:])) ** (2 * s)
        return self.power @ weight

    def heat_l2(self, t: float) -> float:
        """||e^{t lap} .||_{L2} of the whole array."""
        decay = np.exp(-8 * np.pi**2 * self._m * t)
        return math.sqrt(float(np.dot(decay, self.power.sum(axis=0))))


def lebesgue_norm(u: SpectralVectorField, p: float) -> float:
    """Grid Lp norm of the pointwise magnitude |u(x)|; p = inf is the max."""
    return samples_lebesgue_norm(to_physical(u).samples, p)


def samples_lebesgue_norm(samples: np.ndarray, p: float) -> float:
    """``lebesgue_norm`` of grid samples indexed (component, x1, x2, x3)."""
    if p != np.inf and p < 1:
        raise ValueError(f"Lebesgue norm requires p >= 1, got {p}")
    # |u|^2 summed component by component, then |u| and |u|^p, in place.
    mag = np.square(samples[0])
    if len(samples) > 1:
        term = np.empty_like(mag)
        for component in samples[1:]:
            mag += np.square(component, out=term)
    np.sqrt(mag, out=mag)
    if p == np.inf:
        return float(np.max(mag))
    mag **= p
    return float(np.mean(mag) ** (1.0 / p))


@dataclass(frozen=True)
class BesovResult:
    """The norm and the time t* at which the heat scan peaks.  ``value`` is
    good to about 1e-12 relative, ``t_star`` only to about 1e-7: the maximum
    is flat, so a change of 1e-16 in the objective moves t* by about its
    square root."""

    value: float
    t_star: float


def besov_norm(
    u: SpectralVectorField,
    s: float,
    p: float,
    spectrum: ShellSpectrum | None = None,
) -> BesovResult:
    """Heat-kernel Besov norm B^{-s}_{p,inf} with the maximizing time: the
    coarse scan's peak, refined by the package's bounded Brent search
    (``_bounded_minimum``, no scipy.optimize) between its two neighbours.
    ``spectrum`` is u's ``ShellSpectrum``, when the caller has already made it.
    The value is good to about 1e-12 relative and t* to about 1e-7 (see
    ``BesovResult``): compare t* no tighter than that."""
    if s <= 0:
        raise ValueError(f"besov norm is defined for smoothness s > 0, got {s}")
    spectrum = ShellSpectrum(u.grid, u.half) if spectrum is None else spectrum
    if not spectrum.mean_zero:
        raise ValueError("besov norm requires a mean-zero field")
    if spectrum.peak == 0.0:
        return BesovResult(0.0, T_MIN)

    if p == 2:

        def objective(t: float) -> float:
            return t ** (s / 2.0) * spectrum.heat_l2(t)

    else:

        def objective(t: float) -> float:
            return t ** (s / 2.0) * lebesgue_norm(heat_semigroup(u, t), p)

    ts = np.geomspace(T_MIN, T_MAX, COARSE_POINTS)
    values = np.array([objective(t) for t in ts])
    imax = int(np.argmax(values))
    if imax == 0 or imax == len(ts) - 1:
        raise ValueError(f"coarse Besov scan peaked at t={ts[imax]:g}, "
                         f"the edge of its window [{T_MIN:g}, {T_MAX:g}]")
    t_star, low, _ = _bounded_minimum(
        lambda t: -objective(t), ts[imax - 1], ts[imax + 1], 1e-14, REFINE_CALLS
    )
    return BesovResult(max(float(-low), float(values[imax])), float(t_star))


_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))
_SQRT_EPS = math.sqrt(2.2e-16)


def _bounded_minimum(f, a, b, xatol: float, maxiter: int):
    """(x, f(x), calls of f) at Brent's bounded minimum of f on [a, b] (Brent,
    Algorithms for Minimization without Derivatives, 1973, ch. 5), restated
    from scipy's ``_minimize_scalar_bounded`` (BSD-3-Clause, (c) 2001-2002
    Enthought, Inc. and 2003-2024 SciPy Developers) step for step, so f is
    called at the same points and the result is minimize_scalar(method=
    "bounded")'s (x, fun, nfev) as bits.  maxiter caps the calls of f."""
    fulc = a + _GOLDEN * (b - a)
    nfc = xf = fulc
    rat = e = 0.0
    fx = f(xf)
    calls = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:  # the parabola through (xf, fx), (nfc, fnfc), (fulc, ffulc)
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                golden = False
                rat = p / q
                if (xf + rat - a) < tol2 or (b - (xf + rat)) < tol2:  # too near an end
                    rat = tol1 if xm >= xf else -tol1
        if golden:
            e = (a if xf >= xm else b) - xf
            rat = _GOLDEN * e
        step = max(abs(rat), tol1)
        x = xf + (step if rat >= 0 else -step)
        fu = f(x)
        calls += 1
        if fu <= fx:  # x is the new best point: shift the older two
            a, b = (xf, b) if x >= xf else (a, xf)
            fulc, ffulc, nfc, fnfc, xf, fx = nfc, fnfc, xf, fx, x, fu
        else:
            a, b = (x, b) if x < xf else (a, x)
            if fu <= fnfc or nfc == xf:
                fulc, ffulc, nfc, fnfc = nfc, fnfc, x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if calls >= maxiter:
            break
    return xf, fx, calls


@dataclass(frozen=True)
class FieldSummary:
    """The scalars of the almost-2D criterion and the norm battery of a
    velocity field, all Plancherel sums over its coefficients."""

    K: float  # energy 1/2 sum |uhat|^2, k = 0 included (= 1/2 ||u||_{L2}^2)
    E: float  # enstrophy 1/2 ||curl u||_{L2}^2
    hhalf: float  # ||u||_{H^1/2}
    h1: float  # ||u||_{H^1}
    omega_h_hminushalf: float  # ||(omega_1, omega_2, 0)||_{H^-1/2}
    omega: SpectralVectorField = dc_field(repr=False, compare=False)  # curl u, summed for E and omega_h


def field_summary(u: SpectralVectorField) -> FieldSummary:
    """FieldSummary of a divergence-free velocity field, with no transform.
    The divergence check takes max |uhat| from the velocity's spectrum."""
    velocity = ShellSpectrum(u.grid, u.half)
    _require_divergence_free(u, "field summary", velocity.peak)
    omega = curl(u)
    vorticity = ShellSpectrum(u.grid, omega.half)
    return FieldSummary(
        K=0.5 * float(velocity.sobolev_sq(0).sum()),
        E=0.5 * float(vorticity.sobolev_sq(0).sum()),
        hhalf=math.sqrt(velocity.sobolev_sq(0.5).sum()),
        h1=math.sqrt(velocity.sobolev_sq(1.0).sum()),
        omega_h_hminushalf=math.sqrt(vorticity.sobolev_sq(-0.5)[:2].sum()),
        omega=omega,
    )

