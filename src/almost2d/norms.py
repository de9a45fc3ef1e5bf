"""Function-space norms and anisotropic decompositions.

Homogeneous Sobolev norms use the lattice sum
    ||f||_{Hs}^2 = sum_{k != 0} (2 pi |k|)^{2s} |fhat(k)|^2,
with the k=0 term included only at s=0 (where Hs coincides with L2).
Lebesgue norms are equal-weight grid quadratures of the pointwise
Euclidean magnitude |u(x)|.  The heat-kernel Besov norm B^{-s}_{p,inf}
is sup_{t>0} t^{s/2} ||e^{t lap} u||_{Lp}, discretized by a log-spaced
coarse scan plus bounded refinement around the interior maximum.  For
p = 2 each t is a Plancherel sum over integer |k|^2 shells,
    ||e^{t lap} u||_{L2}^2 = sum_shells exp(-8 pi^2 |k|^2 t) sum_{shell} |uhat(k)|^2,
with the coefficients binned once; p != 2 transforms e^{t lap} u at each t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.optimize import minimize_scalar

from .field import (
    SpectralVectorField,
    StrainField,
    curl,
    divergence_defect,
    gradient_of_component,
    heat_semigroup,
    partial3,
    strain,
    to_physical,
)

MEAN_TOL = 1e-13


def _require_mean_zero(u: SpectralVectorField, context: str) -> None:
    if float(np.max(np.abs(u.coeffs[:, 0, 0, 0]))) > MEAN_TOL * u.amplitude():
        raise ValueError(f"{context} requires a mean-zero field")


def _require_divergence_free(u: SpectralVectorField, context: str) -> None:
    if divergence_defect(u) > 1e-8:
        raise ValueError(f"{context} requires a divergence-free field")


def sobolev_norm(u: SpectralVectorField, s: float) -> float:
    """Homogeneous Sobolev norm of order s on the torus."""
    if s < 0:
        _require_mean_zero(u, f"sobolev norm with s={s} < 0")
    weight = _sobolev_weight(u.grid, s)
    total = float(np.sum(weight * np.abs(u.coeffs) ** 2))
    return math.sqrt(total)


def _sobolev_weight(grid, s: float) -> np.ndarray:
    if s == 0:
        return np.ones_like(grid.k_sq)
    kabs = grid.k_abs
    safe = np.where(kabs == 0, 1.0, kabs)
    weight = (2 * np.pi * safe) ** (2 * s)
    weight = np.where(kabs == 0, 0.0, weight)
    return weight


def strain_sobolev_norm(s_field: StrainField, s: float) -> float:
    """Frobenius Sobolev norm of the strain, off-diagonals counted twice."""
    weight = _sobolev_weight(s_field.grid, s)
    total = 0.0
    for slot, w in enumerate(StrainField.FROBENIUS_WEIGHTS):
        total += w * float(np.sum(weight * np.abs(s_field.comps[slot]) ** 2))
    return math.sqrt(total)


def lebesgue_norm(u: SpectralVectorField, p: float) -> float:
    """Grid Lp norm of the pointwise magnitude |u(x)|; p = inf is the max."""
    if p != np.inf and p < 1:
        raise ValueError(f"Lebesgue norm requires p >= 1, got {p}")
    samples = to_physical(u).samples
    mag = np.sqrt(np.sum(samples**2, axis=0))
    if p == np.inf:
        return float(np.max(mag))
    return float(np.mean(mag**p) ** (1.0 / p))


@dataclass(frozen=True)
class BesovSearchConfig:
    """Discretization of the sup over t > 0."""

    t_min: float = 1e-6
    t_max: float = 1e2
    coarse_points: int = 64
    refine_iters: int = 80

    def __post_init__(self):
        if not (0 < self.t_min < self.t_max):
            raise ValueError("need 0 < t_min < t_max")
        if self.coarse_points < 16:
            raise ValueError("coarse_points must be >= 16")


@dataclass(frozen=True)
class BesovResult:
    value: float
    t_star: float


def besov_norm(
    u: SpectralVectorField,
    s: float,
    p: float,
    cfg: BesovSearchConfig = BesovSearchConfig(),
) -> BesovResult:
    """Heat-kernel Besov norm B^{-s}_{p,inf} with the maximizing time."""
    if s <= 0:
        raise ValueError(f"besov norm is defined for smoothness s > 0, got {s}")
    _require_mean_zero(u, "besov norm")
    if float(np.max(np.abs(u.coeffs))) == 0.0:
        return BesovResult(0.0, cfg.t_min)

    if p == 2:
        objective = _heat_l2_objective(u, s)
    else:

        def objective(t: float) -> float:
            return t ** (s / 2.0) * lebesgue_norm(heat_semigroup(u, t), p)

    ts = np.geomspace(cfg.t_min, cfg.t_max, cfg.coarse_points)
    values = np.array([objective(t) for t in ts])
    imax = int(np.argmax(values))
    if imax == 0 or imax == len(ts) - 1:
        raise ValueError(
            "coarse Besov scan peaked at the window edge; widen [t_min, t_max]"
        )
    res = minimize_scalar(
        lambda t: -objective(t),
        bounds=(ts[imax - 1], ts[imax + 1]),
        method="bounded",
        options={"maxiter": cfg.refine_iters, "xatol": 1e-14},
    )
    t_star = float(res.x)
    value = max(float(-res.fun), float(values[imax]))
    return BesovResult(value, t_star)


def _heat_l2_objective(u: SpectralVectorField, s: float):
    """t -> t^{s/2} ||e^{t lap} u||_{L2} with no transform per t: the
    squared coefficients are binned once into integer |k|^2 shells, and
    only the occupied shells are kept."""
    to_physical(u)  # the Hermitian check that the transform path makes
    weights = np.bincount(
        u.grid.k_sq.astype(np.int64).ravel(),
        weights=np.sum(np.abs(u.coeffs) ** 2, axis=0).ravel(),
    )
    shells = np.flatnonzero(weights)
    weights = weights[shells]
    decay = -8 * np.pi**2 * shells.astype(float)

    def objective(t: float) -> float:
        return t ** (s / 2.0) * math.sqrt(float(np.dot(np.exp(decay * t), weights)))

    return objective


@dataclass(frozen=True)
class FieldSummary:
    """The scalars of the almost-2D criterion and the norm battery of a
    velocity field, all Plancherel sums over its coefficients."""

    K: float  # energy 1/2 sum |uhat|^2, k = 0 included (= 1/2 ||u||_{L2}^2)
    E: float  # enstrophy 1/2 ||curl u||_{L2}^2
    hhalf: float  # ||u||_{H^1/2}
    h1: float  # ||u||_{H^1}
    omega_h_hminushalf: float  # ||(omega_1, omega_2, 0)||_{H^-1/2}


def field_summary(u: SpectralVectorField) -> FieldSummary:
    """FieldSummary of a divergence-free velocity field, with no transform."""
    _require_divergence_free(u, "field summary")
    w = curl(u)
    return FieldSummary(
        K=0.5 * sobolev_norm(u, 0) ** 2,
        E=0.5 * sobolev_norm(w, 0) ** 2,
        hhalf=sobolev_norm(u, 0.5),
        h1=sobolev_norm(u, 1.0),
        omega_h_hminushalf=sobolev_norm(horizontal(w), -0.5),
    )


def horizontal(v: SpectralVectorField) -> SpectralVectorField:
    """(v1, v2, 0) as a new field.  As in p2d_split, a mean-zero input's
    roundoff k = 0 coefficient is dropped, so the part keeps the flag."""
    coeffs = v.coeffs.copy()
    coeffs[2] = 0.0
    if v.mean_zero:
        coeffs[:, 0, 0, 0] = 0.0
    return SpectralVectorField(v.grid, coeffs, v.mean_zero)


@dataclass
class HorizontalParts:
    """Horizontal vorticity, the vector v3 = d3 u + grad u3, and the two
    independent components of the strain commutator matrix."""

    omega_h: SpectralVectorField
    v3: SpectralVectorField
    s13: np.ndarray
    s23: np.ndarray
    grid: object

    def sh_sobolev_norm(self, s: float) -> float:
        """Frobenius Sobolev norm of [[0,0,S13],[0,0,S23],[-S13,-S23,0]]."""
        weight = _sobolev_weight(self.grid, s)
        total = 2.0 * float(
            np.sum(weight * (np.abs(self.s13) ** 2 + np.abs(self.s23) ** 2))
        )
        return math.sqrt(total)


def horizontal_parts(u: SpectralVectorField) -> HorizontalParts:
    _require_divergence_free(u, "horizontal decomposition")
    v3 = partial3(u) + gradient_of_component(u, 2)
    s_field = strain(u)
    return HorizontalParts(
        omega_h=horizontal(curl(u)),
        v3=v3,
        s13=s_field.comps[StrainField.INDEX[(1, 3)]],
        s23=s_field.comps[StrainField.INDEX[(2, 3)]],
        grid=u.grid,
    )


def p2d_split(u: SpectralVectorField) -> tuple[SpectralVectorField, SpectralVectorField]:
    """Vertical-average projection: (k3 = 0 plane restriction, remainder).

    For a mean-zero field the roundoff k = 0 coefficient is dropped, so both
    parts carry the mean-zero flag exactly.
    """
    coeffs = u.coeffs.copy()
    if u.mean_zero:
        coeffs[:, 0, 0, 0] = 0.0
    two_d = np.zeros_like(coeffs)
    two_d[:, :, :, 0] = coeffs[:, :, :, 0]
    perp = coeffs - two_d
    return (
        SpectralVectorField(u.grid, two_d, u.mean_zero),
        SpectralVectorField(u.grid, perp, True),
    )


@dataclass(frozen=True)
class BoundCheck:
    lhs: float
    rhs: float

    @property
    def ratio(self) -> float:
        return self.lhs / self.rhs if self.rhs > 0 else math.inf


def p2dperp_bound_check(u: SpectralVectorField) -> BoundCheck:
    """||perp part||_{H^1/2} against (1/2pi) ||d3 u||_{H^1/2}."""
    _, perp = p2d_split(u)
    lhs = sobolev_norm(perp, 0.5)
    rhs = sobolev_norm(partial3(u), 0.5) / (2 * np.pi)
    if lhs > rhs * (1 + 1e-10) + 1e-300:
        raise AssertionError(
            f"vertical-average remainder bound violated: {lhs:.15e} > {rhs:.15e}"
        )
    return BoundCheck(lhs, rhs)


class ConePart(Enum):
    INSIDE = "inside"
    OUTSIDE = "outside"


def cone_filter(
    u: SpectralVectorField, eps: float, part: ConePart | str
) -> SpectralVectorField:
    """Restrict the spectrum to the cone |k3| < eps * sqrt(k1^2 + k2^2)
    (inside) or its complement (outside).

    Modes on the k3 axis fail the inside test (the defining ratio is
    infinite) except k = 0, which is inside by convention.
    """
    if not 0 < eps < 1:
        raise ValueError(f"cone parameter must satisfy 0 < eps < 1, got {eps}")
    part = ConePart(part)
    k1, k2, k3 = u.grid.k
    r = np.sqrt(k1**2 + k2**2)
    inside = np.abs(k3) < eps * r
    inside = inside | ((r == 0) & (k3 == 0))
    mask = inside if part is ConePart.INSIDE else ~inside
    return SpectralVectorField(
        u.grid, u.coeffs * mask, u.mean_zero or part is ConePart.OUTSIDE
    )


def v3_omega_h_ratio(u: SpectralVectorField, q: float) -> float:
    """||v3||_Lq / ||omega_h||_Lq, the two-sided Riesz-equivalence ratio."""
    parts = horizontal_parts(u)
    denom = lebesgue_norm(parts.omega_h, q)
    if denom == 0:
        raise ValueError("omega_h vanishes; ratio undefined")
    return lebesgue_norm(parts.v3, q) / denom
