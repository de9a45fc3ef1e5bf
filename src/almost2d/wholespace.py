"""Deterministic quadrature of the explicit whole-space integrals.

The thin-annulus family, the heat-kernel embedding constants, and the cone
constants are exact integrals over R^3; cylindrical or radial Gauss-Legendre
quadrature evaluates them, with analytic 1D reductions as independent
oracles where the tests demand one.  Each Gauss-Legendre rule is built once
per node count and mapped to every interval that uses it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .criteria import criterion_quantity
from .families import random_divergence_free
from .field import MAJORANT_TOL, NODE_DIVFREE_TOL, QUADRATURE_TOL, curl, heat_semigroup
from .grid import GridSpec
from .norms import lebesgue_norm

TWO_OVER_SQRT_PI = 2.0 / math.sqrt(math.pi)


@dataclass(frozen=True)
class QuadratureSpec:
    """The Gauss-Legendre rule of ``nodes`` nodes, on every interval."""

    nodes: int = 128

    def __post_init__(self):
        if self.nodes < 16:
            raise ValueError("node counts must be >= 16")

    def rule(self, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
        """Nodes and weights on [a, b], as new arrays."""
        x, w = _gauss_legendre(self.nodes)
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        return mid + half * x, half * w


@functools.lru_cache(maxsize=8)
def _gauss_legendre(count: int) -> tuple[np.ndarray, np.ndarray]:
    """The count-node Gauss-Legendre rule on [-1, 1], read-only; its
    eigen-solve runs once per count."""
    x, w = np.polynomial.legendre.leggauss(count)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


@dataclass
class AnnulusFamilyReport:
    n: int
    volume: float
    l2_sq: float
    hminus1_sq_upper: float
    horizontal_hminushalf_sq: float
    criterion_quantity: float
    besov_half_lower: float

    def as_dict(self) -> dict:
        return self.__dict__.copy()


def _annulus_density_sq(n: int, r: np.ndarray, z: np.ndarray) -> np.ndarray:
    """|what(xi)|^2 = n loglog(n)^(1/2) (1 + z^2/r^2) on the shell."""
    return n * math.sqrt(math.log(math.log(n))) * (1.0 + (z / r) ** 2)


def lambda_n_report(n: int, quad: QuadratureSpec = QuadratureSpec(), nu: float = 1.0) -> AnnulusFamilyReport:
    """Quadrature of the thin-shell integrals over {1 <= r <= 2, |z| < 1/n}.

    Asserts the closed-form upper bounds on every integral and the
    per-node solenoidality of the density.
    """
    if n < 3:
        raise ValueError(f"loglog(n) undefined for n={n} < 3")
    loglog_half = math.sqrt(math.log(math.log(n)))
    r, wr = quad.rule(1.0, 2.0)
    z, wz = quad.rule(-1.0 / n, 1.0 / n)
    R, Z = np.meshgrid(r, z, indexing="ij")
    W = np.outer(wr, wz) * 2 * math.pi * R  # cylindrical volume element

    # xi . what = z - (z/r) r = 0 identically; assert at the nodes.
    density_dot = np.abs(Z * 1.0 + R * (-(Z / R)))
    if float(np.max(density_dot)) > NODE_DIVFREE_TOL:
        raise AssertionError("shell density is not solenoidal at the quadrature nodes")

    amp_sq = _annulus_density_sq(n, R, Z)
    xi_sq = R**2 + Z**2

    volume = float(np.sum(W))
    l2_sq = float(np.sum(W * amp_sq))
    hminus1_sq = float(np.sum(W * amp_sq / (4 * math.pi**2 * xi_sq)))
    horiz_amp_sq = n * loglog_half * (Z / R) ** 2
    horizontal_sq = float(np.sum(W * horiz_amp_sq / (2 * math.pi * np.sqrt(xi_sq))))

    bounds = [
        (l2_sq, 20 * math.pi / 3 * loglog_half, "L2"),
        (hminus1_sq, 5 / (3 * math.pi) * loglog_half, "H^-1"),
        (horizontal_sq, loglog_half / n**2, "horizontal H^-1/2"),
    ]
    for value, bound, label in bounds:
        if not value < bound:
            raise AssertionError(
                f"{label} quadrature {value} does not sit below its bound {bound}"
            )

    # K0 = ||u||_{L2}^2 / 2 = ||omega||_{H^-1}^2 / 2 and E0 = ||omega||_{L2}^2 / 2.
    criterion = criterion_quantity(
        math.sqrt(horizontal_sq), 0.5 * hminus1_sq, 0.5 * l2_sq, nu
    )
    # sup_t sqrt(t) exp(-40 pi^2 t) at t* = 1/(80 pi^2), times 6 pi loglog^(1/2):
    # lower bound for the squared B^{-1/2}_{2,inf} norm.
    sup_factor = math.sqrt(1.0 / (80 * math.pi**2)) * math.exp(-0.5)
    besov_lower_sq = 6 * math.pi * sup_factor * loglog_half

    return AnnulusFamilyReport(
        n=n,
        volume=volume,
        l2_sq=l2_sq,
        hminus1_sq_upper=hminus1_sq,
        horizontal_hminushalf_sq=horizontal_sq,
        criterion_quantity=criterion,
        besov_half_lower=besov_lower_sq,
    )


def _holder_exponent(p: float) -> float:
    """s with 1/s = 1/2 - 1/p, the Holder pairing exponent."""
    if not p > 2:  # NaN included
        raise ValueError(f"embedding constants need p > 2, got {p}")
    if p == math.inf:
        return 2.0
    return 1.0 / (0.5 - 1.0 / p)


def _radial_truncation(s: float) -> float:
    # exp(-4 pi^2 s r^2) below 1e-18 of the peak; s >= 2 here keeps R small.
    return math.sqrt(42.0 / (4 * math.pi**2 * s)) + 1.0


def _radial_moment_root(s: float) -> float:
    """(int_0^inf 4 pi r^(2+s/2) exp(-4 pi^2 s r^2) dr)^(1/s) in closed form:
    the moment is 2 pi Gamma(m) (4 pi^2 s)^-m with m = 3/2 + s/4, taken
    through its logarithm so that no power leaves the double range."""
    m = 1.5 + s / 4
    log_moment = math.log(2 * math.pi) + math.lgamma(m) - m * math.log(4 * math.pi**2 * s)
    return math.exp(log_moment / s)


def _require_resolved(p: float, quad: QuadratureSpec, value: float, closed: float) -> None:
    """Refuse a p whose radial quadrature misses its closed form by more than
    QUADRATURE_TOL, NaN included: near p = 2 the peak at r = 1/(4 pi) narrows
    as s^(-1/2), and below p = 2.005 or so the powers overflow or underflow."""
    if not abs(value - closed) <= QUADRATURE_TOL * closed:
        raise ValueError(
            f"embedding constants need a p whose radial integral {quad.nodes} nodes resolve "
            f"to {QUADRATURE_TOL:g} in double precision: at p={p} the rule gives {value:.9e} "
            f"against the closed form {closed:.9e}"
        )


def besov_embedding_constant(p: float, quad: QuadratureSpec = QuadratureSpec()) -> float:
    """|| (2 pi |zeta|)^(1/2) exp(-4 pi^2 |zeta|^2) ||_{L^s(R^3)} with
    1/s = 1/2 - 1/p; the constant of the H^-1/2 -> B^{-2+3/p}_{p,inf}
    embedding.  p = 2 is the sup-norm (s = inf) endpoint.  A p whose
    integrand overflows, or whose integral quad misses the closed form of
    ``_radial_moment_root`` by more than QUADRATURE_TOL, is refused."""
    if p == 2:
        # sup of (2 pi r)^(1/2) exp(-4 pi^2 r^2) at r^2 = 1/(16 pi^2)
        rstar = 1.0 / (4 * math.pi)
        return math.sqrt(2 * math.pi * rstar) * math.exp(-4 * math.pi**2 * rstar**2)
    s = _holder_exponent(p)
    R = _radial_truncation(s)
    r, w = quad.rule(0.0, R)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        integrand = 4 * math.pi * r**2 * (2 * math.pi * r) ** (s / 2) * np.exp(
            -4 * math.pi**2 * s * r**2
        )
        value = float(np.sum(w * integrand)) ** (1.0 / s)
    _require_resolved(p, quad, value, math.sqrt(2 * math.pi) * _radial_moment_root(s))
    return value


@dataclass(frozen=True)
class ConeConstant:
    direct: float
    majorant: float


def cone_embedding_constant(
    p: float, eps: float, quad: QuadratureSpec = QuadratureSpec()
) -> ConeConstant:
    """Same integrand restricted to the cone {|z| < eps r}, plus the
    explicit majorant (2 pi)^(1/2) 2^(1/4) I_s^(1/s) eps^(1/s); p is refused
    as by ``besov_embedding_constant``, through I_s."""
    if not 0 < eps < 1:
        raise ValueError(f"cone parameter must satisfy 0 < eps < 1, got {eps}")
    s = _holder_exponent(p)
    R = _radial_truncation(s)
    r, wr = quad.rule(0.0, R)

    # Vertical rule on [-eps r_i, eps r_i] for every radial node at once:
    # z_ij = eps r_i x_j, w_ij = eps r_i w_j.
    x, wx = quad.rule(-1.0, 1.0)
    half = (eps * r)[:, None]
    z, wz = half * x, half * wx
    rho_sq = (r**2)[:, None] + z**2
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        integrand = (2 * math.pi * np.sqrt(rho_sq)) ** (s / 2) * np.exp(
            -4 * math.pi**2 * s * rho_sq
        )
        vertical = np.sum(wz * integrand, axis=1)
        direct = float(np.sum(2 * math.pi * r * wr * vertical)) ** (1.0 / s)

    # I_s, the radial rule's integral, is the moment of _radial_moment_root.
    tail = 4 * math.pi * r ** (2 + s / 2) * np.exp(-4 * math.pi**2 * s * r**2)
    i_s_root = float(np.sum(wr * tail)) ** (1.0 / s)
    _require_resolved(p, quad, i_s_root, _radial_moment_root(s))
    majorant = math.sqrt(2 * math.pi) * 2**0.25 * i_s_root * eps ** (1.0 / s)
    if not direct <= majorant * (1 + MAJORANT_TOL):  # NaN fails too
        raise AssertionError(
            f"cone quadrature {direct} exceeds its majorant {majorant}"
        )
    return ConeConstant(direct, majorant)


@dataclass
class HeatKernelReport:
    grad_g_l1: float
    curl_checks: list[dict]

    @property
    def all_hold(self) -> bool:
        return all(row["lhs"] <= row["rhs"] * (1 + MAJORANT_TOL) for row in self.curl_checks)


def heat_kernel_constants(quad: QuadratureSpec = QuadratureSpec()) -> HeatKernelReport:
    """||grad g||_{L^1} for g = (4 pi)^(-3/2) exp(-|x|^2/4), checked against
    the closed form 2/sqrt(pi), plus the curl-smoothing bound
    ||curl e^{t lap} v||_p <= t^(-1/2) ||grad g||_1 ||v||_p on random torus
    fields."""
    r, w = quad.rule(0.0, 16.0)
    g = (4 * math.pi) ** (-1.5) * np.exp(-(r**2) / 4.0)
    integrand = 4 * math.pi * r**2 * g * (r / 2.0)
    grad_g_l1 = float(np.sum(w * integrand))
    if abs(grad_g_l1 - TWO_OVER_SQRT_PI) > QUADRATURE_TOL * TWO_OVER_SQRT_PI:
        raise AssertionError(
            f"||grad g||_1 quadrature {grad_g_l1} deviates from 2/sqrt(pi)"
        )

    grid = GridSpec(16)
    rows = []
    for seed in (11, 12, 13):
        v = random_divergence_free(grid, seed, kmax=4)
        for t in (0.01, 0.1):
            smoothed = curl(heat_semigroup(v, t))
            for p in (2.0, math.inf):
                rows.append(
                    {
                        "seed": seed,
                        "t": t,
                        "p": p,
                        "lhs": lebesgue_norm(smoothed, p),
                        "rhs": grad_g_l1 / math.sqrt(t) * lebesgue_norm(v, p),
                    }
                )
    report = HeatKernelReport(grad_g_l1, rows)
    if not report.all_hold:
        raise AssertionError("heat-curl smoothing bound violated on a sample field")
    return report
