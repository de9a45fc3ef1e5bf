"""Sharp constants, regularity criteria, and growth envelopes.

All criteria use strict inequality: boundary inputs report not satisfied.
Torus fields are evaluated against the whole-space sharp constants; reports
carry a constants_version label recording that choice.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field as dc_field

import numpy as np

from .field import LP_MAJORANT_TOL, SpectralVectorField, to_physical
from .norms import p2d_split, samples_lebesgue_norm, sobolev_norm

CONSTANTS_VERSION = "whole-space-sharp-v1"

#: Coefficient of nu^4 in the small-data energy-enstrophy threshold.
SMALL_DATA_COEFF = 6912 * math.pi**4


@dataclass(frozen=True)
class SharpConstants:
    c1: float
    c2: float
    r1: float
    r2: float
    small_data_threshold_coeff: float


# Closed forms; R1 = 1/(2 C1 C2) and R2 = 128/(27 (1+sqrt2)^4 C1^4 C2^4)
# agree with them to roundoff (asserted in the tests).
_SHARP = SharpConstants(
    c1=2.0 ** (-1.0 / 6.0) * math.pi ** (-1.0 / 3.0),
    c2=(2.0 / math.pi) ** (2.0 / 3.0) / math.sqrt(3.0),
    r1=math.sqrt(3.0) * math.pi / (2.0 * math.sqrt(2.0)),
    r2=32.0 * math.pi**4 / (3.0 * (1.0 + math.sqrt(2.0)) ** 4),
    small_data_threshold_coeff=SMALL_DATA_COEFF,
)


def constants() -> SharpConstants:
    """The sharp constants, evaluated once at import."""
    return _SHARP


@dataclass
class CriterionReport:
    name: str
    lhs: float
    rhs: float
    satisfied: bool
    inputs: dict[str, float] = dc_field(default_factory=dict)
    constants_version: str = CONSTANTS_VERSION

    def as_dict(self) -> dict:
        return asdict(self)


def _require_valid_inputs(nu: float, *norms: float) -> None:
    """0 < nu < inf, the precondition of every criterion and of a solver run,
    and finite norms: a NaN norm must not reach a verdict."""
    if not 0 < nu < math.inf:
        raise ValueError(f"viscosity must be positive and finite, got {nu}")
    if not all(math.isfinite(x) for x in norms):
        raise ValueError(f"criterion norms must be finite, got {norms}")


def _log_verdict(factor: float, exponent: float, rhs: float) -> tuple[float, float, bool]:
    """(log lhs, lhs, lhs < rhs) for lhs = factor exp(exponent), factor >= 0,
    the verdict from logs so extreme exponents cannot over/underflow it."""
    log_lhs = math.log(factor) + exponent if factor > 0 else -math.inf
    with np.errstate(over="ignore"):
        lhs = float(factor * np.exp(exponent)) if factor > 0 else 0.0
    return log_lhs, lhs, log_lhs < math.log(rhs)


def small_data_check(K0: float, E0: float, nu: float) -> CriterionReport:
    """Energy-enstrophy product against 6912 pi^4 nu^4."""
    _require_valid_inputs(nu, K0, E0)
    if K0 < 0 or E0 < 0:
        raise ValueError("energy and enstrophy must be nonnegative")
    lhs = K0 * E0
    rhs = SMALL_DATA_COEFF * nu**4
    return CriterionReport(
        "small-data", lhs, rhs, lhs < rhs, {"K0": K0, "E0": E0, "nu": nu}
    )


def _gamma2d(name: str, factor: float, product: float, nu: float,
             inputs: dict[str, float]) -> CriterionReport:
    """The almost-2D criterion factor * exp((product - 6912 pi^4 nu^4) / (R2 nu^3))
    < R1 nu, for whichever norms bound the factor and the energy-enstrophy
    product; ``inputs`` gains log_lhs as its last entry."""
    consts = constants()
    exponent = (product - SMALL_DATA_COEFF * nu**4) / (consts.r2 * nu**3)
    rhs = consts.r1 * nu
    log_lhs, lhs, satisfied = _log_verdict(factor, exponent, rhs)
    inputs["log_lhs"] = log_lhs
    return CriterionReport(name, lhs, rhs, satisfied, inputs)


def gamma2d_from_norms(
    omega_h_norm: float, K0: float, E0: float, nu: float
) -> CriterionReport:
    """Almost-2D global-regularity criterion from a velocity's norms:
    ||omega_h||_{H^-1/2} exp((K0 E0 - 6912 pi^4 nu^4)/(R2 nu^3)) < R1 nu."""
    _require_valid_inputs(nu, omega_h_norm, K0, E0)
    return _gamma2d("gamma2d", omega_h_norm, K0 * E0, nu,
                    {"K0": K0, "E0": E0, "nu": nu, "omega_h_hminushalf": omega_h_norm})


def criterion_quantity(omega_h: float, K0: float, E0: float, nu: float) -> float:
    """The unshifted criterion quantity ||omega_h|| exp(K0 E0 / (R2 nu^3));
    inf where the exponential overflows."""
    _require_valid_inputs(nu, omega_h, K0, E0)
    return _log_verdict(omega_h, K0 * E0 / (constants().r2 * nu**3), 1.0)[1]


def gamma2d_lp_from_norms(
    omega_h_l32: float, omega_l65: float, omega_l2: float, nu: float
) -> CriterionReport:
    """Lp-form criterion from precomputed vorticity norms; also the entry
    point for objects that expose norms without a plain field (rescalings)."""
    _require_valid_inputs(nu, omega_h_l32, omega_l65, omega_l2)
    consts = constants()
    product = 0.25 * consts.c2**2 * omega_l65**2 * omega_l2**2
    return _gamma2d("gamma2d-lp", consts.c1 * omega_h_l32, product, nu,
                    {"omega_h_l32": omega_h_l32, "omega_l65": omega_l65,
                     "omega_l2": omega_l2, "nu": nu, "KE_upper": product})


def gamma2d_lp_check(omega: SpectralVectorField, hilbert: CriterionReport) -> CriterionReport:
    """Lp-only form of the criterion, stated on the vorticity omega = curl u:
    C1 ||omega_h||_{L^3/2} exp((C2^2 ||omega||_{L^6/5}^2 ||omega||_{L^2}^2 / 4
    - 6912 pi^4 nu^4) / (R2 nu^3)) < R1 nu.

    ``hilbert`` is u's ``gamma2d`` report: nu and ||omega||_{L^2} = sqrt(2 E0)
    come from it, so omega's one inverse transform gives the two Lebesgue
    norms.  Also certifies the derivation direction: that report's left side
    never exceeds this one.
    """
    samples = to_physical(omega).samples
    omega_l2 = math.sqrt(2 * hilbert.inputs["E0"])
    report = gamma2d_lp_from_norms(samples_lebesgue_norm(samples[:2], 1.5),
                                   samples_lebesgue_norm(samples, 1.2), omega_l2,
                                   hilbert.inputs["nu"])
    if hilbert.inputs["log_lhs"] > report.inputs["log_lhs"] + LP_MAJORANT_TOL:
        raise AssertionError(
            "Hilbert-norm criterion left side exceeds its Lp majorant: "
            f"{hilbert.inputs['log_lhs']} > {report.inputs['log_lhs']}"
        )
    report.inputs["log_lhs_hilbert"] = hilbert.inputs["log_lhs"]
    return report


@dataclass
class Envelopes:
    """Enstrophy growth envelopes; None means the formula is inapplicable."""

    global_enstrophy_bound: float | None
    local_enstrophy_bound: float | None
    nu: float
    inapplicable_reason: str | None = None


def envelopes(K0: float, E0: float, nu: float, t: float) -> Envelopes:
    """Global (small-data) and local-in-time enstrophy bounds at time t."""
    _require_valid_inputs(nu, K0, E0)
    if t < 0:
        raise ValueError(f"time must be nonnegative, got {t}")
    reason = None
    threshold = SMALL_DATA_COEFF * nu**4
    if K0 * E0 < threshold:
        global_bound = E0 / (1.0 - K0 * E0 / threshold)
    else:
        global_bound = None
        reason = "K0*E0 at or above the small-data threshold"

    window = SMALL_DATA_COEFF / 4 * nu**3
    if E0 == 0:
        local_bound = 0.0
    elif t < window / E0**2:
        local_bound = E0 / math.sqrt(1.0 - E0**2 * t / window)
    else:
        raise ValueError(
            f"t={t} is beyond the local validity window {window / E0**2}"
        )
    return Envelopes(global_bound, local_bound, nu, reason)


def iftimie_check(u: SpectralVectorField, nu: float, c: float) -> CriterionReport:
    """Two-dimensional-perturbation criterion
    ||P2d_perp(u)||_{H^1/2} exp(||P2d(u)||_{L2}^2 / (c nu^2)) < c nu.

    The constant c is not pinned by any computation here; the caller must
    supply one, and the report records it.
    """
    _require_valid_inputs(nu)
    if not 0 < c < math.inf:
        raise ValueError(f"the criterion constant must be positive and finite, got {c}")
    two_d, perp = p2d_split(u)
    perp_half = sobolev_norm(perp, 0.5)
    two_d_l2 = sobolev_norm(two_d, 0)
    rhs = c * nu
    log_lhs, lhs, satisfied = _log_verdict(perp_half, two_d_l2**2 / (c * nu**2), rhs)
    return CriterionReport(
        "iftimie-perturbation",
        lhs,
        rhs,
        satisfied,
        {
            "perp_hhalf": perp_half,
            "two_d_l2": two_d_l2,
            "nu": nu,
            "c": c,
            "log_lhs": log_lhs,
        },
        constants_version="user-supplied-c",
    )
