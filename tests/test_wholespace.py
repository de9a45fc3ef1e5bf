"""Whole-space quadrature constants and the thin-annulus integral table."""

import math
from typing import NamedTuple

import numpy as np
import pytest

from almost2d import besov_norm, curl, un_family
from almost2d.wholespace import (
    TWO_OVER_SQRT_PI,
    QuadratureSpec,
    besov_embedding_constant,
    cone_embedding_constant,
    heat_kernel_constants,
    lambda_n_report,
)
from almost2d.wholespace import _gauss_legendre, _radial_moment_root
from conftest import lambda_n_closed_forms


class Trapezoid:
    """The composite trapezoid rule of ``nodes`` nodes, in QuadratureSpec's
    place: an oracle for the Gauss-Legendre tables."""

    def __init__(self, nodes):
        self.nodes = nodes

    def rule(self, a, b):
        x = np.linspace(a, b, self.nodes)
        w = np.full(self.nodes, (b - a) / (self.nodes - 1))
        w[0] *= 0.5
        w[-1] *= 0.5
        return x, w


class TestLambdaN:
    @pytest.mark.parametrize("n", [3, 10, 100])
    def test_volume(self, n):
        rep = lambda_n_report(n)
        assert rep.volume == pytest.approx(6 * math.pi / n, abs=1e-8)

    def test_l2_closed_form_oracle(self):
        rep = lambda_n_report(3)
        loglog_half = math.sqrt(math.log(math.log(3)))
        oracle = loglog_half * (6 * math.pi + 4 * math.pi * math.log(2) / 27)
        assert rep.l2_sq == pytest.approx(oracle, abs=1e-6)
        assert rep.l2_sq == pytest.approx(5.879569, abs=2e-6)

    @pytest.mark.parametrize("n", [3, 10, 100])
    def test_matches_1d_reductions(self, n):
        rep = lambda_n_report(n)
        closed = lambda_n_closed_forms(n)
        assert rep.hminus1_sq_upper == pytest.approx(
            closed["hminus1_sq_upper"], rel=1e-8
        )
        assert rep.horizontal_hminushalf_sq == pytest.approx(
            closed["horizontal_hminushalf_sq"], rel=1e-8
        )

    def test_criterion_quantity_decreasing(self):
        values = [lambda_n_report(n).criterion_quantity for n in (3, 10, 100, 1000)]
        assert values[0] > values[1] > values[2] > values[3]

    def test_besov_lower_bound_increasing(self):
        values = [lambda_n_report(n).besov_half_lower for n in (3, 10, 100)]
        assert values[0] < values[1] < values[2]

    def test_node_doubling_self_convergence(self):
        coarse = lambda_n_report(3, QuadratureSpec(64))
        fine = lambda_n_report(3, QuadratureSpec(128))
        for key in ("volume", "l2_sq", "hminus1_sq_upper", "horizontal_hminushalf_sq"):
            a, b = getattr(coarse, key), getattr(fine, key)
            assert abs(a - b) <= 1e-8 * max(abs(b), 1e-30)

    def test_trapezoid_scheme_agrees(self):
        gl = lambda_n_report(3)
        tz = lambda_n_report(3, Trapezoid(512))
        assert tz.l2_sq == pytest.approx(gl.l2_sq, rel=1e-5)

    def test_small_n_rejected(self):
        with pytest.raises(ValueError, match="loglog"):
            lambda_n_report(2)


class TestEmbeddingConstant:
    def test_p_infinity_closed_form(self):
        assert besov_embedding_constant(math.inf) == pytest.approx(
            1 / (4 * math.pi), rel=1e-8
        )

    def test_p4_self_convergent(self):
        a = besov_embedding_constant(4.0, QuadratureSpec(128))
        b = besov_embedding_constant(4.0, QuadratureSpec(256))
        assert abs(a - b) <= 1e-8 * b
        assert a > 0

    def test_monotone_in_p(self):
        values = [besov_embedding_constant(p) for p in (3.0, 4.0, 6.0, math.inf)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_p2_sup_endpoint(self):
        # s = inf: sup_r (2 pi r)^(1/2) exp(-4 pi^2 r^2)
        value = besov_embedding_constant(2.0)
        rstar = 1.0 / (4 * math.pi)
        expected = math.sqrt(2 * math.pi * rstar) * math.exp(-0.25)
        assert value == pytest.approx(expected, rel=1e-12)

    def test_p_below_two_rejected(self):
        with pytest.raises(ValueError, match="p > 2"):
            besov_embedding_constant(1.5)

    def test_nan_p_rejected(self):
        """The guards read ``not p > 2``, which NaN fails as well."""
        with pytest.raises(ValueError, match="p > 2"):
            besov_embedding_constant(math.nan)
        with pytest.raises(ValueError, match="p > 2"):
            cone_embedding_constant(math.nan, 0.5)

    def test_moment_closed_form_at_p_infinity(self):
        """At s = 2 the Gamma-function moment gives 1/(4 pi), the p = inf
        constant, which every node count is checked against."""
        assert math.sqrt(2 * math.pi) * _radial_moment_root(2.0) == pytest.approx(
            1 / (4 * math.pi), rel=1e-15)

    @pytest.mark.parametrize("p, nodes", [(2.01, 128), (2.02, 128), (3.0, 32), (math.inf, 16)])
    def test_unresolved_p_is_refused(self, p, nodes):
        """Near p = 2 the integrand's peak narrows as s^(-1/2): a rule that
        misses the closed form by more than QUADRATURE_TOL is refused, not
        printed.  More nodes resolve the same p."""
        with pytest.raises(ValueError, match=f"{nodes} nodes resolve"):
            besov_embedding_constant(p, QuadratureSpec(nodes))
        with pytest.raises(ValueError, match=f"{nodes} nodes resolve"):
            cone_embedding_constant(p, 0.5, QuadratureSpec(nodes))
        closed = math.sqrt(2 * math.pi) * _radial_moment_root(1.0 / (0.5 - 1.0 / p))
        assert besov_embedding_constant(p, QuadratureSpec(512)) == pytest.approx(closed, rel=1e-13)
        cone = cone_embedding_constant(p, 0.5, QuadratureSpec(512))
        assert 0 < cone.direct <= cone.majorant

    @pytest.mark.parametrize("p", [2.001, 2.004])
    def test_overflowing_integrand_is_refused(self, p):
        """(2 pi r)^(s/2) overflows and I_s underflows for p just above 2, at
        any node count: refused, with no NaN returned and no warning."""
        for quad in (QuadratureSpec(), QuadratureSpec(2048)):
            with pytest.raises(ValueError, match="gives nan"):
                besov_embedding_constant(p, quad)
            with pytest.raises(ValueError, match="in double precision"):
                cone_embedding_constant(p, 0.5, quad)


class TestConeConstant:
    @pytest.mark.parametrize("p", [4.0, math.inf])
    def test_direct_below_majorant(self, p):
        cone = cone_embedding_constant(p, 0.5)
        assert cone.direct <= cone.majorant

    def test_epsilon_rate(self):
        ratios = [
            cone_embedding_constant(4.0, eps).direct / eps**0.25
            for eps in (0.1, 0.2, 0.4)
        ]
        assert max(ratios) / min(ratios) < 1.25

    def test_vanishes_as_epsilon_shrinks(self):
        tiny = cone_embedding_constant(math.inf, 1e-3).direct
        reference = cone_embedding_constant(math.inf, 0.5).majorant
        assert tiny < 0.1 * reference

    def test_parameter_range(self):
        with pytest.raises(ValueError, match="eps"):
            cone_embedding_constant(4.0, 1.2)
        with pytest.raises(ValueError, match="p > 2"):
            cone_embedding_constant(2.0, 0.5)

    @pytest.mark.parametrize("eps", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("p", [4.0, 6.0, math.inf])
    def test_matches_per_node_loop(self, p, eps):
        """One Gauss-Legendre rule per radial node, summed node by node."""
        s = 2.0 if p == math.inf else 1.0 / (0.5 - 1.0 / p)
        R = math.sqrt(42.0 / (4 * math.pi**2 * s)) + 1.0
        x, w = np.polynomial.legendre.leggauss(128)
        r, wr = 0.5 * R * (x + 1.0), 0.5 * R * w
        direct_sum = 0.0
        for ri, wi in zip(r, wr):
            z, wz = eps * ri * x, eps * ri * w
            rho_sq = ri**2 + z**2
            integrand = (2 * math.pi * np.sqrt(rho_sq)) ** (s / 2) * np.exp(
                -4 * math.pi**2 * s * rho_sq
            )
            direct_sum += 2 * math.pi * ri * wi * float(np.sum(wz * integrand))
        i_s = float(np.sum(wr * 4 * math.pi * r ** (2 + s / 2) * np.exp(-4 * math.pi**2 * s * r**2)))
        majorant = math.sqrt(2 * math.pi) * 2**0.25 * (i_s * eps) ** (1.0 / s)
        cone = cone_embedding_constant(p, eps)
        assert cone.direct == pytest.approx(direct_sum ** (1.0 / s), rel=1e-13)
        assert cone.majorant == pytest.approx(majorant, rel=1e-13)


class TestRuleCache:
    def test_cached_rule_is_read_only(self):
        x, w = _gauss_legendre(32)
        assert not x.flags.writeable and not w.flags.writeable
        with pytest.raises(ValueError):
            x[0] = 0.0

    def test_writing_returned_nodes_leaves_the_rule_intact(self):
        quad = QuadratureSpec(32)
        x, w = quad.rule(-1.0, 1.0)
        fresh = np.polynomial.legendre.leggauss(32)
        x[:] = 7.0
        w[:] = 7.0
        again = quad.rule(-1.0, 1.0)
        assert np.array_equal(again[0], fresh[0]) and np.array_equal(again[1], fresh[1])


class TestHeatKernel:
    def test_grad_g_l1_closed_form(self):
        report = heat_kernel_constants()
        assert report.grad_g_l1 == pytest.approx(2 / math.sqrt(math.pi), rel=1e-8)
        assert report.grad_g_l1 == pytest.approx(1.1283792, abs=1e-7)

    def test_curl_bound_on_sample_fields(self):
        report = heat_kernel_constants()
        assert report.all_hold
        assert len(report.curl_checks) == 12  # 3 seeds x 2 times x 2 exponents

    def test_single_mode_closed_form_bound(self):
        # |k| = 1, t = 0.1, p = 2: lhs = 2 pi e^{-0.4 pi^2} ||v||, rhs ~ 3.568 ||v||
        lhs = 2 * math.pi * math.exp(-4 * math.pi**2 * 0.1)
        rhs = (2 / math.sqrt(math.pi)) / math.sqrt(0.1)
        assert rhs == pytest.approx(3.5682, abs=1e-4)
        assert lhs <= rhs


class EquivalenceConstants(NamedTuple):
    forward: float   # vorticity Besov norm by velocity Besov norm
    backward: float  # velocity Besov norm by vorticity Besov norm

    @property
    def band(self) -> float:
        return max(self.forward, self.backward)


def besov_equivalence_constants(p):
    """Two-sided constants between ||u||_{B^{-1+3/p}} and ||omega||_{B^{-2+3/p}}
    for p > 3.  The backward factor 1/(-1/2 + 3/(2p)) of the derivation is
    negative as written; its magnitude 2/(1 - 3/p) is used."""
    if not p > 3:  # NaN included
        raise ValueError(f"equivalence constants need p > 3, got {p}")
    g = TWO_OVER_SQRT_PI
    if p == math.inf:
        return EquivalenceConstants(2.0 * g, 2.0**1.5 * 2.0 * g)
    return EquivalenceConstants(2 ** (1 - 3 / (2 * p)) * g,
                                2 ** (1.5 * (1 - 1 / p)) * (2.0 / (1 - 3.0 / p)) * g)


class TestEquivalenceConstants:
    def test_forward_at_infinity(self):
        eq = besov_equivalence_constants(math.inf)
        assert eq.forward == pytest.approx(2 * 2 / math.sqrt(math.pi), rel=1e-12)
        assert eq.forward == pytest.approx(2.2568, abs=1e-4)

    def test_p_at_most_three_rejected(self):
        with pytest.raises(ValueError, match="p > 3"):
            besov_equivalence_constants(3.0)

    def test_nan_p_rejected(self):
        """The guard reads ``not p > 3``, which NaN fails as well."""
        with pytest.raises(ValueError, match="p > 3"):
            besov_equivalence_constants(math.nan)

    def test_backward_positive(self):
        for p in (4.0, 6.0, 12.0, math.inf):
            eq = besov_equivalence_constants(p)
            assert eq.forward > 0 and eq.backward > 0

    def test_ratio_within_band_on_un_family(self, grid24):
        eq = besov_equivalence_constants(6.0)
        u = un_family(1, grid24)
        w = curl(u)
        ratio = besov_norm(u, 0.5, 6.0).value / besov_norm(w, 1.5, 6.0).value
        assert 1 / eq.band <= ratio <= eq.band

    def test_ratio_homogeneous(self, grid24):
        u = un_family(1, grid24)
        w = curl(u)
        base = besov_norm(u, 0.5, 6.0).value / besov_norm(w, 1.5, 6.0).value
        scaled = (
            besov_norm(5.0 * u, 0.5, 6.0).value
            / besov_norm(5.0 * w, 1.5, 6.0).value
        )
        assert scaled == pytest.approx(base, rel=1e-8)

    def test_low_p_range_property_only(self, grid24):
        """For p in [2,3] no constant is pinned (and the velocity side has
        smoothness <= 0, outside the heat characterization); the vorticity
        norm is checked for finiteness and homogeneity only."""
        w = curl(un_family(2, grid24))
        for p in (2.0, 2.5, 3.0):
            s_w = 2 - 3 / p
            value = besov_norm(w, s_w, p).value
            assert math.isfinite(value) and value > 0
            assert besov_norm(2.0 * w, s_w, p).value == pytest.approx(
                2 * value, rel=1e-10
            )
