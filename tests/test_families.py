"""Generator families and their closed-form norms."""

import math

import numpy as np
import pytest

from almost2d import (
    annulus_analog,
    besov_norm,
    constants,
    curl,
    large_almost_2d,
    lebesgue_norm,
    rescaled_vorticity,
    taylor_green_2d,
    two_d_plus_perturbation,
    un_family,
)
from almost2d.families import helical_base_vorticity, random_divergence_free
from almost2d.field import divergence_defect
from almost2d.norms import lebesgue_norm as LN
from conftest import (
    full_coeffs, full_wavenumbers, gamma2d_of_field, horizontal_parts, p2d_split, plane_defect,
    sobolev_norm, zeroed,
)


ALL_GENERATORS = [
    lambda g: taylor_green_2d(g, 1.3),
    lambda g: un_family(3, g),
    lambda g: large_almost_2d(2, g),
    lambda g: annulus_analog(5, g),
    lambda g: helical_base_vorticity(g),
    lambda g: random_divergence_free(g, 77, kmax=5),
]


class TestCommonInvariants:
    @pytest.mark.parametrize("make", ALL_GENERATORS)
    def test_divergence_free_and_hermitian(self, grid32, make):
        u = make(grid32)
        assert divergence_defect(u) <= 1e-12
        assert plane_defect(u.half) <= 1e-13 * np.max(np.abs(u.half))
        assert np.max(np.abs(u.half[:, 0, 0, 0])) == 0.0


class TestTaylorGreen:
    def test_closed_form_energies(self, grid32):
        for a in (1.0, 2.5):
            u = taylor_green_2d(grid32, a)
            assert 0.5 * lebesgue_norm(u, 2) ** 2 == pytest.approx(
                a**2 / 4, rel=1e-12
            )
            assert 0.5 * sobolev_norm(curl(u), 0) ** 2 == pytest.approx(
                2 * math.pi**2 * a**2, rel=1e-12
            )

    def test_no_horizontal_vorticity(self, grid32):
        parts = horizontal_parts(taylor_green_2d(grid32))
        assert np.max(np.abs(full_coeffs(parts.omega_h))) == 0.0

    def test_criterion_passes_for_any_viscosity(self, grid32):
        for nu in (1e-3, 0.1, 10.0):
            assert gamma2d_of_field(taylor_green_2d(grid32), nu).satisfied


class TestUnFamily:
    @pytest.mark.parametrize("n", [1, 2, 5, 10])
    def test_closed_forms(self, grid24, n):
        u = un_family(n, grid24)
        assert sobolev_norm(horizontal_parts(u).omega_h, -0.5) == pytest.approx(
            1.0, rel=1e-10
        )
        assert sobolev_norm(u, 0.5) ** 2 == pytest.approx(n**2 + 2, rel=1e-10)
        two_d, _ = p2d_split(u)
        assert np.max(np.abs(full_coeffs(two_d))) == 0.0

    def test_unresolved_mode_rejected(self, grid16):
        with pytest.raises(ValueError, match="not resolved"):
            un_family(8, grid16)


class TestLargeAlmost2d:
    def test_two_mode_closed_forms(self, grid32):
        n = 1
        u = large_almost_2d(n, grid32)
        eps = math.exp(-1.0)
        assert 0.5 * lebesgue_norm(u, 2) ** 2 == pytest.approx(
            (n**2 + 3 * eps**2) / 2, rel=1e-12
        )
        assert 0.5 * sobolev_norm(curl(u), 0) ** 2 == pytest.approx(
            4 * math.pi**2 * n**2 + 18 * math.pi**2 * eps**2, rel=1e-12
        )
        omega_h = sobolev_norm(horizontal_parts(u).omega_h, -0.5)
        assert omega_h == pytest.approx(
            math.sqrt(3 * math.sqrt(3) * math.pi) * eps, rel=1e-10
        )
        assert math.isfinite(gamma2d_of_field(u, 1.0).inputs["log_lhs"])

    def test_underflow_makes_exactly_2d(self, grid32):
        u = large_almost_2d(4, grid32)
        assert np.max(np.abs(full_coeffs(horizontal_parts(u).omega_h))) == 0.0
        assert gamma2d_of_field(u, 1.0).lhs == 0.0

    def test_endpoint_besov_grows(self, grid32):
        values = [
            besov_norm(large_almost_2d(n, grid32), 1.0, np.inf).value
            for n in (1, 2, 3)
        ]
        assert values[0] < values[1] < values[2]


class TestTwoDPlusPerturbation:
    def test_delta_zero_is_pure_2d(self, grid32):
        v2d = taylor_green_2d(grid32)
        w = random_divergence_free(grid32, 5, kmax=4)
        u = two_d_plus_perturbation(v2d, w, 0.0)
        assert np.max(np.abs(full_coeffs(u) - full_coeffs(v2d))) == 0.0

    def test_projection_linearity(self, grid32):
        v2d = taylor_green_2d(grid32)
        w = random_divergence_free(grid32, 6, kmax=4)
        delta = 0.3
        u = two_d_plus_perturbation(v2d, w, delta)
        two_d_u, perp_u = p2d_split(u)
        two_d_w, perp_w = p2d_split(w)
        full = full_coeffs
        assert np.max(np.abs(full(two_d_u) - full(v2d) - delta * full(two_d_w))) < 1e-14
        assert np.max(np.abs(full(perp_u) - delta * full(perp_w))) < 1e-14

    def test_criterion_lhs_linear_in_delta(self, grid32):
        """Halving delta halves omega_h when the perturbation carries all of
        the horizontal vorticity (the base is 2D)."""
        v2d = taylor_green_2d(grid32)
        w = random_divergence_free(grid32, 8, kmax=4)
        norm_at = lambda d: sobolev_norm(
            horizontal_parts(two_d_plus_perturbation(v2d, w, d)).omega_h, -0.5
        )
        assert norm_at(0.2) / norm_at(0.1) == pytest.approx(2.0, rel=1e-10)

    def test_non_2d_base_rejected(self, grid32):
        w = random_divergence_free(grid32, 9, kmax=4)
        with pytest.raises(ValueError, match="independent of x3"):
            two_d_plus_perturbation(w, w, 0.1)


class TestRescaledVorticity:
    def test_m_one_rejected(self, grid32):
        base = helical_base_vorticity(grid32)
        with pytest.raises(ValueError, match=">= 2"):
            rescaled_vorticity(base, 1, 1.0)

    def test_unresolved_stretch_rejected(self, grid32):
        base = helical_base_vorticity(grid32)
        with pytest.raises(ValueError, match="not resolved"):
            rescaled_vorticity(base, 16, 1.0)

    @pytest.mark.parametrize("m", [2, 4])
    @pytest.mark.parametrize("q", [1.2, 1.5, 2.0])
    def test_lq_scaling_laws(self, grid32, m, q):
        base = helical_base_vorticity(grid32)
        r = rescaled_vorticity(base, m, 1.0)
        eps = 1.0 / m
        prefactor = eps ** (2 / 3) * math.log(m) ** 0.25
        base_h = zeroed(base, 2)
        base_3 = zeroed(base, slice(0, 2))
        expected_h = prefactor * eps * eps ** (-1 / q) * LN(base_h, q)
        expected_3 = prefactor * eps ** (-1 / q) * LN(base_3, q)
        assert r.component_lebesgue_norm("horizontal", q) == pytest.approx(
            expected_h, rel=1e-8
        )
        assert r.component_lebesgue_norm("vertical", q) == pytest.approx(
            expected_3, rel=1e-8
        )

    def test_horizontal_l32_relation(self, grid32):
        base = helical_base_vorticity(grid32)
        m, a = 4, 1.0
        r = rescaled_vorticity(base, m, a)
        base_h = zeroed(base, 2)
        eps = 1.0 / m
        expected = eps * math.log(m**a) ** 0.25 * LN(base_h, 1.5)
        assert r.component_lebesgue_norm("horizontal", 1.5) == pytest.approx(
            expected, rel=1e-8
        )

    def test_vertical_l32_grows_with_stretch(self, grid32):
        base = helical_base_vorticity(grid32)
        values = [
            rescaled_vorticity(base, m, 1.0).component_lebesgue_norm("vertical", 1.5)
            for m in (2, 4, 8)
        ]
        assert values[0] < values[1] < values[2]
        # closed form: log(m)^(1/4) ||omega3||_{3/2}
        base_3 = zeroed(base, slice(0, 2))
        for m, value in zip((2, 4, 8), values):
            assert value == pytest.approx(
                math.log(m) ** 0.25 * LN(base_3, 1.5), rel=1e-8
            )

    def test_divergence_free_output(self, grid32):
        base = helical_base_vorticity(grid32)
        assert divergence_defect(rescaled_vorticity(base, 4, 1.0).field) <= 1e-12


class TestAnnulusAnalog:
    def test_solenoidal_mode_by_mode(self, grid32):
        w = annulus_analog(6, grid32)
        k1, k2, k3 = full_wavenumbers(32)
        c = full_coeffs(w)
        dot = k1 * c[0] + k2 * c[1] + k3 * c[2]
        assert np.max(np.abs(dot)) <= 1e-12 * np.max(np.abs(c))

    def test_small_index_rejected(self, grid32):
        with pytest.raises(ValueError, match=">= 3"):
            annulus_analog(2, grid32)

    def test_unresolved_shell_rejected(self, grid16):
        with pytest.raises(ValueError, match="not resolved"):
            annulus_analog(12, grid16)

    def test_criterion_quantity_decreasing(self, grid32):
        r2 = constants().r2
        values = []
        for n in (3, 6, 12):
            w = annulus_analog(n, grid32)
            K0 = 0.5 * sobolev_norm(w, -1.0) ** 2
            E0 = 0.5 * sobolev_norm(w, 0.0) ** 2
            w_h = zeroed(w, 2)
            values.append(
                sobolev_norm(w_h, -0.5) * math.exp(K0 * E0 / r2)
            )
        assert values[0] > values[1] > values[2]

    def test_besov_norm_increasing(self, grid32):
        values = [
            besov_norm(annulus_analog(n, grid32), 0.5, 2.0).value for n in (3, 6, 12)
        ]
        assert values[0] < values[1] < values[2]
