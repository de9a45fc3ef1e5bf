"""Spectral operator tests: transforms, projections, differential operators."""

import math

import numpy as np
import pytest

from almost2d import (
    GridSpec,
    PhysicalVectorField,
    SpectralVectorField,
    biot_savart,
    curl,
    dealias,
    heat_semigroup,
    leray_project,
    pressure,
    strain,
    taylor_green_2d,
    to_physical,
    to_spectral,
)
from almost2d.field import divergence, divergence_defect
from almost2d.grid import full_spectrum
from almost2d.norms import sobolev_norm, strain_sobolev_norm
from conftest import (
    half_spectrum,
    hermitian_defect,
    random_physical,
    scalar_to_physical,
    seeded_fields,
)


class TestTransforms:
    def test_constant_field_is_dc_mode(self, grid16):
        samples = np.zeros((3, 16, 16, 16))
        samples[0] = 2.5
        u = to_spectral(PhysicalVectorField(grid16, samples))
        assert u.coeffs[0, 0, 0, 0] == pytest.approx(2.5, abs=1e-14)
        other = u.coeffs.copy()
        other[0, 0, 0, 0] = 0.0
        assert np.max(np.abs(other)) < 1e-14

    def test_single_cosine_coefficients(self):
        grid = GridSpec(8)
        x1, _, _ = grid.coordinates()
        samples = np.zeros((3, 8, 8, 8))
        samples[0] = np.cos(2 * np.pi * x1)
        u = to_spectral(PhysicalVectorField(grid, samples))
        assert u.coeffs[0, 1, 0, 0] == pytest.approx(0.5, abs=1e-14)
        assert u.coeffs[0, -1, 0, 0] == pytest.approx(0.5, abs=1e-14)
        assert abs(u.coeffs[1]).max() < 1e-14

    def test_roundtrip_random(self, grid16):
        f = PhysicalVectorField(grid16, random_physical(grid16, 3))
        back = to_physical(to_spectral(f))
        assert np.max(np.abs(back.samples - f.samples)) < 1e-12

    def test_inverse_of_single_mode(self, grid16):
        coeffs = np.zeros((3, 16, 16, 16), dtype=complex)
        coeffs[2, 0, 1, 0] = 0.5
        coeffs[2, 0, -1, 0] = 0.5
        u = SpectralVectorField(grid16, coeffs)
        _, x2, _ = grid16.coordinates()
        expected = np.cos(2 * np.pi * x2) * np.ones((16, 16, 16))
        assert np.max(np.abs(to_physical(u).samples[2] - expected)) < 1e-13

    def test_dc_only_gives_constant_samples(self, grid16):
        coeffs = np.zeros((3, 16, 16, 16), dtype=complex)
        coeffs[:, 0, 0, 0] = [1.0, 2.0, 3.0]
        samples = to_physical(SpectralVectorField(grid16, coeffs)).samples
        for c, value in enumerate((1.0, 2.0, 3.0)):
            assert np.max(np.abs(samples[c] - value)) < 1e-13

    def test_zero_coefficients_zero_samples(self, grid16):
        u = SpectralVectorField(grid16, np.zeros((3, 16, 16, 16), dtype=complex))
        assert np.max(np.abs(to_physical(u).samples)) == 0.0

    def test_nonfinite_samples_rejected(self, grid16):
        samples = np.zeros((3, 16, 16, 16))
        samples[1, 2, 3, 4] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            to_spectral(PhysicalVectorField(grid16, samples))

    def test_broken_symmetry_rejected(self, grid16):
        coeffs = np.zeros((3, 16, 16, 16), dtype=complex)
        coeffs[0, 1, 0, 0] = 1.0  # no conjugate partner
        with pytest.raises(ValueError, match="Hermitian"):
            to_physical(SpectralVectorField(grid16, coeffs))


class TestLerayProjection:
    def test_divergence_free_field_is_fixed(self, grid16):
        (u,) = seeded_fields(grid16, 1, base_seed=41)
        u_df, grad = leray_project(u)
        assert np.max(np.abs(u_df.coeffs - u.coeffs)) < 1e-13
        assert np.max(np.abs(grad.coeffs)) < 1e-13

    def test_pure_gradient_is_removed(self, grid16):
        # gradient of cos(2 pi x1): coefficients parallel to (1,0,0)
        coeffs = np.zeros((3, 16, 16, 16), dtype=complex)
        coeffs[0, 1, 0, 0] = 1j
        coeffs[0, -1, 0, 0] = -1j
        v = SpectralVectorField(grid16, coeffs)
        u_df, grad = leray_project(v)
        assert np.max(np.abs(u_df.coeffs)) < 1e-14
        assert np.max(np.abs(grad.coeffs - v.coeffs)) < 1e-14

    def test_pythagoras_in_sobolev_norms(self, grid16):
        v = to_spectral(PhysicalVectorField(grid16, random_physical(grid16, 8)))
        v.coeffs[:, 0, 0, 0] = 0.0
        v.mean_zero = True
        u_df, grad = leray_project(v)
        for s in (-0.5, 0.0, 0.5, 1.0):
            total = sobolev_norm(v, s) ** 2
            split = sobolev_norm(u_df, s) ** 2 + sobolev_norm(grad, s) ** 2
            assert split == pytest.approx(total, rel=1e-10)

    def test_idempotent(self, grid16):
        v = to_spectral(PhysicalVectorField(grid16, random_physical(grid16, 9)))
        u_df, _ = leray_project(v)
        again, grad_again = leray_project(u_df)
        assert np.max(np.abs(again.coeffs - u_df.coeffs)) < 1e-13
        assert np.max(np.abs(grad_again.coeffs)) < 1e-13

    def test_dc_mode_passes_to_divergence_free_part(self, grid16):
        coeffs = np.zeros((3, 16, 16, 16), dtype=complex)
        coeffs[:, 0, 0, 0] = [1.0, 0.5, -2.0]
        u_df, grad = leray_project(SpectralVectorField(grid16, coeffs))
        assert np.allclose(u_df.coeffs[:, 0, 0, 0], [1.0, 0.5, -2.0])
        assert np.max(np.abs(grad.coeffs)) == 0.0


class TestDifferentialOperators:
    def test_curl_of_gradient_vanishes(self, grid16):
        coeffs = np.zeros((3, 16, 16, 16), dtype=complex)
        rng = np.random.default_rng(5)
        phi = rng.standard_normal((16, 16, 16))
        phat = np.fft.fftn(phi) / 16**3
        k1, k2, k3 = grid16.k_deriv
        for c, k in enumerate((k1, k2, k3)):
            coeffs[c] = 2j * np.pi * k * phat
        gradient = SpectralVectorField(grid16, coeffs)
        w = curl(gradient)
        assert np.max(np.abs(w.coeffs)) < 1e-12 * np.max(np.abs(coeffs))

    def test_curl_taylor_green(self, grid32):
        w = curl(taylor_green_2d(grid32))
        x1, x2, _ = grid32.coordinates()
        expected = 4 * np.pi * np.sin(2 * np.pi * x1) * np.sin(2 * np.pi * x2)
        samples = to_physical(w).samples
        assert np.max(np.abs(samples[2] - expected * np.ones_like(samples[2]))) < 1e-12
        assert np.max(np.abs(samples[:2])) < 1e-12

    def test_divergence_of_curl_vanishes(self, grid16):
        u = to_spectral(PhysicalVectorField(grid16, random_physical(grid16, 11)))
        w = curl(u)
        div = divergence(w)
        assert np.max(np.abs(div)) < 1e-12 * np.max(np.abs(w.coeffs))

    def test_strain_of_constant_vanishes(self, grid16):
        coeffs = np.zeros((3, 16, 16, 16), dtype=complex)
        coeffs[:, 0, 0, 0] = [1.0, 2.0, 3.0]
        s = strain(SpectralVectorField(grid16, coeffs))
        assert np.max(np.abs(s.comps)) == 0.0

    def test_strain_single_shear_mode(self, grid16):
        # u = (sin(2 pi x2), 0, 0): S12 = pi cos(2 pi x2)
        x1, x2, _ = grid16.coordinates()
        samples = np.zeros((3, 16, 16, 16))
        samples[0] = np.sin(2 * np.pi * x2)
        s = strain(to_spectral(PhysicalVectorField(grid16, samples)))
        s12 = scalar_to_physical(grid16, s.comps[1])
        expected = np.pi * np.cos(2 * np.pi * x2) * np.ones((16, 16, 16))
        assert np.max(np.abs(s12 - expected)) < 1e-12
        for slot in (0, 2, 3, 4, 5):
            assert np.max(np.abs(s.comps[slot])) < 1e-14

    def test_strain_trace_free_for_divergence_free(self, grid16):
        (u,) = seeded_fields(grid16, 1, base_seed=55)
        s = strain(u)
        trace = s.comps[0] + s.comps[3] + s.comps[5]
        assert np.max(np.abs(trace)) < 1e-12 * np.max(np.abs(s.comps))

    def test_strain_isometry(self, grid16):
        for u in seeded_fields(grid16, 3, base_seed=60):
            s = strain(u)
            w = curl(u)
            for alpha in (0.0, 1.0):
                s_sq = strain_sobolev_norm(s, alpha) ** 2
                assert s_sq == pytest.approx(
                    0.5 * sobolev_norm(w, alpha) ** 2, rel=1e-10
                )
                assert s_sq == pytest.approx(
                    0.5 * sobolev_norm(u, alpha + 1) ** 2, rel=1e-10
                )


class TestBiotSavart:
    def test_zero_maps_to_zero(self, grid16):
        w = SpectralVectorField(grid16, np.zeros((3, 16, 16, 16), dtype=complex), True)
        assert np.max(np.abs(biot_savart(w).coeffs)) == 0.0

    def test_inverts_curl(self, grid16):
        for u in seeded_fields(grid16, 3, base_seed=73):
            recovered = biot_savart(curl(u))
            err = np.max(np.abs(recovered.coeffs - u.coeffs))
            assert err < 1e-10 * np.max(np.abs(u.coeffs))

    def test_taylor_green_vorticity_inverts(self, grid32):
        tg = taylor_green_2d(grid32)
        u = biot_savart(curl(tg))
        assert np.max(np.abs(u.coeffs - tg.coeffs)) < 1e-12

    def test_output_divergence_free(self, grid16):
        (u,) = seeded_fields(grid16, 1, base_seed=80)
        v = biot_savart(curl(u))
        assert divergence_defect(v) < 1e-12

    def test_rejects_nonzero_mean(self, grid16):
        coeffs = np.zeros((3, 16, 16, 16), dtype=complex)
        coeffs[0, 0, 0, 0] = 1.0
        with pytest.raises(ValueError, match="mean-zero"):
            biot_savart(SpectralVectorField(grid16, coeffs))

    def test_rejects_non_divergence_free(self, grid16):
        coeffs = np.zeros((3, 16, 16, 16), dtype=complex)
        coeffs[0, 1, 0, 0] = 1.0
        coeffs[0, -1, 0, 0] = 1.0
        with pytest.raises(ValueError, match="divergence-free"):
            biot_savart(SpectralVectorField(grid16, coeffs))


class TestHeatSemigroup:
    def test_t_zero_is_identity(self, grid16):
        (u,) = seeded_fields(grid16, 1, base_seed=90)
        assert np.array_equal(heat_semigroup(u, 0.0).coeffs, u.coeffs)

    def test_single_mode_decay_factor(self, grid16):
        coeffs = np.zeros((3, 16, 16, 16), dtype=complex)
        coeffs[1, 1, 0, 0] = 1.0
        coeffs[1, -1, 0, 0] = 1.0
        u = SpectralVectorField(grid16, coeffs)
        out = heat_semigroup(u, 1.0)
        assert out.coeffs[1, 1, 0, 0] == pytest.approx(math.exp(-4 * math.pi**2))

    def test_semigroup_property(self, grid16):
        (u,) = seeded_fields(grid16, 1, base_seed=91)
        two_step = heat_semigroup(heat_semigroup(u, 0.3), 0.45)
        one_step = heat_semigroup(u, 0.75)
        assert np.max(np.abs(two_step.coeffs - one_step.coeffs)) < 1e-12 * np.max(
            np.abs(u.coeffs)
        )

    def test_negative_time_rejected(self, grid16):
        (u,) = seeded_fields(grid16, 1, base_seed=92)
        with pytest.raises(ValueError, match="t >= 0"):
            heat_semigroup(u, -0.1)


class TestPressure:
    def test_constant_velocity_zero_pressure(self, grid16):
        coeffs = np.zeros((3, 16, 16, 16), dtype=complex)
        coeffs[:, 0, 0, 0] = [1.0, -1.0, 0.5]
        assert np.max(np.abs(pressure(SpectralVectorField(grid16, coeffs)))) < 1e-14

    def test_taylor_green_closed_form(self, grid32):
        # For u = (sin cos, -cos sin, 0) the Poisson solve gives
        # p = +(1/4)(cos 4 pi x1 + cos 4 pi x2); the opposite TG phase
        # convention flips the sign.
        p = scalar_to_physical(grid32, pressure(taylor_green_2d(grid32)))
        x1, x2, _ = grid32.coordinates()
        expected = 0.25 * (np.cos(4 * np.pi * x1) + np.cos(4 * np.pi * x2))
        assert np.max(np.abs(p - expected * np.ones_like(p))) < 1e-10

    def test_quadratic_scaling(self, grid16):
        (u,) = seeded_fields(grid16, 1, kmax=4, base_seed=95)
        p1 = pressure(u)
        p3 = pressure(3.0 * u)
        assert np.max(np.abs(p3 - 9.0 * p1)) < 1e-10 * max(np.max(np.abs(p3)), 1e-30)


class TestDealias:
    def test_low_mode_kept(self, grid16):
        assert grid16.dealias_mask[1, 0, 0]
        assert grid16.dealias_mask[5, 0, 0]  # 5 <= 16/3

    def test_high_mode_zeroed(self, grid16):
        coeffs = np.zeros((3, 16, 16, 16), dtype=complex)
        coeffs[0, 7, 0, 0] = 1.0
        coeffs[0, -7, 0, 0] = 1.0
        out = dealias(SpectralVectorField(grid16, coeffs))
        assert np.max(np.abs(out.coeffs)) == 0.0

    def test_idempotent(self, grid16):
        u = to_spectral(PhysicalVectorField(grid16, random_physical(grid16, 21)))
        once = dealias(u)
        twice = dealias(once)
        assert np.array_equal(once.coeffs, twice.coeffs)


class TestHermitianPreservation:
    def test_every_operation_preserves_symmetry(self, grid16):
        from almost2d.field import advection

        (u,) = seeded_fields(grid16, 1, base_seed=99)
        outputs = [
            curl(u).coeffs,
            leray_project(u)[0].coeffs,
            heat_semigroup(u, 0.2).coeffs,
            dealias(u).coeffs,
            biot_savart(curl(u)).coeffs,
            advection(u).coeffs,
            pressure(u)[None],
        ]
        outputs.extend(strain(u).comps[None, slot] for slot in range(6))
        for coeffs in outputs:
            scale = max(np.max(np.abs(coeffs)), 1e-300)
            assert hermitian_defect(coeffs) < 1e-13 * scale

    def test_parseval(self, grid16):
        f = PhysicalVectorField(grid16, random_physical(grid16, 33))
        u = to_spectral(f)
        physical = float(np.mean(np.sum(f.samples**2, axis=0)))
        spectral = float(np.sum(np.abs(u.coeffs) ** 2))
        assert physical == pytest.approx(spectral, rel=1e-10)

    @pytest.mark.parametrize("n", [8, 16])
    def test_half_spectrum_round_trip(self, n):
        grid = GridSpec(n)
        (u,) = seeded_fields(grid, 1, kmax=n // 2 - 1, base_seed=5)
        half = half_spectrum(u.coeffs)
        assert half.shape == (3, n, n, n // 2 + 1)
        assert np.array_equal(full_spectrum(half, n), u.coeffs)
        # any half array maps to an exactly Hermitian full array
        rng = np.random.default_rng(n)
        noise = rng.standard_normal(half.shape) + 1j * rng.standard_normal(half.shape)
        assert hermitian_defect(full_spectrum(noise, n)) == 0.0
