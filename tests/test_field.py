"""Spectral operator tests: transforms, projections, differential operators."""

import math

import numpy as np
import pytest

from almost2d import (
    GridSpec,
    PhysicalVectorField,
    SpectralVectorField,
    curl,
    heat_semigroup,
    leray_project,
    taylor_green_2d,
    to_physical,
    to_spectral,
)
from almost2d import families
from almost2d.field import divergence_defect, k_dot
from almost2d.fieldio import read_field, write_field
from almost2d.norms import field_summary
from almost2d.grid import conjugate_planes
from almost2d.norms import sobolev_norm
from conftest import (
    HERMITIAN_TOL,
    advection,
    biot_savart_oracle,
    coordinates,
    from_full_coeffs,
    full_coeffs,
    full_wavenumbers,
    hermitian_defect,
    padded,
    plane_defect,
    random_physical,
    scalar_to_physical,
    seeded_fields,
    strain,
    strain_sobolev_norm,
    two_thirds_mask,
    zeroed,
)


class TestTransforms:
    def test_constant_field_is_dc_mode(self, grid16):
        samples = np.zeros((3, 16, 16, 16))
        samples[0] = 2.5
        u = to_spectral(PhysicalVectorField(grid16, samples))
        assert u.half[0, 0, 0, 0] == pytest.approx(2.5, abs=1e-14)
        other = full_coeffs(u)
        other[0, 0, 0, 0] = 0.0
        assert np.max(np.abs(other)) < 1e-14

    def test_single_cosine_coefficients(self):
        grid = GridSpec(8)
        x1, _, _ = coordinates(grid)
        samples = np.zeros((3, 8, 8, 8))
        samples[0] = np.cos(2 * np.pi * x1)
        u = to_spectral(PhysicalVectorField(grid, samples))
        full = full_coeffs(u)
        assert full[0, 1, 0, 0] == pytest.approx(0.5, abs=1e-14)
        assert full[0, -1, 0, 0] == pytest.approx(0.5, abs=1e-14)
        assert abs(full[1]).max() < 1e-14

    def test_roundtrip_random(self, grid16):
        f = PhysicalVectorField(grid16, random_physical(grid16, 3))
        back = to_physical(to_spectral(f))
        assert np.max(np.abs(back.samples - f.samples)) < 1e-12

    def test_inverse_of_single_mode(self, grid16):
        coeffs = np.zeros((3, 16, 16, 16), dtype=complex)
        coeffs[2, 0, 1, 0] = 0.5
        coeffs[2, 0, -1, 0] = 0.5
        u = from_full_coeffs(grid16, coeffs)
        _, x2, _ = coordinates(grid16)
        expected = np.cos(2 * np.pi * x2) * np.ones((16, 16, 16))
        assert np.max(np.abs(to_physical(u).samples[2] - expected)) < 1e-13

    def test_dc_only_gives_constant_samples(self, grid16):
        coeffs = np.zeros((3, 16, 16, 16), dtype=complex)
        coeffs[:, 0, 0, 0] = [1.0, 2.0, 3.0]
        samples = to_physical(from_full_coeffs(grid16, coeffs)).samples
        for c, value in enumerate((1.0, 2.0, 3.0)):
            assert np.max(np.abs(samples[c] - value)) < 1e-13

    def test_zero_coefficients_zero_samples(self, grid16):
        u = from_full_coeffs(grid16, np.zeros((3, 16, 16, 16), dtype=complex))
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
            from_full_coeffs(grid16, coeffs)

    def test_read_path_does_not_symmetrize(self, grid16):
        """to_spectral keeps the rfftn half, whose self-conjugate planes are
        exactly Hermitian; no full array is checked (the package has no
        Hermitian check, which test_package.py asserts)."""
        u = to_spectral(PhysicalVectorField(grid16, random_physical(grid16, 12)))
        assert plane_defect(u.half) == 0.0


class TestHermitianCheck:
    """from_full_coeffs tests max_k |c(k) - conj c(-k)| = 2 max |a| for the
    anti-Hermitian part a(k) = (c(k) - conj c(-k)) / 2, against
    HERMITIAN_TOL * max(rms, 1).  The imaginary residue of a complex inverse
    transform, the earlier test, is max_x |sum_k a(k) e(k.x)|: at least
    ||a||_2 and at most ||a||_1."""

    def test_spread_anti_hermitian_part_is_accepted(self, grid16):
        """a = i eps on every mode: a defect of 2 eps, far below the tolerance,
        but an imaginary residue of eps n^3 at x = 0, which the residue test
        rejected.  The verdict of the coefficient test is pinned here."""
        (u,) = seeded_fields(grid16, 1, base_seed=17)
        eps = 1e-11
        coeffs = full_coeffs(u) + 1j * eps
        residue = np.max(np.abs(np.fft.ifftn(coeffs, axes=(1, 2, 3)).imag)) * 16**3
        assert residue == pytest.approx(eps * 16**3, rel=1e-6)
        assert residue > HERMITIAN_TOL * max(np.max(np.abs(to_physical(u).samples)), 1.0)
        assert hermitian_defect(coeffs) == pytest.approx(2 * eps, rel=1e-3)
        samples = to_physical(from_full_coeffs(grid16, coeffs)).samples
        assert np.max(np.abs(samples - to_physical(u).samples)) <= 2 * eps * 16**3

    def test_threshold_scales_with_the_rms(self, grid16):
        """One unpartnered mode of size d: rejected above HERMITIAN_TOL when
        the rms is below 1, and above HERMITIAN_TOL * rms when it is larger."""
        coeffs = np.zeros((3, 16, 16, 16), dtype=complex)
        coeffs[0, 1, 2, 3] = 0.9 * HERMITIAN_TOL
        from_full_coeffs(grid16, coeffs)
        coeffs[0, 1, 2, 3] = 1.1 * HERMITIAN_TOL
        with pytest.raises(ValueError, match="Hermitian"):
            from_full_coeffs(grid16, coeffs)
        coeffs[1, 0, 0, 0] = 100.0  # rms 100
        from_full_coeffs(grid16, coeffs)
        coeffs[0, 1, 2, 3] = 101 * HERMITIAN_TOL
        with pytest.raises(ValueError, match="Hermitian"):
            from_full_coeffs(grid16, coeffs)


class TestLerayProjection:
    def test_divergence_free_field_is_fixed(self, grid16):
        (u,) = seeded_fields(grid16, 1, base_seed=41)
        u_df, grad = leray_project(u)
        assert np.max(np.abs(full_coeffs(u_df) - full_coeffs(u))) < 1e-13
        assert np.max(np.abs(full_coeffs(grad))) < 1e-13

    def test_pure_gradient_is_removed(self, grid16):
        # gradient of cos(2 pi x1): coefficients parallel to (1,0,0)
        coeffs = np.zeros((3, 16, 16, 16), dtype=complex)
        coeffs[0, 1, 0, 0] = 1j
        coeffs[0, -1, 0, 0] = -1j
        v = from_full_coeffs(grid16, coeffs)
        u_df, grad = leray_project(v)
        assert np.max(np.abs(full_coeffs(u_df))) < 1e-14
        assert np.max(np.abs(full_coeffs(grad) - full_coeffs(v))) < 1e-14

    def test_pythagoras_in_sobolev_norms(self, grid16):
        v = to_spectral(PhysicalVectorField(grid16, random_physical(grid16, 8)))
        v = zeroed(v, (slice(None), 0, 0, 0))
        u_df, grad = leray_project(v)
        for s in (-0.5, 0.0, 0.5, 1.0):
            total = sobolev_norm(v, s) ** 2
            split = sobolev_norm(u_df, s) ** 2 + sobolev_norm(grad, s) ** 2
            assert split == pytest.approx(total, rel=1e-10)

    def test_idempotent(self, grid16):
        v = to_spectral(PhysicalVectorField(grid16, random_physical(grid16, 9)))
        u_df, _ = leray_project(v)
        again, grad_again = leray_project(u_df)
        assert np.max(np.abs(full_coeffs(again) - full_coeffs(u_df))) < 1e-13
        assert np.max(np.abs(full_coeffs(grad_again))) < 1e-13

    def test_dc_mode_passes_to_divergence_free_part(self, grid16):
        coeffs = np.zeros((3, 16, 16, 16), dtype=complex)
        coeffs[:, 0, 0, 0] = [1.0, 0.5, -2.0]
        u_df, grad = leray_project(from_full_coeffs(grid16, coeffs))
        assert np.allclose(full_coeffs(u_df)[:, 0, 0, 0], [1.0, 0.5, -2.0])
        assert np.max(np.abs(full_coeffs(grad))) == 0.0


class TestDifferentialOperators:
    def test_curl_of_gradient_vanishes(self, grid16):
        coeffs = np.zeros((3, 16, 16, 16), dtype=complex)
        rng = np.random.default_rng(5)
        phi = rng.standard_normal((16, 16, 16))
        phat = np.fft.fftn(phi) / 16**3
        k1, k2, k3 = full_wavenumbers(16)
        for c, k in enumerate((k1, k2, k3)):
            coeffs[c] = 2j * np.pi * np.where(np.abs(k) == 8, 0.0, k) * phat
        gradient = from_full_coeffs(grid16, coeffs)
        w = curl(gradient)
        assert np.max(np.abs(full_coeffs(w))) < 1e-12 * np.max(np.abs(coeffs))

    def test_curl_taylor_green(self, grid32):
        w = curl(taylor_green_2d(grid32))
        x1, x2, _ = coordinates(grid32)
        expected = 4 * np.pi * np.sin(2 * np.pi * x1) * np.sin(2 * np.pi * x2)
        samples = to_physical(w).samples
        assert np.max(np.abs(samples[2] - expected * np.ones_like(samples[2]))) < 1e-12
        assert np.max(np.abs(samples[:2])) < 1e-12

    def test_divergence_of_curl_vanishes(self, grid16):
        u = to_spectral(PhysicalVectorField(grid16, random_physical(grid16, 11)))
        w = curl(u)
        div = 2j * np.pi * k_dot(w.half, grid16.k_deriv)
        assert np.max(np.abs(div)) < 1e-12 * np.max(np.abs(full_coeffs(w)))

    def test_strain_of_constant_vanishes(self, grid16):
        coeffs = np.zeros((3, 16, 16, 16), dtype=complex)
        coeffs[:, 0, 0, 0] = [1.0, 2.0, 3.0]
        s = strain(from_full_coeffs(grid16, coeffs))
        assert np.max(np.abs(s.comps)) == 0.0

    def test_strain_single_shear_mode(self, grid16):
        # u = (sin(2 pi x2), 0, 0): S12 = pi cos(2 pi x2)
        x1, x2, _ = coordinates(grid16)
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
    """Biot-Savart (conftest's ``biot_savart_oracle``) inverts ``curl``."""

    def test_zero_maps_to_zero(self, grid16):
        w = from_full_coeffs(grid16, np.zeros((3, 16, 16, 16), dtype=complex))
        assert np.max(np.abs(full_coeffs(biot_savart_oracle(curl(w).half, grid16)))) == 0.0

    def test_inverts_curl(self, grid16):
        for u in seeded_fields(grid16, 3, base_seed=73):
            recovered = biot_savart_oracle(curl(u).half, grid16)
            err = np.max(np.abs(full_coeffs(recovered) - full_coeffs(u)))
            assert err < 1e-10 * np.max(np.abs(full_coeffs(u)))

    def test_taylor_green_vorticity_inverts(self, grid32):
        tg = taylor_green_2d(grid32)
        u = biot_savart_oracle(curl(tg).half, grid32)
        assert np.max(np.abs(full_coeffs(u) - full_coeffs(tg))) < 1e-12

    def test_output_divergence_free(self, grid16):
        (u,) = seeded_fields(grid16, 1, base_seed=80)
        v = SpectralVectorField(grid16, biot_savart_oracle(curl(u).half, grid16))
        assert divergence_defect(v) < 1e-12


class TestHeatSemigroup:
    def test_t_zero_is_identity(self, grid16):
        (u,) = seeded_fields(grid16, 1, base_seed=90)
        assert np.array_equal(full_coeffs(heat_semigroup(u, 0.0)), full_coeffs(u))

    def test_single_mode_decay_factor(self, grid16):
        coeffs = np.zeros((3, 16, 16, 16), dtype=complex)
        coeffs[1, 1, 0, 0] = 1.0
        coeffs[1, -1, 0, 0] = 1.0
        u = from_full_coeffs(grid16, coeffs)
        out = heat_semigroup(u, 1.0)
        assert full_coeffs(out)[1, 1, 0, 0] == pytest.approx(math.exp(-4 * math.pi**2))

    def test_semigroup_property(self, grid16):
        (u,) = seeded_fields(grid16, 1, base_seed=91)
        two_step = heat_semigroup(heat_semigroup(u, 0.3), 0.45)
        one_step = heat_semigroup(u, 0.75)
        assert np.max(np.abs(full_coeffs(two_step) - full_coeffs(one_step))) < 1e-12 * np.max(
            np.abs(full_coeffs(u))
        )

    def test_negative_time_rejected(self, grid16):
        (u,) = seeded_fields(grid16, 1, base_seed=92)
        with pytest.raises(ValueError, match="t >= 0"):
            heat_semigroup(u, -0.1)


def dealias(half):
    """The 2/3 rule's truncation of half-spectrum coefficients: the band
    ``band(kc)`` cropped, then padded."""
    grid = GridSpec(half.shape[-2])
    band = grid.band(grid.kc)
    return padded(band, band.crop(half))


class TestDealias:
    def test_low_mode_kept(self, grid16):
        assert two_thirds_mask(grid16)[1, 0, 0]
        assert two_thirds_mask(grid16)[5, 0, 0]  # 5 <= 16/3

    def test_high_mode_zeroed(self, grid16):
        coeffs = np.zeros((3, 16, 16, 16), dtype=complex)
        coeffs[0, 7, 0, 0] = 1.0
        coeffs[0, -7, 0, 0] = 1.0
        out = dealias(from_full_coeffs(grid16, coeffs).half)
        assert np.max(np.abs(full_coeffs(out))) == 0.0

    def test_idempotent(self, grid16):
        u = to_spectral(PhysicalVectorField(grid16, random_physical(grid16, 21)))
        once = dealias(u.half)
        twice = dealias(once)
        assert np.array_equal(full_coeffs(once), full_coeffs(twice))

    @pytest.mark.parametrize("n", [16, 24, 48])
    def test_truncation_is_the_two_thirds_mask(self, n):
        """On fields on every mode but the Nyquist rows and planes, the crop
        to ``band(kc)`` and pad back and the truncated ``advection`` equal the
        product with the written-out mask as values (off the band they hold
        +0.0 where the product can hold -0.0), and the truncation is
        idempotent as bits."""
        grid = GridSpec(n)
        mask = two_thirds_mask(grid)
        u = families.random_divergence_free(grid, 80 + n, kmax=n // 2 - 1)
        once = dealias(u.half)
        assert np.array_equal(once, u.half * mask)
        assert np.array_equal(dealias(once).view(np.uint64), once.view(np.uint64))
        full = advection(u, apply_dealias=False)
        assert np.array_equal(advection(u).half, full.half * mask)


class TestHermitianPreservation:
    def test_every_operation_preserves_symmetry(self, grid16):
        """The half spectrum is Hermitian wherever it holds a mode and its
        mirror: on the planes k3 = 0 and k3 = n/2."""
        (u,) = seeded_fields(grid16, 1, base_seed=99)
        outputs = [
            curl(u).half,
            leray_project(u)[0].half,
            heat_semigroup(u, 0.2).half,
            dealias(u.half),
            advection(u).half,
        ]
        outputs.extend(strain(u).comps[None, slot] for slot in range(6))
        for coeffs in outputs:
            scale = max(np.max(np.abs(coeffs)), 1e-300)
            assert plane_defect(coeffs) < 1e-13 * scale

    def test_parseval(self, grid16):
        f = PhysicalVectorField(grid16, random_physical(grid16, 33))
        u = to_spectral(f)
        physical = float(np.mean(np.sum(f.samples**2, axis=0)))
        spectral = float(np.sum(np.abs(full_coeffs(u)) ** 2))
        assert physical == pytest.approx(spectral, rel=1e-10)

    @pytest.mark.parametrize("n", [8, 16])
    def test_half_spectrum_round_trip(self, n):
        grid = GridSpec(n)
        (u,) = seeded_fields(grid, 1, kmax=n // 2 - 1, base_seed=5)
        half = u.half
        assert half.shape == (3, n, n, n // 2 + 1)
        full = full_coeffs(u)
        assert np.max(np.abs(full[..., : n // 2 + 1] - half)) < 1e-15 * np.max(np.abs(half))
        assert hermitian_defect(full) < 1e-15 * np.max(np.abs(half))
        # any half array with its planes made Hermitian is, exactly, the half
        # spectrum of a real field: rfftn gives it back from its samples
        rng = np.random.default_rng(n)
        noise = rng.standard_normal(half.shape) + 1j * rng.standard_normal(half.shape)
        planes = conjugate_planes(noise.copy())
        assert plane_defect(planes) == 0.0
        axes = (-3, -2, -1)
        back = np.fft.rfftn(np.fft.irfftn(planes, s=(n, n, n), axes=axes), axes=axes)
        assert np.max(np.abs(back - planes)) < 1e-14 * np.max(np.abs(planes))


FAMILIES = {
    "taylor_green_2d": lambda g: families.taylor_green_2d(g, 0.5),
    "un_family": lambda g: families.un_family(2, g),
    "large_almost_2d": lambda g: families.large_almost_2d(1, g),
    "annulus_analog": lambda g: families.annulus_analog(3, g),
    "helical_base_vorticity": families.helical_base_vorticity,
    "random_divergence_free": lambda g: families.random_divergence_free(g, 3, kmax=4),
    "rescaled_vorticity": lambda g: families.rescaled_vorticity(
        families.helical_base_vorticity(g), 2, 1.0).field,
    "two_d_plus_perturbation": lambda g: families.two_d_plus_perturbation(
        families.taylor_green_2d(g), families.random_divergence_free(g, 4, kmax=3), 0.1),
}


class TestImmutability:
    """Fields are pure values: the array of every field the package returns
    is read-only, so no caller can change a field another caller holds."""

    def test_writing_into_a_returned_field_raises(self, grid16, tmp_path):
        (u,) = seeded_fields(grid16, 1, kmax=4, amplitude=0.2, base_seed=500)
        path = str(tmp_path / "u.field")
        write_field(path, u)
        w = curl(u)
        fields = {
            "to_spectral": to_spectral(to_physical(u)),
            "read_field": read_field(path),
            "curl": w,
            "leray_project": leray_project(u)[0],
            "leray_project gradient part": leray_project(u)[1],
            "heat_semigroup": heat_semigroup(u, 0.1),
            **{name: make(grid16) for name, make in FAMILIES.items()},
        }
        for field in fields.values():
            with pytest.raises(ValueError, match="read-only"):
                field.half[0, 1, 0, 0] = 1.0
            with pytest.raises(ValueError, match="read-only"):
                field.half *= 2.0
            with pytest.raises(AttributeError):
                field.half = np.zeros_like(field.half)

    def test_a_field_takes_its_array_read_only(self, grid16):
        half = np.zeros((3, 16, 16, 9), dtype=complex)
        SpectralVectorField(grid16, half)
        with pytest.raises(ValueError, match="read-only"):
            half[0, 1, 0, 0] = 1.0


def full_lattice_summary(u):
    """field_summary and sobolev_norm as sums over every point of the full
    lattice, from numpy's full coefficients and a full-lattice curl."""
    n = u.grid.n
    k = full_wavenumbers(n)
    ksq = k[0] ** 2 + k[1] ** 2 + k[2] ** 2
    kd = [np.where(np.abs(ki) == n // 2, 0.0, ki) for ki in k]
    c = full_coeffs(u)
    w = 2j * np.pi * np.stack([kd[1] * c[2] - kd[2] * c[1], kd[2] * c[0] - kd[0] * c[2],
                               kd[0] * c[1] - kd[1] * c[0]])
    angular = 2 * np.pi * np.sqrt(np.where(ksq == 0, 1.0, ksq))
    nonzero = ksq > 0

    def weighted(coeffs, s):
        weight = np.where(nonzero, angular ** (2 * s), 1.0 if s == 0 else 0.0)
        return float(np.sum(weight * np.sum(np.abs(coeffs) ** 2, axis=0)))

    summary = {
        "K": 0.5 * weighted(c, 0),
        "E": 0.5 * weighted(w, 0),
        "hhalf": math.sqrt(weighted(c, 0.5)),
        "h1": math.sqrt(weighted(c, 1.0)),
        "omega_h_hminushalf": math.sqrt(weighted(w[:2], -0.5)),
    }
    return summary, {s: math.sqrt(weighted(c, s)) for s in (-1.0, -0.5, 0.0, 0.5, 1.0, 2.0)}


class TestLayoutOracle:
    """The half-spectrum layout against full-lattice numpy sums.  The second
    field of each grid carries the Nyquist planes, where the multiplicity
    of k3 = n/2 is 1."""

    @pytest.mark.parametrize("n", [16, 24, 32])
    def test_summary_and_sobolev_norms_match_full_lattice_sums(self, n):
        grid = GridSpec(n)
        (seeded,) = seeded_fields(grid, 1, kmax=n // 2 - 1, base_seed=600 + n)
        projected, _ = leray_project(to_spectral(PhysicalVectorField(grid, random_physical(grid, n))))
        nyquist = zeroed(projected, (slice(None), 0, 0, 0))
        assert np.max(np.abs(nyquist.half[..., n // 2])) > 0
        for u in (seeded, nyquist):
            want_summary, want_sobolev = full_lattice_summary(u)
            got = field_summary(u)
            for key, want in want_summary.items():
                assert getattr(got, key) == pytest.approx(want, rel=1e-12), key
            for s, want in want_sobolev.items():
                assert sobolev_norm(u, s) == pytest.approx(want, rel=1e-12), s

    @pytest.mark.parametrize("n", [16, 24, 32])
    def test_to_spectral_planes_are_exactly_hermitian(self, n):
        grid = GridSpec(n)
        f = PhysicalVectorField(grid, random_physical(grid, 700 + n))
        u = to_spectral(f)
        assert plane_defect(u.half) == 0.0
        back = to_physical(u).samples
        assert np.max(np.abs(back - f.samples)) <= 1e-10 * np.max(np.abs(f.samples))
