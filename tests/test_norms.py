"""Norm machinery: Sobolev/Lebesgue/Besov, horizontal parts, projections."""

import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from almost2d import (
    GridSpec,
    PhysicalVectorField,
    SpectralVectorField,
    annulus_analog,
    besov_norm,
    curl,
    heat_semigroup,
    lebesgue_norm,
    p2d_split,
    sobolev_norm,
    to_physical,
    to_spectral,
    un_family,
)
from almost2d import norms as norms_module
from almost2d.norms import (
    ShellSpectrum,
    _bounded_minimum,
    field_summary,
)
from almost2d.families import large_almost_2d, set_mode_pair
from conftest import (
    coordinates, from_full_coeffs, full_coeffs, full_wavenumbers, gradient_of_component,
    horizontal_parts, partial3, seeded_fields, v3_omega_h_ratio, zeroed,
)


def half_zeros(grid):
    return np.zeros((3, grid.n, grid.n, grid.n // 2 + 1), dtype=complex)


def single_mode_field(grid, k, value):
    half = half_zeros(grid)
    set_mode_pair(half, grid, k, np.asarray(value, dtype=complex))
    return SpectralVectorField(grid, half)


class TestSobolevNorm:
    def test_zero_field(self, grid16):
        u = from_full_coeffs(grid16, np.zeros((3, 16, 16, 16), dtype=complex))
        for s in (-0.5, 0.0, 0.5, 1.0):
            assert sobolev_norm(u, s) == 0.0

    def test_single_mode_two_term_sum(self, grid16):
        v = np.array([0.2, 0.0, 0.5])
        u = single_mode_field(grid16, (2, 1, 0), v)
        ksq = 5.0
        for s in (-0.5, 0.5, 1.0):
            expected = math.sqrt(
                2 * (2 * math.pi * math.sqrt(ksq)) ** (2 * s) * np.sum(v**2)
            )
            assert sobolev_norm(u, s) == pytest.approx(expected, rel=1e-12)

    def test_un_family_half_norm(self, grid24):
        assert sobolev_norm(un_family(1, grid24), 0.5) ** 2 == pytest.approx(
            3.0, rel=1e-12
        )

    def test_negative_order_requires_mean_zero(self, grid16):
        coeffs = np.zeros((3, 16, 16, 16), dtype=complex)
        coeffs[0, 0, 0, 0] = 1.0
        with pytest.raises(ValueError, match="mean-zero"):
            sobolev_norm(from_full_coeffs(grid16, coeffs), -0.5)

    def test_matches_l2_at_order_zero(self, grid16):
        for u in seeded_fields(grid16, 3, base_seed=200):
            assert sobolev_norm(u, 0.0) == pytest.approx(
                lebesgue_norm(u, 2.0), rel=1e-10
            )

    def test_interpolation_inequality(self, grid16):
        for u in seeded_fields(grid16, 5, base_seed=210):
            l2 = lebesgue_norm(u, 2.0)
            assert l2 <= math.sqrt(
                sobolev_norm(u, -0.5) * sobolev_norm(u, 0.5)
            ) * (1 + 1e-12)


class TestLebesgueNorm:
    def test_constant_field_every_p(self, grid16):
        coeffs = np.zeros((3, 16, 16, 16), dtype=complex)
        coeffs[0, 0, 0, 0] = -1.5
        u = from_full_coeffs(grid16, coeffs)
        for p in (1.0, 1.5, 2.0, 4.0, np.inf):
            assert lebesgue_norm(u, p) == pytest.approx(1.5, rel=1e-12)

    def test_cosine_l4(self, grid32):
        x1, _, _ = coordinates(grid32)
        samples = np.zeros((3, 32, 32, 32))
        samples[0] = np.cos(2 * np.pi * x1)
        u = to_spectral(PhysicalVectorField(grid32, samples))
        assert lebesgue_norm(u, 4.0) ** 4 == pytest.approx(3.0 / 8.0, abs=1e-10)

    def test_p_below_one_rejected(self, grid16):
        (u,) = seeded_fields(grid16, 1, base_seed=220)
        with pytest.raises(ValueError, match="p >= 1"):
            lebesgue_norm(u, 0.5)


class TestBesovNorm:
    def test_zero_field(self, grid16):
        u = from_full_coeffs(grid16, np.zeros((3, 16, 16, 16), dtype=complex))
        assert besov_norm(u, 0.5, 2.0).value == 0.0

    @pytest.mark.parametrize("p", [2.0, 3.0, np.inf])
    def test_single_mode_closed_form(self, grid16, p):
        u = single_mode_field(grid16, (0, 1, 0), [0.4, 0.0, 0.3])
        s = 0.5
        res = besov_norm(u, s, p)
        t_star = s / (8 * math.pi**2)
        value = (s / (8 * math.pi**2 * math.e)) ** (s / 2) * lebesgue_norm(u, p)
        assert res.value == pytest.approx(value, rel=1e-8)
        assert res.t_star == pytest.approx(t_star, rel=1e-6)

    def test_amplitude_covariance(self, grid24):
        w = curl(un_family(2, grid24))
        base = besov_norm(w, 0.5, 2.0).value
        assert besov_norm(3.5 * w, 0.5, 2.0).value == pytest.approx(
            3.5 * base, rel=1e-12
        )

    def test_refinement_self_convergence(self, grid24, monkeypatch):
        w = curl(un_family(3, grid24))
        monkeypatch.setattr(norms_module, "COARSE_POINTS", 64)
        coarse = besov_norm(w, 0.5, 2.0)
        monkeypatch.setattr(norms_module, "COARSE_POINTS", 128)
        fine = besov_norm(w, 0.5, 2.0)
        assert abs(coarse.value - fine.value) < 1e-4 * fine.value

    def test_peak_at_the_window_edge_names_the_window(self, grid16, monkeypatch):
        """A single mode |k| = 1 peaks at t* = s / (8 pi^2) = 6.3e-3: a window
        that ends at 1e-3 is refused, and the error gives its values."""
        monkeypatch.setattr(norms_module, "T_MAX", 1e-3)
        u = single_mode_field(grid16, (0, 1, 0), [0.4, 0.0, 0.3])
        with pytest.raises(ValueError, match=r"at t=0\.001, the edge of its window \[1e-06, 0\.001\]"):
            besov_norm(u, 0.5, 2.0)

    def test_requires_mean_zero(self, grid16):
        coeffs = np.zeros((3, 16, 16, 16), dtype=complex)
        coeffs[0, 0, 0, 0] = 1.0
        with pytest.raises(ValueError, match="mean-zero"):
            besov_norm(from_full_coeffs(grid16, coeffs), 0.5, 2.0)

    def test_nonpositive_smoothness_rejected(self, grid16):
        (u,) = seeded_fields(grid16, 1, base_seed=230)
        with pytest.raises(ValueError, match="s > 0"):
            besov_norm(u, 0.0, 2.0)

    def test_p2_makes_no_transform(self, grid16, transform_counts):
        """The p = 2 objective is a coefficient sum."""
        (w,) = seeded_fields(grid16, 1, base_seed=231)
        assert besov_norm(w, 0.5, 2.0).value > 0
        assert transform_counts == {"3d": 0, "other": 0}

    def test_non_hermitian_input_rejected_at_p2(self, grid16):
        """A non-real field cannot reach the norm: the full array is rejected
        where it enters."""
        coeffs = np.zeros((3, 16, 16, 16), dtype=complex)
        coeffs[0, 1, 2, 3] = 1.0  # no conjugate partner at -k
        with pytest.raises(ValueError, match="Hermitian"):
            besov_norm(from_full_coeffs(grid16, coeffs), 0.5, 2.0)

    def test_endpoint_norm_transform_count(self, grid32, monkeypatch):
        """p = inf makes one irfft3 per objective evaluation, 64 coarse points
        and 10 refinement steps here, and no transform for a Hermitian check.
        The full-spectrum layout made the same 74 through ``to_physical``."""
        from almost2d import field as field_module

        calls = []
        inverse = field_module.irfft3
        monkeypatch.setattr(field_module, "irfft3",
                            lambda *args: calls.append(1) or inverse(*args))
        besov_norm(large_almost_2d(1, grid32), 1.0, np.inf)
        assert len(calls) == 74


def transform_route_besov(u, s, p):
    """besov_norm's scan and refinement over the transform-per-t objective:
    (value, t_star)."""

    def objective(t):
        return t ** (s / 2.0) * lebesgue_norm(heat_semigroup(u, t), p)

    ts = np.geomspace(norms_module.T_MIN, norms_module.T_MAX, norms_module.COARSE_POINTS)
    values = np.array([objective(t) for t in ts])
    imax = int(np.argmax(values))
    res = minimize_scalar(
        lambda t: -objective(t),
        bounds=(ts[imax - 1], ts[imax + 1]),
        method="bounded",
        options={"maxiter": norms_module.REFINE_CALLS, "xatol": 1e-14},
    )
    return max(float(-res.fun), float(values[imax])), float(res.x)


P2_FIELDS = [
    pytest.param(lambda n=n: annulus_analog(n, GridSpec(32)), id=f"annulus-{n}")
    for n in (3, 6, 12)
] + [pytest.param(lambda: curl(un_family(3, GridSpec(24))), id="curl-un-3")]


class TestBesovPlancherel:
    """p = 2: shell sums over the coefficients against heat flow + transform."""

    @pytest.mark.parametrize("make", P2_FIELDS)
    def test_matches_transform_route(self, make):
        w = make()
        got = besov_norm(w, 0.5, 2.0).value
        assert got == pytest.approx(transform_route_besov(w, 0.5, 2.0)[0], rel=1e-12)

    @pytest.mark.parametrize("make", P2_FIELDS)
    def test_objective_pointwise(self, make):
        w = make()
        spectrum = ShellSpectrum(w.grid, w.half)
        for t in np.geomspace(1e-6, 1e2, 8):
            want = t**0.25 * lebesgue_norm(heat_semigroup(w, t), 2.0)
            assert t**0.25 * spectrum.heat_l2(t) == pytest.approx(want, rel=1e-12)


class TestEndpointBesov:
    """p != 2: the heat multiplier gathered from one exp per shell gives the
    norm of the per-t ``heat_semigroup`` route."""

    @pytest.mark.parametrize("p", [3.0, np.inf])
    def test_matches_heat_semigroup_route(self, p):
        for w in (annulus_analog(6, GridSpec(32)), curl(un_family(3, GridSpec(24)))):
            got = besov_norm(w, 0.5, p)
            value, t_star = transform_route_besov(w, 0.5, p)
            assert got.value == pytest.approx(value, rel=1e-12)
            assert got.t_star == pytest.approx(t_star, rel=1e-12)


def _scipy_and_package_searches(f, a, b, xatol, maxiter):
    """(x, fun, calls, points called) of scipy's bounded search and of the
    package's, each point and value as its bits."""
    runs = []
    for search in ("scipy", "package"):
        points = []

        def recorded(x):
            points.append(x)
            return f(x)

        if search == "scipy":
            res = minimize_scalar(recorded, bounds=(a, b), method="bounded",
                                  options={"xatol": xatol, "maxiter": maxiter})
            x, fun, calls = res.x, res.fun, res.nfev
        else:
            x, fun, calls = _bounded_minimum(recorded, a, b, xatol, maxiter)
        runs.append((float(x).hex(), float(fun).hex(), calls, [float(t).hex() for t in points]))
    return runs


class TestBoundedSearch:
    """The package's bounded Brent search is scipy's minimize_scalar(method=
    "bounded") bit for bit: the same points called in the same order, the
    same x, f(x) and call count."""

    @pytest.mark.parametrize("iters", [1, 2, 80])
    @pytest.mark.parametrize("make, p", [
        pytest.param(*field.values, 2.0, id=field.id) for field in P2_FIELDS
    ] + [pytest.param(lambda: annulus_analog(6, GridSpec(32)), np.inf, id="annulus-6-inf")])
    def test_besov_objectives(self, make, p, iters, monkeypatch):
        """The search besov_norm runs, on the objective and bracket it passes."""
        from almost2d import norms as norms_module

        searches = []
        search = norms_module._bounded_minimum
        monkeypatch.setattr(norms_module, "_bounded_minimum",
                            lambda *args: searches.append(args) or search(*args))
        monkeypatch.setattr(norms_module, "REFINE_CALLS", iters)
        besov_norm(make(), 0.5, p)
        ((f, a, b, xatol, maxiter),) = searches
        assert (xatol, maxiter) == (1e-14, iters)
        scipy_run, package_run = _scipy_and_package_searches(f, a, b, xatol, maxiter)
        assert package_run == scipy_run

    @pytest.mark.parametrize("iters", [1, 2, 80])
    @pytest.mark.parametrize("f", [
        lambda x: (x - 0.3) ** 2,  # parabolic steps
        lambda x: 1.0,  # a plateau: golden steps
        lambda x: -x,  # the maximum of -f at the right end
        lambda x: x,  # ... and at the left end
        lambda x: math.nan,
        lambda x: math.nan if x > 0.5 else (x - 0.7) ** 2,
    ], ids=["parabola", "plateau", "right-end", "left-end", "nan", "nan-right-half"])
    def test_model_functions(self, f, iters):
        scipy_run, package_run = _scipy_and_package_searches(f, 0.0, 1.0, 1e-14, iters)
        assert package_run == scipy_run


def full_lattice_sobolev(u, s):
    """sqrt(sum_k (2 pi |k|)^{2s} |uhat(k)|^2) over every lattice point, the
    k = 0 term kept only at s = 0."""
    k1, k2, k3 = full_wavenumbers(u.grid.n)
    kabs = np.sqrt(k1**2 + k2**2 + k3**2)
    weight = (2 * np.pi * np.where(kabs == 0, 1.0, kabs)) ** (2 * s)
    if s != 0:
        weight[0, 0, 0] = 0.0
    return math.sqrt(float(np.sum(weight * np.abs(full_coeffs(u)) ** 2)))


class TestShellSpectrum:
    @pytest.mark.parametrize("n", [16, 32])
    def test_sobolev_norm_matches_full_lattice_sum(self, n):
        for u in seeded_fields(GridSpec(n), 3, base_seed=410 + n):
            for s in (-1.0, -0.5, 0.0, 0.5, 1.0):
                assert sobolev_norm(u, s) == pytest.approx(
                    full_lattice_sobolev(u, s), rel=1e-12
                )

    def test_components_and_shells(self, grid16):
        """Per-component sums; the top shell 3 (n/2)^2 holds the corner mode."""
        (u,) = seeded_fields(grid16, 1, base_seed=420)
        spectrum = ShellSpectrum(grid16, u.half)
        assert spectrum.power.shape == (3, 3 * 8**2 + 1)
        for c in range(3):
            assert spectrum.sobolev_sq(0)[c] == pytest.approx(
                float(np.sum(np.abs(full_coeffs(u)[c]) ** 2)), rel=1e-13
            )
        corner = np.zeros((1, 16, 16, 9), dtype=complex)
        corner[0, 8, 8, 8] = 2.0
        assert np.flatnonzero(ShellSpectrum(grid16, corner).power[0]).tolist() == [192]

    def test_negative_order_rejects_a_nonzero_mean(self, grid16):
        (u,) = seeded_fields(grid16, 1, base_seed=430)
        coeffs = u.half.copy()
        coeffs[0, 0, 0, 0] = 0.25
        shifted = SpectralVectorField(grid16, coeffs)
        for s in (-1.0, -0.5):
            with pytest.raises(ValueError, match="requires a mean-zero field"):
                sobolev_norm(shifted, s)
        assert sobolev_norm(shifted, 0.0) == pytest.approx(
            full_lattice_sobolev(shifted, 0.0), rel=1e-12
        )
        assert sobolev_norm(shifted, 0.5) == pytest.approx(sobolev_norm(u, 0.5), rel=1e-12)


class TestHorizontalParts:
    def test_two_dimensional_flow_vanishes(self, grid16):
        # x3-independent divergence-free flow with u3 = 0
        coeffs = half_zeros(grid16)
        set_mode_pair(coeffs, grid16, (1, 2, 0), np.array([2.0, -1.0, 0.0]))
        u = SpectralVectorField(grid16, coeffs)
        parts = horizontal_parts(u)
        assert np.max(np.abs(full_coeffs(parts.omega_h))) < 1e-14
        assert np.max(np.abs(full_coeffs(parts.v3))) < 1e-14

    def test_isometries_on_random_fields(self, grid16):
        for u in seeded_fields(grid16, 5, base_seed=300):
            parts = horizontal_parts(u)
            for alpha in (-0.5, 0.0):
                v3_sq = sobolev_norm(parts.v3, alpha) ** 2
                omega_h_sq = sobolev_norm(parts.omega_h, alpha) ** 2
                split = (
                    sobolev_norm(partial3(u), alpha) ** 2
                    + sobolev_norm(gradient_of_component(u, 2), alpha) ** 2
                )
                assert v3_sq == pytest.approx(omega_h_sq, rel=1e-10)
                assert v3_sq == pytest.approx(split, rel=1e-10)

    def test_sh_bound(self, grid16):
        for u in seeded_fields(grid16, 5, base_seed=310):
            parts = horizontal_parts(u)
            for alpha in (-0.5, 0.0):
                bound = sobolev_norm(parts.omega_h, alpha) / math.sqrt(2)
                assert parts.sh_sobolev_norm(alpha) <= bound * (1 + 1e-12)

    def test_lq_equivalence_band(self, grid16):
        """The v3 / omega_h Lq ratio stays in a bounded band; the sharp
        Riesz constant is not pinned, only finiteness of the band."""
        for q in (4.0 / 3.0, 2.0, 4.0):
            ratios = [
                v3_omega_h_ratio(u, q)
                for u in seeded_fields(grid16, 100, kmax=4, base_seed=9000)
            ]
            assert 0.05 < min(ratios) and max(ratios) < 20.0
            if q == 2.0:
                # plain isometry at q = 2
                assert max(abs(r - 1) for r in ratios) < 1e-10


class TestFieldSummary:
    def test_plancherel_against_transforms_and_lattice_sums(self, grid16):
        """K against the grid L2 norm, E against 2 pi^2 sum |k|^2 |uhat|^2
        (|k x uhat| = |k| |uhat| for solenoidal modes), omega_h against
        the horizontal decomposition."""
        for u in seeded_fields(grid16, 3, base_seed=395):
            s = field_summary(u)
            k1, k2, k3 = full_wavenumbers(16)
            lattice = float(np.sum((k1**2 + k2**2 + k3**2) * np.abs(full_coeffs(u)) ** 2))
            assert s.K == pytest.approx(0.5 * lebesgue_norm(u, 2) ** 2, rel=1e-12)
            assert s.E == pytest.approx(2 * math.pi**2 * lattice, rel=1e-12)
            assert s.hhalf == pytest.approx(sobolev_norm(u, 0.5), rel=1e-12)
            assert s.h1 == pytest.approx(sobolev_norm(u, 1.0), rel=1e-12)
            assert s.omega_h_hminushalf == pytest.approx(
                sobolev_norm(horizontal_parts(u).omega_h, -0.5), rel=1e-12
            )

    def test_un_family_closed_forms(self, grid24):
        s = field_summary(un_family(5, grid24))
        assert s.hhalf**2 == pytest.approx(27.0, rel=1e-12)
        assert s.omega_h_hminushalf == pytest.approx(1.0, rel=1e-12)


def read_back_un_field(grid24):
    """un_family(5) through a transform round trip, as a field file gives it:
    the k = 0 coefficient is roundoff (~1e-19), not an exact zero."""
    u = to_spectral(to_physical(un_family(5, grid24)))
    assert np.any(u.half[:, 0, 0, 0] != 0)
    return u


class TestExactLinearParts:
    """p2d_split copies coefficients and never edits them."""

    def test_p2d_parts_sum_to_a_read_back_field(self, grid24):
        u = read_back_un_field(grid24)
        two_d, perp = p2d_split(u)
        assert np.array_equal(two_d.half + perp.half, u.half)
        assert not np.any(two_d.half[..., 1:]) and not np.any(perp.half[..., 0])


def perp_and_bound(u):
    """||P2d_perp u||_{H^1/2} and its bound ||d3 u||_{H^1/2} / 2 pi."""
    _, perp = p2d_split(u)
    return sobolev_norm(perp, 0.5), sobolev_norm(partial3(u), 0.5) / (2 * np.pi)


class TestVerticalAverage:
    def test_x3_independent_field_is_its_own_average(self, grid16):
        coeffs = half_zeros(grid16)
        set_mode_pair(coeffs, grid16, (1, 2, 0), np.array([2.0, -1.0, 0.0]))
        u = SpectralVectorField(grid16, coeffs)
        two_d, perp = p2d_split(u)
        assert np.max(np.abs(full_coeffs(two_d) - full_coeffs(u))) == 0.0
        assert np.max(np.abs(full_coeffs(perp))) == 0.0

    def test_un_family_has_no_average(self, grid24):
        two_d, perp = p2d_split(un_family(4, grid24))
        assert np.max(np.abs(full_coeffs(two_d))) == 0.0

    def test_average_contracts_l2(self, grid16):
        for u in seeded_fields(grid16, 5, base_seed=320):
            two_d, _ = p2d_split(u)
            assert lebesgue_norm(two_d, 2.0) <= lebesgue_norm(u, 2.0) * (1 + 1e-12)

    def test_split_is_idempotent_partition(self, grid16):
        (u,) = seeded_fields(grid16, 1, base_seed=330)
        two_d, perp = p2d_split(u)
        assert np.max(np.abs(two_d.half + perp.half - u.half)) == 0.0
        again, _ = p2d_split(two_d)
        assert np.array_equal(again.half, two_d.half)

    def test_perp_bound_zero_for_2d(self, grid16):
        coeffs = half_zeros(grid16)
        set_mode_pair(coeffs, grid16, (1, 2, 0), np.array([2.0, -1.0, 0.0]))
        lhs, _ = perp_and_bound(SpectralVectorField(grid16, coeffs))
        assert lhs == 0.0

    def test_perp_bound_saturates_on_un(self, grid24):
        lhs, rhs = perp_and_bound(un_family(2, grid24))
        assert lhs == pytest.approx(math.sqrt(6), rel=1e-10)
        assert rhs == pytest.approx(math.sqrt(6), rel=1e-10)

    def test_perp_bound_random(self, grid16):
        for u in seeded_fields(grid16, 5, base_seed=340):
            lhs, rhs = perp_and_bound(u)
            assert lhs <= rhs * (1 + 1e-10)

    def test_perp_to_omega_h_ratio_growth(self, grid24):
        """||perp||_{H 1/2} / ||omega_h||_{H -1/2} grows like sqrt(n^2+2), the
        remainder bound holding at every n."""
        for n in (1, 2, 5, 10):
            u = un_family(n, grid24)
            lhs, rhs = perp_and_bound(u)
            assert lhs <= rhs * (1 + 1e-10)
            ratio = lhs / sobolev_norm(horizontal_parts(u).omega_h, -0.5)
            assert ratio == pytest.approx(math.sqrt(n**2 + 2), rel=1e-10)


def cone_filter(u, eps, part):
    """u restricted to the cone |k3| < eps sqrt(k1^2 + k2^2) (part "inside")
    or to its complement ("outside").  Modes on the k3 axis are outside (the
    defining ratio is infinite) except k = 0, which is inside by convention."""
    if not 0 < eps < 1:
        raise ValueError(f"cone parameter must satisfy 0 < eps < 1, got {eps}")
    k1, k2, k3 = u.grid.k
    r = np.sqrt(k1**2 + k2**2)
    inside = (np.abs(k3) < eps * r) | ((r == 0) & (k3 == 0))
    return SpectralVectorField(u.grid, u.half * (inside if part == "inside" else ~inside))


class TestConeFilter:
    def test_partition(self, grid16):
        (u,) = seeded_fields(grid16, 1, base_seed=350)
        inside = cone_filter(u, 0.5, "inside")
        outside = cone_filter(u, 0.5, "outside")
        assert np.max(np.abs(inside.half + outside.half - u.half)) == 0.0

    def test_membership_examples(self, grid16):
        coeffs = half_zeros(grid16)
        set_mode_pair(coeffs, grid16, (1, 1, 0), np.array([1.0, -1.0, 0.0]))
        u = SpectralVectorField(grid16, coeffs)
        inside = cone_filter(u, 0.5, "inside")
        assert np.array_equal(inside.half, u.half)  # z = 0 is inside
        # axis mode r=0, k3 != 0 belongs outside
        coeffs = half_zeros(grid16)
        set_mode_pair(coeffs, grid16, (0, 0, 1), np.array([1.0, 1j, 0.0]))
        v = SpectralVectorField(grid16, coeffs)
        assert np.max(np.abs(cone_filter(v, 0.9, "inside").half)) == 0.0

    def test_orthogonal_in_every_sobolev_norm(self, grid16):
        (u,) = seeded_fields(grid16, 1, base_seed=360)
        inside = cone_filter(u, 0.4, "inside")
        outside = cone_filter(u, 0.4, "outside")
        for s in (-0.5, 0.0, 0.5, 1.0):
            total = sobolev_norm(u, s) ** 2
            split = sobolev_norm(inside, s) ** 2 + sobolev_norm(outside, s) ** 2
            assert split == pytest.approx(total, rel=1e-10)

    def test_divergence_free_outside_bound(self, grid16):
        for eps in (0.3, 0.5, 0.8):
            for u in seeded_fields(grid16, 3, base_seed=370):
                outside = cone_filter(u, eps, "outside")
                out_h = zeroed(outside, 2)
                lhs = sobolev_norm(outside, -0.5)
                rhs = (math.sqrt(2) / eps) * sobolev_norm(out_h, -0.5)
                assert lhs <= rhs * (1 + 1e-10)

    def test_eps_out_of_range(self, grid16):
        (u,) = seeded_fields(grid16, 1, base_seed=380)
        with pytest.raises(ValueError, match="0 < eps < 1"):
            cone_filter(u, 1.5, "inside")
