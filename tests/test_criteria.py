"""Sharp constants, criterion checks, envelopes, time bounds."""

import math

import numpy as np
import pytest

from almost2d import (
    GridSpec,
    annulus_analog,
    constants,
    curl,
    envelopes,
    gamma2d_lp_check,
    large_almost_2d,
    random_divergence_free,
    small_data_check,
    taylor_green_2d,
    un_family,
)
from almost2d.criteria import (
    SMALL_DATA_COEFF,
    criterion_quantity,
    gamma2d_from_norms,
    gamma2d_lp_from_norms,
    iftimie_check,
)
from almost2d.field import LP_MAJORANT_TOL
from almost2d.norms import field_summary
from conftest import (
    blowup_time_bounds, gamma2d_lp_hilbert_oracle, gamma2d_of_field, horizontal, horizontal_parts,
    seeded_fields, sobolev_norm, zeroed,
)


class TestConstants:
    def test_closed_forms_agree(self):
        c = constants()
        assert c.c1 == pytest.approx(2 ** (-1 / 6) * math.pi ** (-1 / 3), rel=1e-15)
        assert c.c2 == pytest.approx((2 / math.pi) ** (2 / 3) / math.sqrt(3), rel=1e-15)
        assert c.r1 == pytest.approx(1 / (2 * c.c1 * c.c2), rel=1e-12)
        assert c.r1 == pytest.approx(math.sqrt(3) * math.pi / (2 * math.sqrt(2)), rel=1e-12)
        assert c.r2 == pytest.approx(
            128 / (27 * (1 + math.sqrt(2)) ** 4 * c.c1**4 * c.c2**4), rel=1e-12
        )
        assert c.r2 == pytest.approx(
            32 * math.pi**4 / (3 * (1 + math.sqrt(2)) ** 4), rel=1e-12
        )

    def test_numeric_values(self):
        c = constants()
        assert c.c1 == pytest.approx(0.608291, abs=1e-6)
        assert c.r1 == pytest.approx(1.9238247, abs=1e-6)
        assert c.r2 == pytest.approx(30.586196, abs=1e-5)
        assert c.small_data_threshold_coeff == pytest.approx(6912 * math.pi**4)


class TestSmallData:
    def test_zero_energy_always_satisfied(self):
        assert small_data_check(0.0, 1e9, 0.01).satisfied

    def test_taylor_green_values(self):
        rep = small_data_check(0.25, 2 * math.pi**2, 0.1)
        assert rep.lhs == pytest.approx(math.pi**2 / 2, rel=1e-12)
        assert rep.rhs == pytest.approx(67.3292, abs=1e-3)
        assert rep.satisfied

    def test_boundary_is_strict(self):
        nu = 0.37
        threshold = SMALL_DATA_COEFF * nu**4
        assert not small_data_check(1.0, threshold, nu).satisfied

    def test_scaling_invariance_of_verdict(self):
        # K0*E0 is invariant under (K0/lam, lam*E0)
        for lam in (0.5, 2.0, 11.0):
            a = small_data_check(3.0, 10.0, 0.5)
            b = small_data_check(3.0 / lam, 10.0 * lam, 0.5)
            assert a.satisfied == b.satisfied
            assert a.lhs == pytest.approx(b.lhs, rel=1e-12)

    def test_invalid_nu(self):
        with pytest.raises(ValueError, match="positive"):
            small_data_check(1.0, 1.0, 0.0)
        for nu in (0.0, -1.0):
            for helper in (gamma2d_from_norms, gamma2d_lp_from_norms, criterion_quantity):
                with pytest.raises(ValueError, match="viscosity must be positive"):
                    helper(0.5, 1.0, 1.0, nu)


class TestNonFiniteNorms:
    """A NaN or infinite norm is a domain error, never a verdict; an
    exponential that overflows from finite norms stays allowed."""

    @staticmethod
    def _rejects_each_slot(helper):
        for slot in range(3):
            for bad in (math.nan, math.inf):
                args = [0.5, 1.0, 1.0]
                args[slot] = bad
                with pytest.raises(ValueError, match="must be finite"):
                    helper(*args, 1.0)

    def test_gamma2d_from_norms(self):
        self._rejects_each_slot(gamma2d_from_norms)
        assert not gamma2d_from_norms(1.0, 1e3, 1e3, 0.01).satisfied

    def test_gamma2d_lp_from_norms(self):
        self._rejects_each_slot(gamma2d_lp_from_norms)
        assert not gamma2d_lp_from_norms(1.0, 1e3, 1e3, 0.01).satisfied

    def test_criterion_quantity(self):
        self._rejects_each_slot(criterion_quantity)
        assert criterion_quantity(1.0, 1e3, 1e3, 0.01) == math.inf

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("slot", [0, 1])
    def test_small_data_check_and_envelopes(self, slot, bad):
        """K0 or E0 non-finite: small_data_check gave "not satisfied" and
        envelopes a validity window of nan."""
        norms = [1.0, 1.0]
        norms[slot] = bad
        with pytest.raises(ValueError, match="must be finite"):
            small_data_check(*norms, 1.0)
        with pytest.raises(ValueError, match="must be finite"):
            envelopes(*norms, 1.0, 0.0)


class TestNegativeNorms:
    """A negative norm is a domain error, never a verdict or a bound:
    ``gamma2d_from_norms(-1, 1, 1, 1)`` was satisfied,
    ``criterion_quantity(-1, 1, 1, 1)`` was 0.0 and ``envelopes(1, -1, 1,
    0.5)`` gave negative bounds.  -0.0 is a norm of zero."""

    @staticmethod
    def _rejects_each_slot(helper, norms, *rest):
        for slot in range(len(norms)):
            args = list(norms)
            args[slot] = -1.0
            with pytest.raises(ValueError, match="must be finite and non-negative"):
                helper(*args, *rest)

    def test_gamma2d_from_norms(self):
        self._rejects_each_slot(gamma2d_from_norms, [0.5, 1.0, 1.0], 1.0)
        assert gamma2d_from_norms(-0.0, 1.0, 1.0, 1.0).satisfied

    def test_gamma2d_lp_from_norms(self):
        self._rejects_each_slot(gamma2d_lp_from_norms, [0.5, 1.0, 1.0], 1.0)
        assert gamma2d_lp_from_norms(-0.0, 1.0, 1.0, 1.0).satisfied

    def test_criterion_quantity(self):
        self._rejects_each_slot(criterion_quantity, [0.5, 1.0, 1.0], 1.0)
        assert criterion_quantity(-0.0, 1.0, 1.0, 1.0) == 0.0

    def test_envelopes(self):
        self._rejects_each_slot(envelopes, [1.0, 1.0], 1.0, 0.5)
        assert envelopes(1.0, -0.0, 1.0, 0.5).local_enstrophy_bound == 0.0

    def test_small_data_check(self):
        self._rejects_each_slot(small_data_check, [1.0, 1.0], 1.0)
        assert small_data_check(-0.0, 1.0, 1.0).satisfied


class TestGamma2d:
    def test_two_dimensional_flow_passes(self, grid32):
        rep = gamma2d_of_field(taylor_green_2d(grid32, 5.0), 0.25)
        assert rep.lhs == 0.0
        assert rep.satisfied

    def test_synthetic_failure_case(self):
        # K0 E0 = 2 * threshold with omega_h at the borderline R1 nu
        c = constants()
        nu = 0.01
        K0, E0 = 1.0, 2 * SMALL_DATA_COEFF * nu**4
        rep = gamma2d_from_norms(c.r1 * nu, K0, E0, nu)
        expected = c.r1 * nu * math.exp(SMALL_DATA_COEFF * nu / c.r2)
        assert rep.lhs == pytest.approx(expected, rel=1e-9)
        assert rep.lhs > rep.rhs
        assert not rep.satisfied

    def test_monotone_in_omega_h(self):
        nu = 0.01
        K0, E0 = 1.0, 2 * SMALL_DATA_COEFF * nu**4
        failing = gamma2d_from_norms(constants().r1 * nu, K0, E0, nu)
        assert not failing.satisfied
        worse = gamma2d_from_norms(2 * constants().r1 * nu, K0, E0, nu)
        assert not worse.satisfied
        assert worse.inputs["log_lhs"] > failing.inputs["log_lhs"]

    def test_large_almost_2d_passes_above_crossover(self, grid32):
        reports = [gamma2d_of_field(large_almost_2d(n, grid32), 1.0) for n in (1, 2, 3)]
        lhs = [r.inputs["log_lhs"] for r in reports]
        assert lhs[0] > lhs[1] > lhs[2]
        assert all(r.satisfied for r in reports)

    def test_report_serializes(self, grid32):
        rep = gamma2d_of_field(taylor_green_2d(grid32), 1.0)
        d = rep.as_dict()
        assert d["name"] == "gamma2d"
        assert d["constants_version"].startswith("whole-space")


class TestGamma2dLp:
    def test_horizontal_free_vorticity_passes(self, grid32):
        u = taylor_green_2d(grid32)
        rep = gamma2d_lp_check(curl(u), gamma2d_of_field(u, 0.5))
        assert rep.satisfied

    def test_hilbert_side_below_lp_side(self, grid16):
        for u in seeded_fields(grid16, 3, kmax=4, amplitude=0.1, base_seed=400):
            rep = gamma2d_lp_check(curl(u), gamma2d_of_field(u, 1.0))
            assert rep.inputs["log_lhs_hilbert"] <= rep.inputs["log_lhs"] + 1e-9

    def test_verdict_consistency(self, grid16):
        for u in seeded_fields(grid16, 3, kmax=4, amplitude=0.1, base_seed=410):
            hilbert = gamma2d_of_field(u, 1.0)
            lp = gamma2d_lp_check(curl(u), hilbert)
            if lp.satisfied:
                assert hilbert.satisfied

    @pytest.mark.parametrize(
        "make",
        [
            *(lambda n=n: random_divergence_free(GridSpec(n), n) for n in (16, 24, 32, 64)),
            *(lambda n=n: random_divergence_free(GridSpec(n), n + 1, kmax=n // 2 - 1)
              for n in (16, 24, 32, 64)),
            lambda: taylor_green_2d(GridSpec(32)),
            lambda: un_family(5, GridSpec(24)),
            lambda: annulus_analog(8, GridSpec(32)),
            *(lambda i=i: large_almost_2d(i, GridSpec(32)) for i in (1, 2, 3)),
        ],
        ids=[*(f"random{n}" for n in (16, 24, 32, 64)),
             *(f"random{n}-kmax{n // 2 - 1}" for n in (16, 24, 32, 64)),
             "taylor-green", "un5", "annulus-analog8", "large1", "large2", "large3"],
    )
    def test_hilbert_side_matches_the_biot_savart_rebuild(self, make):
        """check's path, one field summary of u whose vorticity and gamma2d
        report feed the Lp check, against the Hilbert side of the velocity
        rebuilt from that vorticity by Biot-Savart."""
        u = make()
        s = field_summary(u)
        for nu in (0.1, 1.0):
            hilbert = gamma2d_from_norms(s.omega_h_hminushalf, s.K, s.E, nu)
            rep = gamma2d_lp_check(s.omega, hilbert)
            assert rep.inputs["omega_l2"] == sobolev_norm(s.omega, 0)
            got, want = rep.inputs["log_lhs_hilbert"], gamma2d_lp_hilbert_oracle(s.omega, nu)
            assert got == hilbert.inputs["log_lhs"]
            assert got == want or abs(got - want) <= 1e-14 * abs(want), (nu, got, want)

    def test_majorant_failure_raises(self, grid16):
        """A Hilbert report whose left side exceeds the Lp one by more than
        LP_MAJORANT_TOL is refused.  The energy is raised past what the
        vorticity's L^6/5 norm allows, as a velocity mean would raise it."""
        (u,) = seeded_fields(grid16, 1, kmax=4, amplitude=0.1, base_seed=420)
        s = field_summary(u)
        nu = 1.0
        honest = gamma2d_from_norms(s.omega_h_hminushalf, s.K, s.E, nu)
        gap = gamma2d_lp_check(s.omega, honest).inputs["log_lhs"] - honest.inputs["log_lhs"]
        assert gap > 0

        def with_energy_gap(margin):
            K0 = s.K + (gap + margin) * constants().r2 * nu**3 / s.E
            return gamma2d_from_norms(s.omega_h_hminushalf, K0, s.E, nu)

        below = gamma2d_lp_check(s.omega, with_energy_gap(-1e3 * LP_MAJORANT_TOL))
        assert below.inputs["log_lhs_hilbert"] < below.inputs["log_lhs"]
        with pytest.raises(AssertionError, match="exceeds its Lp majorant"):
            gamma2d_lp_check(s.omega, with_energy_gap(1e3 * LP_MAJORANT_TOL))

    def test_annulus_analog_lp_side_decreasing(self):
        """Family sweep n = 8 vs n = 64: the Lp criterion left side falls."""
        from almost2d import annulus_analog

        a = _gamma2d_lp_scalars_of(annulus_analog(8, GridSpec(32)), 1.0)
        b = _gamma2d_lp_scalars_of(annulus_analog(64, GridSpec(48)), 1.0)
        assert b < a


def _gamma2d_lp_scalars_of(w, nu):
    from almost2d.norms import lebesgue_norm

    wh = zeroed(w, 2)
    rep = gamma2d_lp_from_norms(
        lebesgue_norm(wh, 1.5), lebesgue_norm(w, 1.2), lebesgue_norm(w, 2.0), nu
    )
    return rep.inputs["log_lhs"]


class TestEnvelopes:
    def test_zero_product_gives_initial_enstrophy(self):
        env = envelopes(0.0, 7.5, 1.0, 0.1)
        assert env.global_enstrophy_bound == 7.5

    def test_half_threshold_doubles(self):
        nu = 0.8
        E0 = 5.0
        K0 = 0.5 * SMALL_DATA_COEFF * nu**4 / E0
        env = envelopes(K0, E0, nu, 0.0)
        assert env.global_enstrophy_bound == pytest.approx(2 * E0, rel=1e-12)

    def test_local_bound_value(self):
        env = envelopes(0.25, 2 * math.pi**2, 0.1, 0.2)
        denominator = math.sqrt(1 - (2 * math.pi**2) ** 2 * 0.2 / (1728 * math.pi**4 * 1e-3))
        assert env.local_enstrophy_bound == pytest.approx(
            2 * math.pi**2 / denominator, rel=1e-9
        )
        assert env.local_enstrophy_bound == pytest.approx(26.9357, abs=2e-4)

    def test_beyond_window_rejected(self):
        E0 = 2 * math.pi**2
        window = 1728 * math.pi**4 * 1e-3 / E0**2
        with pytest.raises(ValueError, match="window"):
            envelopes(0.25, E0, 0.1, window * 1.01)

    def test_above_threshold_inapplicable(self):
        env = envelopes(1e9, 1e9, 0.1, 0.0)
        assert env.global_enstrophy_bound is None
        assert "threshold" in env.inapplicable_reason


class TestBlowupBounds:
    def test_reference_values(self):
        b = blowup_time_bounds(0.25, 2 * math.pi**2, 0.1)
        assert b.upper_if_blowup == pytest.approx(0.0046414, abs=1e-7)
        assert b.lower == pytest.approx(0.432, abs=1e-6)

    def test_viscosity_scaling(self):
        b1 = blowup_time_bounds(0.25, 1.0, 0.1)
        b2 = blowup_time_bounds(0.25, 1.0, 0.2)
        assert b1.upper_if_blowup / b2.upper_if_blowup == pytest.approx(32.0, rel=1e-12)

    def test_zero_enstrophy_infinite_lower(self):
        assert blowup_time_bounds(1.0, 0.0, 1.0).lower == math.inf


class TestCriticalFloor:
    def test_zero_product(self):
        assert small_data_check(0.0, 5.0, 1.0).satisfied

    def test_boundary(self):
        nu = 0.7
        assert not small_data_check(1.0, SMALL_DATA_COEFF * nu**4, nu).satisfied

    def test_taylor_green_state(self):
        assert small_data_check(0.25, 2 * math.pi**2, 0.1).satisfied

    @pytest.mark.parametrize("nu", [-1.0, 0.0, math.nan, math.inf])
    def test_nonpositive_or_nonfinite_viscosity_rejected(self, nu):
        """No verdict under a viscosity no flow has: a negative or infinite
        one would otherwise pass every product."""
        with pytest.raises(ValueError, match="viscosity must be positive and finite"):
            small_data_check(0.25, 2 * math.pi**2, nu).satisfied


class TestIftimieCheck:
    def test_pure_2d_field_passes_for_any_constant(self, grid32):
        from almost2d import iftimie_check

        u = taylor_green_2d(grid32, 3.0)
        for c in (0.1, 1.0, 50.0):
            rep = iftimie_check(u, 1.0, c)
            assert rep.lhs == 0.0 and rep.satisfied
            assert rep.inputs["c"] == c

    def test_un_family_values(self, grid32):
        from almost2d import iftimie_check, un_family

        u = un_family(2, GridSpec(24))
        rep = iftimie_check(u, 1.0, 10.0)
        # P2d(u) = 0 and the perturbation is u itself
        assert rep.inputs["two_d_l2"] == 0.0
        assert rep.inputs["perp_hhalf"] == pytest.approx(math.sqrt(6), rel=1e-10)
        assert rep.lhs == pytest.approx(math.sqrt(6), rel=1e-10)
        assert rep.satisfied  # sqrt(6) < 10

    def test_constant_must_be_positive(self, grid32):
        from almost2d import iftimie_check

        with pytest.raises(ValueError, match="positive"):
            iftimie_check(taylor_green_2d(grid32), 1.0, 0.0)

    def test_no_transform(self, grid16, transform_counts):
        """Both norms of the criterion are Plancherel sums."""
        (u,) = seeded_fields(grid16, 1, base_seed=240)
        rep = iftimie_check(u, 0.1, 2.0)
        assert rep.inputs["two_d_l2"] > 0 and rep.inputs["perp_hhalf"] > 0
        assert transform_counts == {"3d": 0, "other": 0}


def test_checks_and_splits_leave_inputs_untouched(grid16):
    """Every criterion and decomposition is a pure function of its field."""
    (u,) = seeded_fields(grid16, 1, base_seed=398)
    w = curl(u)
    calls = [
        (field_summary, u),
        (lambda v: gamma2d_of_field(v, 0.1), u),
        (lambda v: gamma2d_lp_check(v, gamma2d_of_field(u, 0.1)), w),
        (lambda v: iftimie_check(v, 0.1, 2.0), u),
        (horizontal_parts, u),
        (horizontal, w),
    ]
    for fn, field in calls:
        saved = field.half.copy()
        fn(field)
        assert np.array_equal(field.half, saved)
