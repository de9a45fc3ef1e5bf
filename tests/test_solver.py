"""Time integration and trajectory monitors."""

import math
import os

import numpy as np
import pytest
import scipy.fft

from almost2d import (
    GridSpec,
    SolverConfig,
    SpectralVectorField,
    constants,
    rhs,
    run,
    taylor_green_2d,
)
from almost2d import solver
from almost2d.cli import main
from almost2d.families import random_divergence_free, set_mode_pair
from almost2d.field import advection, curl, divergence_defect, leray_project
from almost2d.norms import field_summary
from almost2d.solver import _assemble_series, _lattice, nonlinear_term
from conftest import half_spectrum, hermitian_defect


def single_mode(grid, k, value):
    coeffs = np.zeros((3, grid.n, grid.n, grid.n), dtype=complex)
    set_mode_pair(coeffs, grid, k, np.asarray(value, dtype=complex))
    return SpectralVectorField(grid, coeffs, mean_zero=True)


class TestRhs:
    def test_zero_field(self, grid16):
        u = SpectralVectorField(grid16, np.zeros((3, 16, 16, 16), dtype=complex), True)
        assert np.max(np.abs(rhs(u, 1.0).coeffs)) == 0.0

    def test_taylor_green_nonlinearity_is_gradient(self, grid32):
        tg = taylor_green_2d(grid32)
        tendency = rhs(tg, 0.01)
        viscous = -0.01 * 4 * np.pi**2 * grid32.k_sq * tg.coeffs
        err = np.max(np.abs(tendency.coeffs - viscous))
        assert err < 1e-12 * np.max(np.abs(viscous))

    def test_advection_skew_symmetry(self, grid16):
        for seed in (1, 2, 3):
            u = random_divergence_free(grid16, seed, kmax=5)
            u.coeffs *= grid16.dealias_mask
            adv = advection(u)
            pairing = float(np.sum(np.real(adv.coeffs * np.conj(u.coeffs))))
            assert abs(pairing) < 1e-10 * float(np.sum(np.abs(u.coeffs) ** 2))

    def test_tendency_divergence_free_and_mean_zero(self, grid16):
        u = random_divergence_free(grid16, 4, kmax=4)
        tendency = rhs(u, 0.3)
        assert divergence_defect(tendency) < 1e-12
        assert np.max(np.abs(tendency.coeffs[:, 0, 0, 0])) == 0.0


def projected(coeffs, grid):
    """P(v) with the k = 0 mode zeroed, on full-spectrum coefficients."""
    out, _ = leray_project(SpectralVectorField(grid, coeffs))
    out.coeffs[:, 0, 0, 0] = 0.0
    return out.coeffs


def rotational_reference(u):
    """-P(omega x u) with full-spectrum complex FFTs and no truncation."""
    n = u.grid.n
    u_phys = np.fft.ifftn(u.coeffs, axes=(1, 2, 3)).real * n**3
    w_phys = np.fft.ifftn(curl(u).coeffs, axes=(1, 2, 3)).real * n**3
    product = np.cross(u_phys, w_phys, axis=0)  # u x omega = -(omega x u)
    return projected(np.fft.fftn(product, axes=(1, 2, 3)) / n**3, u.grid)


def rel_err(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


class TestRotationalForm:
    """The solver's P(u x omega) against the convective form -P((u.grad)u)."""

    @pytest.mark.parametrize("seed", [21, 22, 23])
    def test_equals_convective_form_under_two_thirds_rule(self, grid32, seed):
        u = random_divergence_free(grid32, seed)
        convective = -projected(advection(u).coeffs, grid32)
        lat = _lattice(grid32, "two_thirds")
        got = lat.pad(nonlinear_term(lat.crop(u.coeffs), grid32))
        assert rel_err(got, half_spectrum(convective)) <= 1e-12

    def test_undealiased_rhs_is_the_aliased_rotational_form(self, grid16):
        u = random_divergence_free(grid16, 31, kmax=7)
        nu = 0.05
        viscous = -nu * 4 * np.pi**2 * grid16.k_sq * u.coeffs
        got = rhs(u, nu, "none").coeffs
        assert rel_err(got, rotational_reference(u) + viscous) <= 1e-12
        # the convective form aliases differently: O(1), not roundoff
        convective = -projected(advection(u, apply_dealias=False).coeffs, grid16)
        assert rel_err(got, convective + viscous) > 1e-2

    def test_final_field_hermitian_and_divergence_free(self, grid32):
        u0 = random_divergence_free(grid32, 41, kmax=6, amplitude=0.2)
        dt = 1e-3
        final = run(u0, SolverConfig(grid=grid32, nu=0.05, dt=dt, t_end=20 * dt)).final_field
        assert hermitian_defect(final.coeffs) <= 1e-14
        assert divergence_defect(final) <= 1e-12


def swap_x1_x2(u):
    """The reflection across x1 = x2: (u2, u1, u3) at (x2, x1, x3)."""
    coeffs = u.coeffs[[1, 0, 2]].transpose(0, 2, 1, 3).copy()
    return SpectralVectorField(u.grid, coeffs, u.mean_zero)


class TestSymmetries:
    @pytest.mark.parametrize("n", [16, 24])
    def test_run_commutes_with_swapping_x1_and_x2(self, n):
        """The swap maps solutions to solutions and keeps K, E, ||S||_{H1},
        int det S and ||omega_h||_{H^-1/2}.  kmax = n/2 - 1 puts modes outside
        the 2/3 block, so the truncation at entry is swapped too."""
        grid = GridSpec(n)
        u0 = random_divergence_free(grid, 50 + n, kmax=n // 2 - 1, amplitude=0.2)
        cfg = SolverConfig(grid=grid, nu=0.05, dt=1e-3, t_end=10e-3)
        direct, swapped = run(u0, cfg), run(swap_x1_x2(u0), cfg)
        for col in ("K", "E", "strain_h1_sq", "det_S_integral", "omega_h_hminushalf"):
            np.testing.assert_allclose(getattr(swapped, col), getattr(direct, col),
                                       rtol=1e-12, atol=0, err_msg=col)
        assert rel_err(swapped.final_field.coeffs, swap_x1_x2(direct.final_field).coeffs) <= 1e-12

    def test_two_dimensional_data_stays_two_dimensional(self, grid16):
        series = run(
            taylor_green_2d(grid16, 2.0),
            SolverConfig(grid=grid16, nu=0.05, dt=1e-3, t_end=0.02),
        )
        assert np.all(series.omega_h_hminushalf <= 1e-13 * np.sqrt(series.E))

    def test_state_stays_in_the_two_thirds_block(self, grid16):
        u0 = random_divergence_free(grid16, 61, kmax=7, amplitude=0.2)
        final = run(u0, SolverConfig(grid=grid16, nu=0.05, dt=1e-3, t_end=5e-3)).final_field
        inside = grid16.dealias_mask
        assert np.all(final.coeffs[:, ~inside] == 0.0)
        assert np.count_nonzero(final.coeffs[:, inside]) > 0.9 * 3 * np.count_nonzero(inside)


class TestThreads:
    def test_threaded_transforms_leave_the_output_unchanged(self, tmp_path, monkeypatch):
        """Lowering the threshold makes an n=16 simulate use every core; the
        CSV and the summary are byte-identical to the run on one thread."""
        field = str(tmp_path / "u.field")
        assert main(["construct", "random", "--n", "16", "--seed", "5", "--output", field]) == 0
        cfgfile = tmp_path / "sim.cfg"
        cfgfile.write_text("nu=0.05\ndt=5e-4\nt_end=5e-3\n")

        def simulate(name):
            out = str(tmp_path / name)
            assert main(["simulate", "--config", str(cfgfile), "--initial", field,
                         "--output", out]) == 0
            return open(out, "rb").read(), open(out + ".summary.json", "rb").read()

        one_thread = simulate("one.csv")
        workers = []
        irfftn = scipy.fft.irfftn

        def spy(*args, **kwargs):
            workers.append(kwargs["workers"])
            return irfftn(*args, **kwargs)

        monkeypatch.setattr(scipy.fft, "irfftn", spy)
        monkeypatch.setattr(solver, "THREADED_MIN_N", 4)
        threaded = simulate("threaded.csv")
        cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        assert set(workers) == {cores}
        assert threaded == one_thread


class TestTransformBudget:
    """A simulate invocation makes 36 3-D transforms per step (4 stages of
    6 inverse + 3 forward), 6 per recorded row (strain) and 6 once (field
    read and CFL), and no transforms of other dimension."""

    @pytest.mark.parametrize("steps, stride", [(3, 1), (4, 2), (5, 2)])
    def test_simulate_transform_count(self, tmp_path, transform_counts, steps, stride):
        field = str(tmp_path / "u.field")
        assert main(["construct", "random", "--n", "8", "--seed", "3", "--output", field]) == 0
        cfgfile = tmp_path / "sim.cfg"
        cfgfile.write_text(f"nu=0.1\ndt=1e-3\nt_end={steps * 1e-3!r}\nrecord_stride={stride}\n")
        out = str(tmp_path / "run.csv")
        transform_counts.update({"3d": 0, "other": 0})
        assert main(["simulate", "--config", str(cfgfile), "--initial", field,
                     "--output", out]) == 0
        rows = len(open(out).read().strip().splitlines()) - 1
        assert rows == steps // stride + 1 + (steps % stride > 0)
        assert transform_counts == {"3d": 36 * steps + 6 * rows + 6, "other": 0}


class TestRun:
    def test_zero_data_stays_zero(self, grid16):
        u0 = SpectralVectorField(grid16, np.zeros((3, 16, 16, 16), dtype=complex), True)
        series = run(u0, SolverConfig(grid=grid16, nu=1.0, dt=1e-3, t_end=0.01))
        assert np.max(series.K) == 0.0
        assert series.status == "completed"

    def test_taylor_green_decay(self, grid32):
        tg = taylor_green_2d(grid32)
        cfg = SolverConfig(grid=grid32, nu=0.01, dt=1e-3, t_end=0.05)
        series = run(tg, cfg)
        exact = tg.coeffs * math.exp(-8 * math.pi**2 * 0.01 * 0.05)
        err = np.sqrt(np.sum(np.abs(series.final_field.coeffs - exact) ** 2))
        ref = np.sqrt(np.sum(np.abs(exact) ** 2))
        assert err <= 1e-6 * ref
        assert series.summary["max_energy_eq_residual"] <= 1e-6 * series.K[0]

    def test_divergence_and_mean_preserved(self, grid16):
        u0 = random_divergence_free(grid16, 11, kmax=4, amplitude=0.5)
        series = run(u0, SolverConfig(grid=grid16, nu=0.2, dt=1e-4, t_end=5e-3))
        final = series.final_field
        assert divergence_defect(final) <= 1e-10
        assert np.max(np.abs(final.coeffs[:, 0, 0, 0])) <= 1e-14

    def test_energy_nonincreasing(self, grid16):
        u0 = random_divergence_free(grid16, 12, kmax=4, amplitude=0.5)
        series = run(u0, SolverConfig(grid=grid16, nu=0.5, dt=1e-4, t_end=0.01))
        assert series.summary["max_energy_increase_per_step"] <= 1e-8 * series.K[0]

    def test_two_dimensional_invariance(self, grid32):
        series = run(
            taylor_green_2d(grid32, 2.0),
            SolverConfig(grid=grid32, nu=0.05, dt=1e-3, t_end=0.02),
        )
        assert np.max(series.omega_h_hminushalf) <= 1e-12

    def test_reversible_scaling_on_one_mode(self, grid32):
        value = np.array([0.0, 0.7, 0.3])
        u1 = single_mode(grid32, (1, 0, 0), value / 2)
        u2 = single_mode(grid32, (2, 0, 0), value)  # 2 u0(2x)
        nu, dt, t_end = 0.05, 1e-3, 0.08
        s1 = run(u1, SolverConfig(grid=grid32, nu=nu, dt=dt, t_end=t_end))
        s2 = run(u2, SolverConfig(grid=grid32, nu=2 * nu, dt=dt / 2, t_end=t_end / 2))
        for j in range(len(s2.K)):
            if 4 * j >= len(s1.K):
                break
            assert s2.K[j] == pytest.approx(4 * s1.K[4 * j], rel=1e-12)

    def test_blowup_threshold_stops_early(self, grid16):
        u0 = random_divergence_free(grid16, 13, kmax=4, amplitude=1.0)
        cfg = SolverConfig(
            grid=grid16, nu=0.1, dt=1e-5, t_end=1e-3, blowup_threshold=1e-12
        )
        series = run(u0, cfg)
        assert series.status == "blowup_suspected"

    def test_nan_detection_aborts(self, grid16):
        u0 = random_divergence_free(grid16, 14, kmax=5, amplitude=100.0)
        cfg = SolverConfig(grid=grid16, nu=1e-6, dt=0.5, t_end=10.0)
        with pytest.warns(UserWarning, match="CFL"):
            series = run(u0, cfg)
        assert series.status in ("nan_abort", "blowup_suspected")
        assert len(series.t) < 21  # stopped early

    @pytest.mark.parametrize("n", [16, 32])
    def test_first_row_is_the_field_summary(self, n):
        """The solver's half-spectrum sums agree with the full-spectrum
        battery; kmax=4 lies inside the 2/3 mask, so run keeps u0 as is."""
        grid = GridSpec(n)
        u0 = random_divergence_free(grid, 31 + n, kmax=4)
        series = run(u0, SolverConfig(grid=grid, nu=0.1, dt=1e-4, t_end=1e-4))
        s = field_summary(u0)
        assert series.K[0] == pytest.approx(s.K, rel=1e-12)
        assert series.E[0] == pytest.approx(s.E, rel=1e-12)
        assert series.omega_h_hminushalf[0] == pytest.approx(s.omega_h_hminushalf, rel=1e-12)

    def test_rejects_bad_initial_data(self, grid16):
        coeffs = np.zeros((3, 16, 16, 16), dtype=complex)
        coeffs[0, 0, 0, 0] = 1.0
        with pytest.raises(ValueError, match="mean-zero"):
            run(
                SpectralVectorField(grid16, coeffs),
                SolverConfig(grid=grid16, nu=1.0, dt=1e-3, t_end=0.01),
            )


@pytest.fixture(scope="module")
def monitored_run(grid32):
    u0 = random_divergence_free(grid32, 2024, kmax=4, amplitude=1.0)
    dt = 2e-6
    cfg = SolverConfig(grid=grid32, nu=0.5, dt=dt, t_end=60 * dt)
    return run(u0, cfg), u0, cfg


class TestMonitors:
    def test_strain_identity_residual_small(self, monitored_run):
        series, _, _ = monitored_run
        assert series.summary["max_strain_identity_residual"] <= 1e-5

    def test_strain_identity_second_order(self, monitored_run, grid32):
        series, u0, cfg = monitored_run
        half = run(
            u0,
            SolverConfig(grid=grid32, nu=cfg.nu, dt=cfg.dt / 2, t_end=30 * cfg.dt),
        )
        ratio = (
            series.summary["max_strain_identity_residual"]
            / half.summary["max_strain_identity_residual"]
        )
        assert 2.5 < ratio < 6.0

    def test_taylor_green_identity_is_pure_dissipation(self, grid32):
        series = run(
            taylor_green_2d(grid32),
            SolverConfig(grid=grid32, nu=0.01, dt=1e-3, t_end=0.02),
        )
        assert np.max(np.abs(series.det_S_integral)) == 0.0
        assert series.summary["max_strain_identity_residual"] <= 1e-6

    def test_enstrophy_inequality_never_violated(self, monitored_run):
        series, _, _ = monitored_run
        scale = series.E[0] ** 3 / (3456 * math.pi**4 * 0.5**3)
        assert series.summary["min_enstrophy_ineq_slack"] >= -1e-6 * scale

    def test_decaying_flow_has_positive_slack(self, grid32):
        series = run(
            taylor_green_2d(grid32),
            SolverConfig(grid=grid32, nu=0.01, dt=1e-3, t_end=0.02),
        )
        assert series.summary["min_enstrophy_ineq_slack"] > 0

    def test_horizontal_flag_and_gronwall(self, monitored_run):
        series, _, _ = monitored_run
        assert series.summary["horizontal_flag_all_true"]
        assert series.summary["gronwall_envelope_ok"]
        # Centered-difference columns are NaN exactly at the end rows.
        for col in (
            series.strain_identity_residual,
            series.enstrophy_ineq_slack,
            series.horizontal_decay_flag,
        ):
            assert np.all(np.isnan(col[[0, -1]]))
            assert np.all(np.isfinite(col[1:-1]))

    def test_horizontal_flag_exercised_below_threshold(self, grid32):
        """A small-amplitude field keeps omega_h below R1 nu, so the decay
        branch of the flag is genuinely tested."""
        u0 = random_divergence_free(grid32, 77, kmax=3, amplitude=2e-3)
        cfg = SolverConfig(grid=grid32, nu=0.5, dt=1e-5, t_end=5e-4)
        series = run(u0, cfg)
        small = series.omega_h_hminushalf[1:-1] < constants().r1 * 0.5
        assert np.all(small)
        assert series.summary["horizontal_flag_all_true"]


def test_assemble_series_closed_forms_on_many_rows():
    """Linear K and constant E: the energy residual and the Gronwall exponent
    are linear in t, row by row."""
    m, nu, e, slope, growth = 10_000, 0.3, 2.0, 0.5, 1.0
    dt = 1e-4
    t = dt * np.arange(m)
    omega_h = 1e-3 * np.exp(growth * t)
    rows = [
        {"t": t[i], "K": 1.0 - slope * t[i], "E": e, "strain_h1_sq": 1.0,
         "det_S_integral": 0.0, "omega_h_hminushalf": omega_h[i], "strain_l3": 1.0}
        for i in range(m)
    ]
    cfg = SolverConfig(grid=GridSpec(4), nu=nu, dt=dt, t_end=(m - 1) * dt)
    series = _assemble_series(rows, cfg)
    np.testing.assert_allclose(
        series.energy_eq_residual, abs(2 * nu * e - slope) * t, rtol=1e-10, atol=1e-15
    )
    rate = 2 * growth - (2 * e) ** 2 / (constants().r2 * nu**3)
    assert rate < 0  # the largest log ratio is on the first step
    assert series.summary["gronwall_max_log_ratio"] == pytest.approx(rate * t[1], rel=1e-9)
    assert series.summary["gronwall_envelope_ok"]


class TestConfigValidation:
    def test_t_end_must_be_a_multiple_of_dt(self, grid16):
        with pytest.raises(ValueError, match="integer multiple of dt"):
            SolverConfig(grid=grid16, nu=1.0, dt=3e-3, t_end=0.01)
        with pytest.raises(ValueError, match="integer multiple of dt"):
            SolverConfig(grid=grid16, nu=1.0, dt=3e-3, t_end=1e-3)
        assert SolverConfig(grid=grid16, nu=1.0, dt=1e-3, t_end=0.2).n_steps == 200

    def test_bad_viscosity(self, grid16):
        with pytest.raises(ValueError, match="positive"):
            SolverConfig(grid=grid16, nu=0.0, dt=1e-3, t_end=1.0)

    def test_bad_dealias_rule(self, grid16):
        with pytest.raises(ValueError, match="dealias"):
            SolverConfig(grid=grid16, nu=1.0, dt=1e-3, t_end=1.0, dealias="half")

    def test_unknown_monitor(self, grid16):
        with pytest.raises(ValueError, match="unknown monitors"):
            SolverConfig(
                grid=grid16, nu=1.0, dt=1e-3, t_end=1.0, monitors=frozenset({"bogus"})
            )
