"""Acceptance gate: every criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion.
"""

import contextlib
import math
import sys
import time

import numpy as np
import pytest

from almost2d import (
    GridSpec,
    SolverConfig,
    besov_norm,
    constants,
    curl,
    envelopes,
    lebesgue_norm,
    rescaled_vorticity,
    run,
    small_data_check,
    taylor_green_2d,
    un_family,
)
from almost2d.families import (
    annulus_analog,
    helical_base_vorticity,
    random_divergence_free,
)
from almost2d.norms import lebesgue_norm as LN
from conftest import (
    full_coeffs, gradient_of_component, horizontal_parts, p2d_split, partial3, sobolev_norm,
    strain, strain_sobolev_norm, zeroed,
)
from almost2d.wholespace import (
    besov_embedding_constant,
    heat_kernel_constants,
    lambda_n_report,
)


@contextlib.contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({label}): FAIL", file=sys.stderr)
        raise
    print(f"ACCEPTANCE {number} ({label}): PASS")


def test_criterion_1_sharp_constants():
    with criterion(1, "sharp constants, both closed forms, <1ms"):
        constants()  # warm
        t0 = time.perf_counter()
        c = constants()
        elapsed = time.perf_counter() - t0
        assert abs(c.c1 - 2 ** (-1 / 6) * math.pi ** (-1 / 3)) <= 1e-12 * c.c1
        assert abs(c.c2 - (2 / math.pi) ** (2 / 3) / math.sqrt(3)) <= 1e-12 * c.c2
        r1_a = 1 / (2 * c.c1 * c.c2)
        r1_b = math.sqrt(3) * math.pi / (2 * math.sqrt(2))
        assert abs(c.r1 - r1_a) <= 1e-12 * c.r1 and abs(c.r1 - r1_b) <= 1e-12 * c.r1
        r2_a = 128 / (27 * (1 + math.sqrt(2)) ** 4 * c.c1**4 * c.c2**4)
        r2_b = 32 * math.pi**4 / (3 * (1 + math.sqrt(2)) ** 4)
        assert abs(c.r2 - r2_a) <= 1e-12 * c.r2 and abs(c.r2 - r2_b) <= 1e-12 * c.r2
        assert elapsed < 1e-3


def test_criterion_2_isometries():
    with criterion(2, "strain/horizontal isometries on 100 random fields"):
        t0 = time.perf_counter()
        grid = GridSpec(16)
        for i in range(100):
            u = random_divergence_free(grid, 5000 + i, kmax=5)
            s = strain(u)
            w = curl(u)
            for alpha in (0.0, 1.0):
                s_sq = strain_sobolev_norm(s, alpha) ** 2
                w_sq = sobolev_norm(w, alpha) ** 2
                grad_sq = sobolev_norm(u, alpha + 1) ** 2
                assert abs(s_sq - 0.5 * w_sq) <= 1e-10 * s_sq
                assert abs(s_sq - 0.5 * grad_sq) <= 1e-10 * s_sq
            parts = horizontal_parts(u)
            for alpha in (-0.5, 0.0):
                v3_sq = sobolev_norm(parts.v3, alpha) ** 2
                oh_sq = sobolev_norm(parts.omega_h, alpha) ** 2
                assert abs(v3_sq - oh_sq) <= 1e-10 * oh_sq
                split = (
                    sobolev_norm(partial3(u), alpha) ** 2
                    + sobolev_norm(gradient_of_component(u, 2), alpha) ** 2
                )
                assert abs(v3_sq - split) <= 1e-10 * oh_sq
                sh = parts.sh_sobolev_norm(alpha)
                assert sh <= math.sqrt(oh_sq / 2) * (1 + 1e-10)
        assert time.perf_counter() - t0 < 10.0


def test_criterion_3_un_family():
    with criterion(3, "un family closed-form norms"):
        grid = GridSpec(24)
        for n in (1, 2, 5, 10):
            u = un_family(n, grid)
            omega_h = sobolev_norm(horizontal_parts(u).omega_h, -0.5)
            assert abs(omega_h - 1.0) <= 1e-10
            half_sq = sobolev_norm(u, 0.5) ** 2
            assert abs(half_sq - (n**2 + 2)) <= 1e-10 * (n**2 + 2)
            two_d, _ = p2d_split(u)
            assert np.max(np.abs(full_coeffs(two_d))) == 0.0


def test_criterion_4_wholespace_quadrature():
    with criterion(4, "whole-space quadrature oracles"):
        t0 = time.perf_counter()
        for n in (3, 10, 100):
            rep = lambda_n_report(n)
            assert abs(rep.volume - 6 * math.pi / n) <= 1e-8
        loglog_half = math.sqrt(math.log(math.log(3)))
        l2_oracle = loglog_half * (6 * math.pi + 4 * math.pi * math.log(2) / 27)
        assert abs(lambda_n_report(3).l2_sq - l2_oracle) <= 1e-6
        hk = heat_kernel_constants()
        two_over_sqrt_pi = 2 / math.sqrt(math.pi)
        assert abs(hk.grad_g_l1 - two_over_sqrt_pi) <= 1e-8 * two_over_sqrt_pi
        emb = besov_embedding_constant(math.inf)
        assert abs(emb - 1 / (4 * math.pi)) <= 1e-8 / (4 * math.pi)
        assert time.perf_counter() - t0 < 5.0


def test_criterion_5_taylor_green_regression(run_with_final):
    with criterion(5, "Taylor-Green decay regression"):
        t0 = time.perf_counter()
        grid = GridSpec(32)
        tg = taylor_green_2d(grid)
        series, final = run_with_final(tg, SolverConfig(nu=0.01, dt=1e-3, t_end=0.1))
        exact = full_coeffs(tg) * math.exp(-8 * math.pi**2 * 0.01 * 0.1)
        err = math.sqrt(float(np.sum(np.abs(full_coeffs(final) - exact) ** 2)))
        ref = math.sqrt(float(np.sum(np.abs(exact) ** 2)))
        assert err <= 1e-6 * ref
        assert series.summary["max_energy_eq_residual"] <= 1e-6 * series.K[0]
        assert time.perf_counter() - t0 < 60.0


def test_criterion_6_trajectory_inequalities():
    with criterion(6, "trajectory identities and inequalities"):
        t0 = time.perf_counter()
        grid = GridSpec(32)
        u0 = random_divergence_free(grid, 2024, kmax=4, amplitude=1.0)
        dt = 2e-6
        series = run(u0, SolverConfig(nu=0.5, dt=dt, t_end=200 * dt))
        assert series.status == "completed"
        # Prop 2.1 identity, relative residual and O(dt^2) convergence
        res_full = series.summary["max_strain_identity_residual"]
        assert res_full <= 1e-5
        half = run(
            u0, SolverConfig(nu=0.5, dt=dt / 2, t_end=60 * dt)
        )
        ratio = res_full / half.summary["max_strain_identity_residual"]
        assert 2.5 < ratio < 6.0
        # Prop 2.4 cubic and Cor 2.2 bounds
        cubic_scale = float(np.max(series.E)) ** 3 / (3456 * math.pi**4 * 0.5**3)
        assert series.summary["min_enstrophy_ineq_slack"] >= -1e-6 * cubic_scale
        # Prop 3.6 decay flag wherever omega_h < R1 nu
        assert series.summary["horizontal_flag_all_true"]
        small_run = run(
            random_divergence_free(grid, 77, kmax=3, amplitude=2e-3),
            SolverConfig(nu=0.5, dt=1e-5, t_end=5e-4),
        )
        below = small_run.omega_h_hminushalf < constants().r1 * 0.5
        assert np.all(below)
        assert small_run.summary["horizontal_flag_all_true"]
        # Prop 3.8 Gronwall envelope
        assert series.summary["gronwall_envelope_ok"]
        assert small_run.summary["gronwall_envelope_ok"]
        assert time.perf_counter() - t0 < 300.0


def test_criterion_7_criterion_trends():
    with criterion(7, "annulus-analog and shell-integral trends"):
        t0 = time.perf_counter()
        grid = GridSpec(32)
        r2 = constants().r2
        crit_values, besov_values = [], []
        for n in (3, 6, 12):
            w = annulus_analog(n, grid)
            K0 = 0.5 * sobolev_norm(w, -1.0) ** 2
            E0 = 0.5 * sobolev_norm(w, 0.0) ** 2
            w_h = zeroed(w, 2)
            crit_values.append(sobolev_norm(w_h, -0.5) * math.exp(K0 * E0 / r2))
            besov_values.append(besov_norm(w, 0.5, 2.0).value)
        assert crit_values[0] > crit_values[1] > crit_values[2]
        assert besov_values[0] < besov_values[1] < besov_values[2]
        quantities = [
            lambda_n_report(n).criterion_quantity for n in (3, 10, 100, 1000)
        ]
        assert all(a > b for a, b in zip(quantities, quantities[1:]))
        assert time.perf_counter() - t0 < 120.0


def test_criterion_8_rescaling_laws():
    with criterion(8, "vertical-stretch rescaling exponents"):
        grid = GridSpec(32)
        base = helical_base_vorticity(grid)
        base_h = zeroed(base, 2)
        base_3 = zeroed(base, slice(0, 2))
        for m in (2, 4):
            r = rescaled_vorticity(base, m, 1.0)
            eps = 1.0 / m
            prefactor = eps ** (2 / 3) * math.log(m) ** 0.25
            for q in (1.2, 1.5, 2.0):
                expected_h = prefactor * eps * eps ** (-1 / q) * LN(base_h, q)
                got_h = r.component_lebesgue_norm("horizontal", q)
                assert abs(got_h - expected_h) <= 1e-8 * expected_h
                expected_3 = prefactor * eps ** (-1 / q) * LN(base_3, q)
                got_3 = r.component_lebesgue_norm("vertical", q)
                assert abs(got_3 - expected_3) <= 1e-8 * expected_3
        from almost2d.criteria import gamma2d_lp_from_norms

        log_lhs = []
        for m in (2, 8):
            r = rescaled_vorticity(base, m, 1.0)
            rep = gamma2d_lp_from_norms(
                r.component_lebesgue_norm("horizontal", 1.5),
                r.lebesgue_norm(1.2),
                r.lebesgue_norm(2.0),
                1.0,
            )
            log_lhs.append(rep.inputs["log_lhs"])
        assert log_lhs[1] < log_lhs[0]


def test_criterion_9_envelope_consistency():
    with criterion(9, "small-data enstrophy envelope along a run"):
        grid = GridSpec(32)
        u0 = random_divergence_free(grid, 31, kmax=4, amplitude=0.25)
        K0 = 0.5 * lebesgue_norm(u0, 2) ** 2
        E0 = 0.5 * sobolev_norm(curl(u0), 0) ** 2
        assert small_data_check(K0, E0, 1.0).satisfied
        bound = envelopes(K0, E0, 1.0, 0.0).global_enstrophy_bound
        series = run(u0, SolverConfig(nu=1.0, dt=2e-5, t_end=2e-3))
        assert series.status == "completed"
        assert np.all(series.E <= bound * (1 + 1e-6))
