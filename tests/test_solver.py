"""Time integration and trajectory monitors."""

import contextlib
import math
import os
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.fft

from almost2d import (
    GridSpec,
    SolverConfig,
    SpectralVectorField,
    constants,
    run,
    taylor_green_2d,
)
from almost2d import field as field_module
from almost2d import solver as solver_module
from almost2d.cli import main
from almost2d.families import random_divergence_free, set_mode_pair
from almost2d.field import (
    DECAY_SLACK_TOL, curl, curl_coeffs, divergence_defect, irfft3, k_dot, leray_project,
    strain_coeffs,
)
from almost2d.grid import conjugate_planes
from almost2d.norms import field_summary, samples_lebesgue_norm
from almost2d.solver import (
    CSV_COLUMNS, _assemble_series, _det, _lattice, _spectral_diagnostics, _stage, _strain_cubed,
    nonlinear_term,
)
from conftest import (
    _FFT_NAMES, advection, from_full_coeffs, full_coeffs, full_wavenumbers, half_spectrum,
    nonlinear_term_oracle, padded, plane_defect, rhs, stage_tendency, strain, two_thirds_mask,
    zeroed,
)


def single_mode(grid, k, value):
    half = np.zeros((3, grid.n, grid.n, grid.n // 2 + 1), dtype=complex)
    set_mode_pair(half, grid, k, np.asarray(value, dtype=complex))
    return SpectralVectorField(grid, half)


def full_k_sq(n):
    k1, k2, k3 = full_wavenumbers(n)
    return k1**2 + k2**2 + k3**2


class TestRhs:
    def test_zero_field(self, grid16):
        u = from_full_coeffs(grid16, np.zeros((3, 16, 16, 16), dtype=complex))
        assert np.max(np.abs(full_coeffs(rhs(u, 1.0)))) == 0.0

    def test_taylor_green_nonlinearity_is_gradient(self, grid32):
        tg = taylor_green_2d(grid32)
        tendency = rhs(tg, 0.01)
        viscous = -0.01 * 4 * np.pi**2 * full_k_sq(32) * full_coeffs(tg)
        err = np.max(np.abs(full_coeffs(tendency) - viscous))
        assert err < 1e-12 * np.max(np.abs(viscous))

    def test_advection_skew_symmetry(self, grid16):
        for seed in (1, 2, 3):
            u = random_divergence_free(grid16, seed, kmax=5)
            u = SpectralVectorField(grid16, u.half * two_thirds_mask(grid16))
            adv = advection(u)
            c = full_coeffs(u)
            pairing = float(np.sum(np.real(full_coeffs(adv) * np.conj(c))))
            assert abs(pairing) < 1e-10 * float(np.sum(np.abs(c) ** 2))

    def test_tendency_divergence_free_and_mean_zero(self, grid16):
        u = random_divergence_free(grid16, 4, kmax=4)
        tendency = rhs(u, 0.3)
        assert divergence_defect(tendency) < 1e-12
        assert np.max(np.abs(tendency.half[:, 0, 0, 0])) == 0.0


@pytest.mark.parametrize("call", ["SolverConfig", "rhs", "nonlinear_term"])
def test_unknown_dealias_rule_is_rejected(call, grid16):
    """A rule other than "two_thirds" and "none" raises, so that no caller
    falls through to a band such as the whole spectrum."""
    u = random_divergence_free(grid16, 3, kmax=4)
    calls = {
        "SolverConfig": lambda: SolverConfig(nu=0.1, dt=0.01, t_end=0.02,
                                             dealias="bogus"),
        "rhs": lambda: rhs(u, 0.1, "bogus"),
        "nonlinear_term": lambda: _lattice(grid16, "bogus"),
    }
    with pytest.raises(ValueError, match="unknown dealias rule 'bogus'"):
        calls[call]()


def projected(coeffs, grid):
    """P(v) with the k = 0 mode zeroed, on full-spectrum coefficients."""
    out, _ = leray_project(from_full_coeffs(grid, coeffs))
    return full_coeffs(zeroed(out, (slice(None), 0, 0, 0)))


def rotational_reference(u):
    """-P(omega x u) with full-spectrum complex FFTs and no truncation."""
    n = u.grid.n
    u_phys = np.fft.ifftn(full_coeffs(u), axes=(1, 2, 3)).real * n**3
    w_phys = np.fft.ifftn(full_coeffs(curl(u)), axes=(1, 2, 3)).real * n**3
    product = np.cross(u_phys, w_phys, axis=0)  # u x omega = -(omega x u)
    return projected(np.fft.fftn(product, axes=(1, 2, 3)) / n**3, u.grid)


def rel_err(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


class TestRotationalForm:
    """The solver's P(u x omega) against the convective form -P((u.grad)u)."""

    @pytest.mark.parametrize("n", [24, 32, 48])
    @pytest.mark.parametrize("seed", [21, 22, 23])
    def test_equals_convective_form_under_two_thirds_rule(self, seed, n):
        """On a field that fills the band, at every n, 3 | n included."""
        grid = GridSpec(n)
        lat = _lattice(grid, "two_thirds")
        filled = random_divergence_free(grid, seed, kmax=n // 2 - 1)
        u = SpectralVectorField(grid, padded(lat, lat.crop(filled.half)))
        convective = -projected(full_coeffs(advection(u)), grid)
        got = padded(lat, stage_tendency(lat.crop(u.half), grid))
        assert rel_err(got, half_spectrum(convective)) <= 1e-12

    @pytest.mark.parametrize("n", [16, 24, 30, 32, 48])
    def test_band_is_alias_free(self, n):
        """The band's nonlinear term equals the same band's embedded in a grid
        of N >= 3n/2 > 3 kc points under "none", on which no product of the
        band aliases into it: no mode of the band is written by an alias."""
        grid = GridSpec(n)
        lat = _lattice(grid, "two_thirds")
        kc = lat.shape[2] - 1
        big = 2 * ((3 * n + 3) // 4)  # the least even N >= 3n/2
        ks = np.r_[0 : kc + 1, -kc:0] % big  # the band's k1 and k2 rows on the big grid
        band = (slice(None),) + np.ix_(ks, ks, np.arange(kc + 1))
        c = lat.crop(random_divergence_free(grid, 7, kmax=n // 2 - 1).half)
        embedded = np.zeros((3, big, big, big // 2 + 1), dtype=complex)
        embedded[band] = c
        want = stage_tendency(embedded, GridSpec(big), "none")[band]
        assert rel_err(stage_tendency(c, grid), want) <= 1e-12

    @pytest.mark.parametrize("n", [16, 24, 48])
    def test_enstrophy_production_is_minus_four_det_s(self, n):
        """sum mult 4 pi^2 |k|^2 Re(conj c . N) over the band, the nonlinear
        part of dE/dt, equals -4 int det S of the row: the cubic det S of
        the band is alias-free on the n grid, and the truncated rotational
        form keeps the identity."""
        grid = GridSpec(n)
        lat = _lattice(grid, "two_thirds")
        c = lat.crop(random_divergence_free(grid, 7, kmax=n // 2 - 1).half)
        production = float(np.sum(
            lat.multiplicity * 4 * np.pi**2 * lat.k_sq
            * np.real(np.sum(np.conj(c) * stage_tendency(c, grid), axis=0))
        ))
        with _stage(lat) as stage:
            det_s = _spectral_diagnostics(c, stage)["det_S_integral"]
        assert abs(production + 4 * det_s) <= 1e-12 * abs(production)

    def test_undealiased_rhs_is_the_aliased_rotational_form(self, grid16):
        u = random_divergence_free(grid16, 31, kmax=7)
        nu = 0.05
        viscous = -nu * 4 * np.pi**2 * full_k_sq(16) * full_coeffs(u)
        got = full_coeffs(rhs(u, nu, "none"))
        assert rel_err(got, rotational_reference(u) + viscous) <= 1e-12
        # the convective form aliases differently: O(1), not roundoff
        convective = -projected(full_coeffs(advection(u, apply_dealias=False)), grid16)
        assert rel_err(got, convective + viscous) > 1e-2

    def test_final_field_hermitian_and_divergence_free(self, grid32, run_with_final):
        u0 = random_divergence_free(grid32, 41, kmax=6, amplitude=0.2)
        dt = 1e-3
        _, final = run_with_final(u0, SolverConfig(nu=0.05, dt=dt, t_end=20 * dt))
        assert plane_defect(final.half) <= 1e-14
        assert divergence_defect(final) <= 1e-12


@pytest.mark.parametrize("n", range(4, 97, 2))
def test_two_thirds_band_is_the_dealias_mask(n):
    """The solver's band is the k3 >= 0 half of the modes the 2/3 rule keeps
    (``two_thirds_mask``), a (2kc+1, 2kc+1, kc+1) block with 3 kc < n <=
    3 kc + 3: the largest cutoff under which no product of the band aliases
    into it."""
    grid = GridSpec(n)
    lat = _lattice(grid, "two_thirds")
    kc = lat.shape[2] - 1
    assert lat.shape == (2 * kc + 1, 2 * kc + 1, kc + 1)
    assert np.array_equal(padded(lat, np.ones(lat.shape)) != 0, two_thirds_mask(grid))
    assert 3 * kc < n <= 3 * kc + 3


def swap_x1_x2(u):
    """The reflection across x1 = x2: (u2, u1, u3) at (x2, x1, x3)."""
    coeffs = u.half[[1, 0, 2]].transpose(0, 2, 1, 3).copy()
    return SpectralVectorField(u.grid, coeffs)


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


class TestBandKernels:
    @pytest.mark.parametrize("n", [16, 24])
    @pytest.mark.parametrize("rule", ["two_thirds", "none"])
    def test_band_kernels_are_the_cropped_field_operators(self, n, rule):
        """field's k.c, curl and strain kernels on the solver's band equal the
        full-lattice operators of the band-truncated field, cropped, bit for bit.
        Every band mode is set, the Nyquist planes of rule "none" included."""
        grid = GridSpec(n)
        lat = _lattice(grid, rule)
        rng = np.random.default_rng(60 + n)
        noise = rng.standard_normal((2, 3) + lat.shape)
        full = SpectralVectorField(grid, conjugate_planes(padded(lat, noise[0] + 1j * noise[1])))
        band = lat.crop(full.half)
        divergence = 2j * np.pi * k_dot(full.half, grid.k_deriv)
        assert same_bits(2j * np.pi * k_dot(band, lat.k_deriv), lat.crop(divergence))
        assert same_bits(curl_coeffs(band, lat.k_deriv), lat.crop(curl(full).half))
        assert same_bits(strain_coeffs(band, lat.k_deriv), lat.crop(strain(full).comps))


class TestSymmetries:
    @pytest.mark.parametrize("n", [16, 24])
    def test_run_commutes_with_swapping_x1_and_x2(self, n, run_with_final):
        """The swap maps solutions to solutions and keeps K, E, ||S||_{H1},
        int det S and ||omega_h||_{H^-1/2}.  kmax = n/2 - 1 puts modes outside
        the 2/3 block, so the truncation at entry is swapped too."""
        grid = GridSpec(n)
        u0 = random_divergence_free(grid, 50 + n, kmax=n // 2 - 1, amplitude=0.2)
        cfg = SolverConfig(nu=0.05, dt=1e-3, t_end=10e-3)
        (direct, direct_final), (swapped, swapped_final) = (
            run_with_final(u0, cfg), run_with_final(swap_x1_x2(u0), cfg))
        for col in ("K", "E", "strain_h1_sq", "det_S_integral", "omega_h_hminushalf"):
            np.testing.assert_allclose(getattr(swapped, col), getattr(direct, col),
                                       rtol=1e-12, atol=0, err_msg=col)
        assert rel_err(full_coeffs(swapped_final),
                       full_coeffs(swap_x1_x2(direct_final))) <= 1e-12

    def test_two_dimensional_data_stays_two_dimensional(self, grid16):
        series = run(
            taylor_green_2d(grid16, 2.0),
            SolverConfig(nu=0.05, dt=1e-3, t_end=0.02),
        )
        assert np.all(series.omega_h_hminushalf <= 1e-13 * np.sqrt(series.E))

    def test_state_stays_in_the_two_thirds_block(self, grid16, run_with_final):
        u0 = random_divergence_free(grid16, 61, kmax=7, amplitude=0.2)
        _, final = run_with_final(u0, SolverConfig(nu=0.05, dt=1e-3, t_end=5e-3))
        inside = two_thirds_mask(grid16)
        assert np.all(final.half[:, ~inside] == 0.0)
        assert np.count_nonzero(final.half[:, inside]) > 0.9 * 3 * np.count_nonzero(inside)


class TestThreads:
    def test_threaded_transforms_leave_the_output_unchanged(self, tmp_path, monkeypatch):
        """Lowering the threshold makes an n=16 simulate use every core: the
        field read is one 3-D transform with ``workers`` = cores, and the run's
        transforms are 1-D passes with ``workers`` = 1, made by as many
        distinct threads, its parts.  The CSV and the summary are
        byte-identical to the run on one thread."""
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
        calls = []  # (n-d transform, workers, thread)

        def spy(name, transform):
            def spied(*args, **kwargs):
                calls.append((name.endswith("n"), kwargs["workers"], threading.get_ident()))
                return transform(*args, **kwargs)
            return spied

        for name in _FFT_NAMES:  # every scipy.fft transform, 1-D and n-d
            monkeypatch.setattr(scipy.fft, name, spy(name, getattr(scipy.fft, name)))
        monkeypatch.setattr(field_module, "THREADED_MIN_N", 4)
        threaded = simulate("threaded.csv")
        cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        read = [(workers, thread) for nd, workers, thread in calls if nd]
        passes = [(workers, thread) for nd, workers, thread in calls if not nd]
        assert read == [(cores, threading.get_ident())]
        assert {workers for workers, _ in passes} == {1}
        assert len({thread for _, thread in passes}) == cores
        assert threaded == one_thread


def band_inputs(lat, count, seed):
    """Band coefficients of real fields with every band mode set, Nyquist
    planes of rule "none" included, each call's input distinct."""
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal((count, 2, 3) + lat.shape)
    return [lat.crop(conjugate_planes(padded(lat, a + 1j * b))) for a, b in noise]


def diagnostics_row_oracle(c, lat):
    """One diagnostics row with fresh arrays, as before stage buffers."""
    abs_sq = lat.multiplicity * (np.abs(c[0]) ** 2 + np.abs(c[1]) ** 2 + np.abs(c[2]) ** 2)
    four_pi_sq_ksq = 4 * np.pi**2 * lat.k_sq
    w = curl_coeffs(c, lat.k_deriv)
    omega_h_sq = float(
        np.sum(lat.multiplicity * lat.omega_h_weight * (np.abs(w[0]) ** 2 + np.abs(w[1]) ** 2))
    )
    s_phys = irfft3(padded(lat, strain_coeffs(c, lat.k_deriv)), lat.n)
    return {
        "K": 0.5 * float(np.sum(abs_sq)),
        "E": 0.5 * float(np.sum(four_pi_sq_ksq * abs_sq)),
        "strain_h1_sq": 0.5 * float(np.sum(four_pi_sq_ksq**2 * abs_sq)),
        "det_S_integral": float(np.mean(_det(s_phys))),
        "omega_h_hminushalf": math.sqrt(max(omega_h_sq, 0.0)),
        "strain_l3": float(np.mean(_strain_cubed(s_phys)) ** (1.0 / 3.0)),
    }


def run_by_oracle(u0, cfg):
    """``run``'s integration and rows on fresh arrays throughout (the oracle
    nonlinear term, the row above, a fresh CFL sample and final field):
    (series, final field) for comparison with ``run`` as bits."""
    grid, h = u0.grid, cfg.dt
    lat = _lattice(grid, cfg.dealias)
    u = lat.crop(u0.half)
    u[:, 0, 0, 0] = 0.0
    half_decay = np.exp(-4 * np.pi**2 * lat.k_sq * cfg.nu * h / 2.0)
    full_decay = half_decay**2
    umax = samples_lebesgue_norm(irfft3(padded(lat, u), lat.n), np.inf)
    rows = []

    def record(step, state):
        rows.append({**diagnostics_row_oracle(state, lat), "t": step * h})
        if not math.isfinite(rows[-1]["E"]):
            return "nan_abort"
        return "blowup_suspected" if rows[-1]["E"] > cfg.blowup_threshold else "completed"

    status, step = record(0, u), 0
    while status == "completed" and step < cfg.n_steps:
        step += 1
        k1 = nonlinear_term_oracle(u, grid, cfg.dealias)
        k2 = nonlinear_term_oracle(half_decay * (u + 0.5 * h * k1), grid, cfg.dealias)
        k3 = nonlinear_term_oracle(half_decay * u + 0.5 * h * k2, grid, cfg.dealias)
        k4 = nonlinear_term_oracle(full_decay * u + h * half_decay * k3, grid, cfg.dealias)
        u = full_decay * u + (h / 6.0) * (full_decay * k1 + 2 * half_decay * (k2 + k3) + k4)
        if step % cfg.record_stride == 0 or step == cfg.n_steps:
            status = record(step, u)
    stability = {
        "advective_cfl": cfg.dt * umax * grid.n,
        "stiff_heuristic": cfg.dt * cfg.nu * (2 * np.pi * grid.n / 2) ** 2,
    }
    series = _assemble_series(rows, cfg, status, stability)
    return series, SpectralVectorField(grid, conjugate_planes(padded(lat, u)))


class TestStageBuffers:
    """One ``run`` reuses one set of stage buffers for every nonlinear stage
    and diagnostics row; the results equal fresh arrays' as bits."""

    @pytest.mark.parametrize("n, rule", [(16, "two_thirds"), (16, "none"), (24, "two_thirds"),
                                         (24, "none"), (48, "two_thirds")])
    def test_reused_buffers_give_the_oracle_bits(self, n, rule):
        """Distinct inputs through one buffer set, each result kept: every one
        equals the fresh-array oracle, so no call leaves state in the buffers
        or writes into an earlier result or its input.  n=48 is threaded."""
        grid = GridSpec(n)
        lat = _lattice(grid, rule)
        inputs = band_inputs(lat, 3, seed=70 + n)
        copies = [c.copy() for c in inputs]
        with _stage(lat) as stage:
            results = [nonlinear_term(c, stage) for c in inputs]
        for c, copy, got in zip(inputs, copies, results):
            assert same_bits(c, copy)
            assert same_bits(got, nonlinear_term_oracle(copy, grid, rule))
        assert same_bits(stage_tendency(inputs[0], grid, rule), results[0])

    @pytest.mark.parametrize("n, rule, steps, stride, threshold", [
        (16, "two_thirds", 6, 1, 1e8),
        (24, "none", 7, 3, 1e8),
        (16, "two_thirds", 6, 1, 1e-12),  # stopped at row 0: "blowup_suspected"
    ])
    def test_run_matches_the_oracle_loop(self, n, rule, steps, stride, threshold,
                                         run_with_final):
        grid = GridSpec(n)
        u0 = random_divergence_free(grid, 80 + n, kmax=n // 2 - 1, amplitude=0.1)
        before = u0.half.copy()
        cfg = SolverConfig(nu=0.03, dt=1e-3, t_end=steps * 1e-3, dealias=rule,
                           record_stride=stride, blowup_threshold=threshold)
        series, got_final = run_with_final(u0, cfg)
        expected, final = run_by_oracle(u0, cfg)
        assert same_bits(u0.half, before)
        assert len(series.t) == (1 if threshold < 1 else len(range(0, steps, stride)) + 1)
        for col in CSV_COLUMNS:
            assert same_bits(getattr(series, col), getattr(expected, col)), col
        assert (series.status, repr(series.summary)) == (expected.status, repr(expected.summary))
        assert same_bits(got_final.half, final.half)

    @pytest.mark.parametrize("n, parts", [(16, 1), (48, 2)])
    def test_one_run_opens_one_stage(self, n, parts, monkeypatch):
        """A run opens one stage and hands that same object to its 4
        nonlinear terms per step, to every diagnostics row and to its CFL
        sample: with two cores, one part at n=16 and two at n=48."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        opened = []  # (id, parts) of each stage the run opens
        seen = {"nonlinear_term": [], "_spectral_diagnostics": [], "_max_speed": []}
        open_stage = solver_module._stage

        @contextlib.contextmanager
        def spied_stage(lat):
            with open_stage(lat) as stage:
                opened.append((id(stage), len(stage.planes)))
                yield stage

        def spy(name, fn):
            def spied(c, stage):
                seen[name].append(id(stage))
                return fn(c, stage)
            return spied

        monkeypatch.setattr(solver_module, "_stage", spied_stage)
        for name in seen:
            monkeypatch.setattr(solver_module, name, spy(name, getattr(solver_module, name)))
        grid, steps = GridSpec(n), 2
        u0 = random_divergence_free(grid, 33, kmax=5, amplitude=4.8 / n)
        series = run(u0, SolverConfig(nu=0.03, dt=1e-3, t_end=steps * 1e-3))
        assert [parts for _, parts in opened] == [parts]
        assert [len(ids) for ids in seen.values()] == [4 * steps, steps + 1, 1]
        assert len(series.t) == steps + 1
        assert {i for ids in seen.values() for i in ids} == {opened[0][0]}

    @pytest.mark.parametrize("n, steps", [(16, 8), (48, 1)])
    def test_concurrent_runs_equal_serial_runs(self, n, steps, monkeypatch, run_with_final):
        """Four runs at once, in more threads than cores and with a short switch
        interval, each equal to its serial run as bits: no run writes into
        another's buffers.  At n=48 each run splits its work into two parts on
        a pool of its own."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        grid = GridSpec(n)
        cfg = SolverConfig(nu=0.03, dt=1e-3, t_end=steps * 1e-3)
        fields = [random_divergence_free(grid, 95 + i, kmax=5, amplitude=4.8 / n) for i in range(4)]
        serial = [run_with_final(u0, cfg) for u0 in fields]
        results = [None] * len(fields)

        def work(i):
            results[i] = run_with_final(fields[i], cfg)

        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(fields))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for (got, got_final), (want, want_final) in zip(results, serial):
            for col in CSV_COLUMNS:
                assert same_bits(getattr(got, col), getattr(want, col)), col
            assert same_bits(got_final.half, want_final.half)

    def test_a_stage_allocates_no_padded_half_spectrum(self, grid32):
        """tracemalloc sees numpy's data allocations: with the run's buffers a
        stage at n=32 peaks at least one padded (6, 32, 32, 17) half spectrum
        below the fresh-array stage."""
        lat = _lattice(grid32, "two_thirds")
        (u,) = band_inputs(lat, 1, seed=99)

        def peak(call):
            call()  # warm: lattice and transform plans
            tracemalloc.start()
            try:
                call()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        fresh = peak(lambda: nonlinear_term_oracle(u, grid32))
        with _stage(lat) as stage:
            reused = peak(lambda: nonlinear_term(u, stage))
        assert fresh - reused >= stage.half.nbytes == 6 * 32 * 32 * 17 * 16


class TestParts:
    """From n = THREADED_MIN_N a run splits each stage, row and CFL sample into
    parts, by band planes for the spectral passes and by x1 slabs for the
    physical work, on a pool of its own.  Each part's result equals the
    fresh-array oracle's as bits."""

    @staticmethod
    def check_against_oracles(grid, rule, stage, seed):
        """Two inputs through one stage: the RK stage, the row and max|u|
        each equal their oracle as bits, and the inputs stay unchanged."""
        lat = _lattice(grid, rule)
        for c in band_inputs(lat, 2, seed):
            before = c.copy()
            assert same_bits(nonlinear_term(c, stage), nonlinear_term_oracle(before, grid, rule))
            assert repr(solver_module._spectral_diagnostics(c, stage)) == repr(
                diagnostics_row_oracle(before, lat))
            umax = samples_lebesgue_norm(irfft3(padded(lat, before), grid.n), np.inf)
            assert solver_module._max_speed(c, stage) == umax
            assert same_bits(c, before)

    @pytest.mark.parametrize("threaded", [False, True])
    @pytest.mark.parametrize("rule", ["two_thirds", "none"])
    @pytest.mark.parametrize("n", [16, 24, 48, 64])
    def test_parts_give_the_oracle_bits(self, n, rule, threaded, monkeypatch):
        """THREADED_MIN_N lowered, with three cores: three parts on a pool;
        raised: one part, in the calling thread.  n=16 is the size of the
        benchmark's small run, whose one part takes the same passes."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        monkeypatch.setattr(field_module, "THREADED_MIN_N", 4 if threaded else n + 2)
        grid = GridSpec(n)
        lat = _lattice(grid, rule)
        with _stage(lat) as stage:
            assert len(stage.planes) == (3 if threaded else 1)
            self.check_against_oracles(grid, rule, stage, seed=n)

    @pytest.mark.parametrize("n, cores, slabs", [
        (16, {0}, [[(0, 16)]]),
        (32, {0}, [[(0, 32)]]),
        (48, {0, 1}, [[(0, 14), (28, 42)], [(14, 28), (42, 48)]]),
        (64, {0, 1}, [[(0, 8), (16, 24), (32, 40), (48, 56)],
                      [(8, 16), (24, 32), (40, 48), (56, 64)]]),
    ])
    def test_slabs_hold_a_fixed_number_of_points(self, n, cores, slabs, monkeypatch):
        """A slab is SLAB_POINTS // n^2 x1 planes high (8 at n=64), at most
        n // parts: n <= 32 runs one slab on one core, n=48 slabs of 14 planes
        and n=64 slabs of 8, dealt out in turn to two parts."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cores, raising=False)
        b, _, m = _lattice(GridSpec(n), "two_thirds").shape
        _, _, parts = field_module.band_parts(n, b, m)
        assert [[(x.start, x.stop) for x in part] for part in parts] == slabs

    @pytest.mark.parametrize("rule, planes, slabs", [("two_thirds", 3, 4), ("none", 5, 8)])
    def test_parts_are_capped_and_never_empty(self, rule, planes, slabs, monkeypatch):
        """Eight cores at n=8: the parts are capped at the band's m planes (3
        under the 2/3 rule, 5 under "none"), the slabs are lowered so that
        each part gets one, no part's rows are empty, and no transform gets an
        empty array."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
        monkeypatch.setattr(field_module, "THREADED_MIN_N", 4)
        grid = GridSpec(8)
        lat = _lattice(grid, rule)
        sizes = []

        def spy(transform):
            def spied(x, *args, **kwargs):
                sizes.append(np.asarray(x).size)
                return transform(x, *args, **kwargs)
            return spied

        for name in _FFT_NAMES:
            monkeypatch.setattr(scipy.fft, name, spy(getattr(scipy.fft, name)))
        with _stage(lat) as stage:
            assert (len(stage.planes), sum(map(len, stage.slabs))) == (planes, slabs)
            assert [p.indices(lat.shape[2]) for p in stage.planes] == [
                (i, i + 1, 1) for i in range(planes)]
            assert all(x.stop > x.start for part in stage.slabs for x in part)
            assert len(stage.rows) == planes
            assert all(r.stop > r.start for r in stage.rows)
            self.check_against_oracles(grid, rule, stage, seed=8)
        assert sizes and min(sizes) > 0

    @pytest.mark.parametrize("threshold, status", [
        (1e8, "completed"),
        (1e-12, "blowup_suspected"),  # stopped at row 0
        (None, "rejected"),  # a mean: run raises before it makes a pool
        (1e8, "failed in a part"),  # a pool thread's transform raises
        (1e8, "one part"),  # THREADED_MIN_N left as it is: n=16 runs one part
    ])
    def test_no_thread_outlives_a_run(self, threshold, status, monkeypatch):
        """A threaded run (THREADED_MIN_N lowered, two cores) runs one part in
        the calling thread and the other on one more thread, which it joins
        before it returns or raises.  A run of one part starts no thread."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        if status != "one part":
            monkeypatch.setattr(field_module, "THREADED_MIN_N", 4)
        grid = GridSpec(16)
        u0 = random_divergence_free(grid, 31, kmax=5, amplitude=0.3)
        if status == "rejected":
            half = u0.half.copy()
            half[0, 0, 0, 0] = 1.0
            u0 = SpectralVectorField(grid, half)
        cfg = SolverConfig(nu=0.03, dt=1e-3, t_end=3e-3,
                           blowup_threshold=threshold or 1e8)
        seen = []  # the thread count at each inverse slab transform
        irfft = scipy.fft.irfft
        caller = threading.get_ident()

        def counting(*args, **kwargs):
            seen.append(threading.active_count())
            if status == "failed in a part" and threading.get_ident() != caller:
                raise MemoryError("a part failed")
            return irfft(*args, **kwargs)

        monkeypatch.setattr(scipy.fft, "irfft", counting)
        before = threading.active_count()
        if status == "rejected":
            with pytest.raises(ValueError, match="mean-zero"):
                run(u0, cfg)
            assert seen == []
        elif status == "failed in a part":
            with pytest.raises(MemoryError, match="a part failed"):
                run(u0, cfg)
            assert max(seen) == before + 1
        elif status == "one part":
            assert run(u0, cfg).status == "completed"
            assert max(seen) == before
        else:
            assert run(u0, cfg).status == status
            assert max(seen) == before + 1
        assert threading.active_count() == before


class TestBandTransforms:
    """The band passes, composed as the solver composes them, make a pair that
    equals the full pair on the zero-padded band as bits: inverse,
    ``band_inverse_planes`` per plane part, then ``irfft_k3`` per x1 slab, is
    ``irfft3`` of the padded band; forward, ``rfft_x3`` per slab into a
    compact (3, n, n, m) array, then ``band_forward_planes`` per plane part,
    is the band of ``rfft3``.  The parts are ``band_parts``' split into one
    part or into three (two when the band has two planes).  The bands are the
    two rules' (``_lattice``), K = kc and K = n/2, and ``GridSpec.band(K)``
    at K = 1 and n/2 - 1, the last band that leaves the Nyquist row out.
    Their rows are written out here, not taken from ``Band.pad`` or
    ``crop``."""

    #: The cutoff K of each band, written out from n: under the 2/3 rule the
    #: largest integer below n/3, under "none" n/2.
    CUTOFFS = {"two_thirds": lambda n: math.ceil(n / 3) - 1, "none": lambda n: n // 2,
               "K=1": lambda n: 1, "K=n/2-1": lambda n: n // 2 - 1}

    @staticmethod
    def band_rows(n, K):
        """The band's k1 and k2 rows of the half spectrum in FFT order (the
        integers |k| <= K, 0 up, then negative) and its plane count m (the
        planes k3 <= K)."""
        k = np.fft.fftfreq(n, d=1.0 / n)
        return np.flatnonzero(np.abs(k) <= K), int(np.sum(np.fft.rfftfreq(n, d=1.0 / n) <= K))

    @pytest.mark.parametrize("split", [False, True])
    @pytest.mark.parametrize("rule", ["two_thirds", "none", "K=1", "K=n/2-1"])
    @pytest.mark.parametrize("n", [8, 12, 16, 24, 32, 48, 64])
    def test_band_pair_is_the_full_pair_on_the_padded_band(self, n, rule, split, monkeypatch):
        """Two inputs through one work array filled with NaN at k3 < m, so
        that an off-band entry left unset shows; the inputs stay unchanged and
        the work array's planes k3 >= m stay zero."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        monkeypatch.setattr(field_module, "THREADED_MIN_N", 4 if split else n + 2)
        grid, K = GridSpec(n), self.CUTOFFS[rule](n)
        lat = _lattice(grid, rule) if rule in ("two_thirds", "none") else grid.band(K)
        rows, m = self.band_rows(n, K)
        assert lat.shape == (len(rows), len(rows), m)
        _, planes, slabs = field_module.band_parts(n, len(rows), m)
        assert len(planes) == (min(3, m) if split else 1)
        slabs = [x1 for part in slabs for x1 in part]
        band = (slice(None),) + np.ix_(rows, rows, np.arange(m))
        rng = np.random.default_rng(n + (rule == "none"))
        work = np.zeros((6, n, n, n // 2 + 1), dtype=complex)
        work[..., :m] = np.nan
        for _ in range(2):
            padded = np.zeros_like(work)
            padded[band] = rng.standard_normal((6,) + lat.shape) + 1j * rng.standard_normal(
                (6,) + lat.shape)
            block = np.ascontiguousarray(conjugate_planes(padded)[band])
            before = block.copy()
            for p in planes:
                field_module.band_inverse_planes(block[..., p], lat, work[..., p])
            got = np.full((6, n, n, n), np.nan)
            for x1 in slabs:
                got[:, x1] = field_module.irfft_k3(work[:, x1], n)
            assert same_bits(block, before)
            assert same_bits(got, irfft3(padded, n))
            assert not np.any(work[..., m:])

            samples = rng.standard_normal((3, n, n, n))
            before = samples.copy()
            forward = np.full((3, n, n, m), np.nan, dtype=complex)
            for x1 in slabs:
                field_module.rfft_x3(samples[:, x1], forward[:, x1])
            got = np.full((3,) + lat.shape, np.nan, dtype=complex)
            for p in planes:
                field_module.band_forward_planes(forward[..., p], lat, got[..., p])
            assert same_bits(samples, before)
            assert same_bits(got, np.ascontiguousarray(field_module.rfft3(samples)[band]))


class TestTransformBudget:
    """A simulate invocation reads its field with one 3-D transform of 3
    fields (``to_spectral``) and makes every other transform as 1-D lines
    through the band pair.  With b band rows along k1 and k2 and m planes
    k3 < m (b = 2kc + 1 and m = kc + 1, kc = (n - 1) // 3, under the 2/3 rule;
    b = n and m = n/2 + 1 under "none"), one field costs L = b m + n m + n^2
    lines each way:

    * inverse: k1 over the band's k2 rows and planes (b m), k2 over the
      planes (n m), then the real transform along k3 (n^2);
    * forward: x3 (n^2), x1 over the planes (n m), x2 over the band's k1
      rows (b m).

    A stage transforms 6 fields in and 3 out (9 L), a step makes 4 stages
    (36 L), each recorded row the 6 strain components (6 L), and the CFL
    sample before the first step 3 fields (3 L).  At n = 8, L = 15 + 24 + 64
    = 103 under the 2/3 rule and 40 + 40 + 64 = 144 under "none", the
    n^2 + 2 n (n/2 + 1) lines of a full 3-D transform: "none" prunes none."""

    LINES = {"two_thirds": 103, "none": 144}

    def count(self, tmp_path, transform_counts, steps, stride, rule):
        field = str(tmp_path / "u.field")
        assert main(["construct", "random", "--n", "8", "--seed", "3", "--output", field]) == 0
        cfgfile = tmp_path / "sim.cfg"
        cfgfile.write_text(f"nu=0.1\ndt=1e-3\nt_end={steps * 1e-3!r}\nrecord_stride={stride}\n"
                           f"dealias={rule}\n")
        out = str(tmp_path / "run.csv")
        transform_counts.update({"3d": 0, "other": 0})
        assert main(["simulate", "--config", str(cfgfile), "--initial", field,
                     "--output", out]) == 0
        rows = len(open(out).read().strip().splitlines()) - 1
        assert rows == steps // stride + 1 + (steps % stride > 0)
        lines = (36 * steps + 6 * rows + 3) * self.LINES[rule]
        assert transform_counts == {"3d": 3, "other": lines}

    @pytest.mark.parametrize("steps, stride", [(3, 1), (4, 2), (5, 2)])
    def test_simulate_transform_count(self, tmp_path, transform_counts, steps, stride):
        self.count(tmp_path, transform_counts, steps, stride, "two_thirds")

    def test_undealiased_transform_count(self, tmp_path, transform_counts):
        self.count(tmp_path, transform_counts, 3, 2, "none")

    @pytest.mark.parametrize("rule", ["two_thirds", "none"])
    def test_parts_make_the_same_lines(self, tmp_path, transform_counts, rule, monkeypatch):
        """Split into three parts (THREADED_MIN_N lowered, three cores), a run
        makes the lines of one part, counted under the fixture's lock."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        monkeypatch.setattr(field_module, "THREADED_MIN_N", 4)
        self.count(tmp_path, transform_counts, 3, 1, rule)


class TestRun:
    def test_zero_data_stays_zero(self, grid16):
        u0 = from_full_coeffs(grid16, np.zeros((3, 16, 16, 16), dtype=complex))
        series = run(u0, SolverConfig(nu=1.0, dt=1e-3, t_end=0.01))
        assert np.max(series.K) == 0.0
        assert series.status == "completed"

    def test_taylor_green_decay(self, grid32, run_with_final):
        tg = taylor_green_2d(grid32)
        cfg = SolverConfig(nu=0.01, dt=1e-3, t_end=0.05)
        series, final = run_with_final(tg, cfg)
        exact = full_coeffs(tg) * math.exp(-8 * math.pi**2 * 0.01 * 0.05)
        err = np.sqrt(np.sum(np.abs(full_coeffs(final) - exact) ** 2))
        ref = np.sqrt(np.sum(np.abs(exact) ** 2))
        assert err <= 1e-6 * ref
        assert series.summary["max_energy_eq_residual"] <= 1e-6 * series.K[0]

    def test_divergence_and_mean_preserved(self, grid16, run_with_final):
        u0 = random_divergence_free(grid16, 11, kmax=4, amplitude=0.5)
        _, final = run_with_final(u0, SolverConfig(nu=0.2, dt=1e-4, t_end=5e-3))
        assert divergence_defect(final) <= 1e-10
        assert np.max(np.abs(full_coeffs(final)[:, 0, 0, 0])) <= 1e-14

    def test_energy_nonincreasing(self, grid16):
        u0 = random_divergence_free(grid16, 12, kmax=4, amplitude=0.5)
        series = run(u0, SolverConfig(nu=0.5, dt=1e-4, t_end=0.01))
        assert series.summary["max_energy_increase_per_step"] <= 1e-8 * series.K[0]

    def test_two_dimensional_invariance(self, grid32):
        series = run(
            taylor_green_2d(grid32, 2.0),
            SolverConfig(nu=0.05, dt=1e-3, t_end=0.02),
        )
        assert np.max(series.omega_h_hminushalf) <= 1e-12

    def test_reversible_scaling_on_one_mode(self, grid32):
        value = np.array([0.0, 0.7, 0.3])
        u1 = single_mode(grid32, (1, 0, 0), value / 2)
        u2 = single_mode(grid32, (2, 0, 0), value)  # 2 u0(2x)
        nu, dt, t_end = 0.05, 1e-3, 0.08
        s1 = run(u1, SolverConfig(nu=nu, dt=dt, t_end=t_end))
        s2 = run(u2, SolverConfig(nu=2 * nu, dt=dt / 2, t_end=t_end / 2))
        for j in range(len(s2.K)):
            if 4 * j >= len(s1.K):
                break
            assert s2.K[j] == pytest.approx(4 * s1.K[4 * j], rel=1e-12)

    def test_blowup_threshold_stops_early(self, grid16):
        u0 = random_divergence_free(grid16, 13, kmax=4, amplitude=1.0)
        cfg = SolverConfig(nu=0.1, dt=1e-5, t_end=1e-3, blowup_threshold=1e-12)
        series = run(u0, cfg)
        assert series.status == "blowup_suspected"

    def test_nan_detection_aborts(self, grid16):
        u0 = random_divergence_free(grid16, 14, kmax=5, amplitude=100.0)
        cfg = SolverConfig(nu=1e-6, dt=0.5, t_end=10.0)
        series = run(u0, cfg)
        assert series.summary["advective_cfl"] > 0.5
        assert series.status in ("nan_abort", "blowup_suspected")
        assert len(series.t) < 21  # stopped early

    def test_step_past_the_cfl_limit_is_reported_only_in_the_summary(self, grid16):
        """A dt past the advective limit is a summary value, not a warning."""
        u0 = random_divergence_free(grid16, 14, kmax=5, amplitude=100.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            series = run(u0, SolverConfig(nu=0.1, dt=0.01, t_end=0.01))
        assert series.summary["advective_cfl"] > 0.5

    @pytest.mark.parametrize("n", [16, 32])
    def test_first_row_is_the_field_summary(self, n):
        """The solver's half-spectrum sums agree with the full-spectrum
        battery; kmax=4 lies inside the 2/3 mask, so run keeps u0 as is."""
        grid = GridSpec(n)
        u0 = random_divergence_free(grid, 31 + n, kmax=4)
        series = run(u0, SolverConfig(nu=0.1, dt=1e-4, t_end=1e-4))
        s = field_summary(u0)
        assert series.K[0] == pytest.approx(s.K, rel=1e-12)
        assert series.E[0] == pytest.approx(s.E, rel=1e-12)
        assert series.omega_h_hminushalf[0] == pytest.approx(s.omega_h_hminushalf, rel=1e-12)

    def test_rejects_bad_initial_data(self, grid16):
        coeffs = np.zeros((3, 16, 16, 16), dtype=complex)
        coeffs[0, 0, 0, 0] = 1.0
        with pytest.raises(ValueError, match="mean-zero"):
            run(
                from_full_coeffs(grid16, coeffs),
                SolverConfig(nu=1.0, dt=1e-3, t_end=0.01),
            )


@pytest.fixture(scope="module")
def monitored_run(grid32):
    u0 = random_divergence_free(grid32, 2024, kmax=4, amplitude=1.0)
    dt = 2e-6
    cfg = SolverConfig(nu=0.5, dt=dt, t_end=60 * dt)
    return run(u0, cfg), u0, cfg


class TestMonitors:
    def test_strain_identity_residual_small(self, monitored_run):
        series, _, _ = monitored_run
        assert series.summary["max_strain_identity_residual"] <= 1e-5

    def test_strain_identity_second_order(self, monitored_run):
        series, u0, cfg = monitored_run
        half = run(
            u0,
            SolverConfig(nu=cfg.nu, dt=cfg.dt / 2, t_end=30 * cfg.dt),
        )
        ratio = (
            series.summary["max_strain_identity_residual"]
            / half.summary["max_strain_identity_residual"]
        )
        assert 2.5 < ratio < 6.0

    def test_taylor_green_identity_is_pure_dissipation(self, grid32):
        series = run(
            taylor_green_2d(grid32),
            SolverConfig(nu=0.01, dt=1e-3, t_end=0.02),
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
            SolverConfig(nu=0.01, dt=1e-3, t_end=0.02),
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
        cfg = SolverConfig(nu=0.5, dt=1e-5, t_end=5e-4)
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
    cfg = SolverConfig(nu=nu, dt=dt, t_end=(m - 1) * dt)
    series = _assemble_series(rows, cfg, "completed", {})
    np.testing.assert_allclose(
        series.energy_eq_residual, abs(2 * nu * e - slope) * t, rtol=1e-10, atol=1e-15
    )
    rate = 2 * growth - (2 * e) ** 2 / (constants().r2 * nu**3)
    assert rate < 0  # the largest log ratio is on the first step
    assert series.summary["gronwall_max_log_ratio"] == pytest.approx(rate * t[1], rel=1e-9)
    assert series.summary["gronwall_envelope_ok"]


def monitor_columns_by_row(rows, cfg):
    """Strain residual, enstrophy slack and horizontal flag computed one row
    at a time with Python scalars: the reference for ``_assemble_series``."""
    m = len(rows)
    col = {key: np.array([row[key] for row in rows]) for key in rows[0]}
    t, E = col["t"], col["E"]
    dEdt = np.full(m, np.nan)
    if m >= 3:
        dEdt[1:-1] = (E[2:] - E[:-2]) / (t[2:] - t[:-2])
    strain_res, slack, flag = np.full(m, np.nan), np.full(m, np.nan), np.full(m, np.nan)
    for i in range(1, m - 1):
        inst = -2 * cfg.nu * col["strain_h1_sq"][i] - 4 * col["det_S_integral"][i]
        scale = max(abs(inst), abs(dEdt[i]), 1e-30)
        strain_res[i] = abs(dEdt[i] - inst) / scale
        cubic = E[i] ** 3 / (3456 * math.pi**4 * cfg.nu**3)
        cor22 = (
            -2 * cfg.nu * col["strain_h1_sq"][i]
            + (2.0 / 9.0) * math.sqrt(6.0) * col["strain_l3"][i] ** 3
        )
        slack[i] = min(cubic - dEdt[i], cor22 - dEdt[i])
        small = col["omega_h_hminushalf"][i] < constants().r1 * cfg.nu
        decay_ok = dEdt[i] <= DECAY_SLACK_TOL * max(abs(dEdt[i]), E[i], 1.0)
        flag[i] = float((not small) or decay_ok)
    return strain_res, slack, flag


@pytest.mark.parametrize("m", [1, 2, 3, 500])
def test_assemble_series_columns_match_the_row_loop(m):
    """Seeded rows, half of them with omega_h below R1 nu and E rising and
    falling, so both flag branches and both slack terms are taken."""
    rng = np.random.default_rng(m)
    nu = 0.01  # E^3 / (3456 pi^4 nu^3) and the strain terms are all O(dE/dt)
    t = np.cumsum(rng.uniform(0.5, 1.5, m))
    E = rng.lognormal(0.0, 1.0, m)
    omega_h = constants().r1 * nu * rng.uniform(0.5, 1.5, m)
    rows = [
        {"t": t[i], "K": 1.0 / (1 + t[i]), "E": E[i], "strain_h1_sq": rng.lognormal(),
         "det_S_integral": rng.normal(), "omega_h_hminushalf": omega_h[i],
         "strain_l3": rng.lognormal(0.0, 2.0)}
        for i in range(m)
    ]
    cfg = SolverConfig(nu=nu, dt=1.0, t_end=1.0)
    series = _assemble_series(rows, cfg, "completed", {})
    expected = monitor_columns_by_row(rows, cfg)
    got = (series.strain_identity_residual, series.enstrophy_ineq_slack,
           series.horizontal_decay_flag)
    for column, reference in zip(got, expected):
        assert same_bits(column, reference)
    if m == 500:
        assert 0 < np.nansum(series.horizontal_decay_flag) < m - 2
        assert np.any(omega_h[1:-1] < constants().r1 * nu)


class TestConfigValidation:
    def test_t_end_must_be_a_multiple_of_dt(self):
        with pytest.raises(ValueError, match="integer multiple of dt"):
            SolverConfig(nu=1.0, dt=3e-3, t_end=0.01)
        with pytest.raises(ValueError, match="integer multiple of dt"):
            SolverConfig(nu=1.0, dt=3e-3, t_end=1e-3)
        assert SolverConfig(nu=1.0, dt=1e-3, t_end=0.2).n_steps == 200

    def test_bad_viscosity(self):
        with pytest.raises(ValueError, match="positive"):
            SolverConfig(nu=0.0, dt=1e-3, t_end=1.0)

    def test_bad_dealias_rule(self):
        with pytest.raises(ValueError, match="dealias"):
            SolverConfig(nu=1.0, dt=1e-3, t_end=1.0, dealias="half")

