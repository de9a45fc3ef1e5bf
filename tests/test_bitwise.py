"""The field layer's in-place kernels, chunked draws and vectorized families,
and the criteria layer's one almost-2D core, growth coefficient and Iftimie
norms, against the expressions they replaced (conftest's ``*_oracle``,
``p2d_split`` and ``sobolev_norm``), and the solver's trapezoid sums against
scipy's, as bits.

Each kernel runs on the half lattice and, as the solver calls it, on band
k1 row slices written into a slice of a larger array; every input is
compared with a copy taken before the call."""

import dataclasses
import itertools
import math
import struct

import numpy as np
import pytest

from almost2d import GridSpec, PhysicalVectorField, SpectralVectorField
from almost2d import leray_project, to_spectral
from almost2d.criteria import envelopes, gamma2d_from_norms, gamma2d_lp_from_norms, iftimie_check
from almost2d.families import (
    annulus_analog, large_almost_2d, random_divergence_free, taylor_green_2d, un_family,
)
from almost2d.field import curl_coeffs, k_dot, project_coeffs, strain_coeffs
from almost2d.fieldio import read_field, write_field
from almost2d.norms import samples_lebesgue_norm
from almost2d.solver import _cumulative_trapezoid, _lattice
from conftest import (
    annulus_analog_oracle, curl_coeffs_oracle, envelopes_oracle, gamma2d_from_norms_oracle,
    gamma2d_lp_from_norms_oracle, k_dot_oracle, leray_project_oracle, project_coeffs_oracle,
    p2d_split, random_divergence_free_oracle, random_physical, samples_lebesgue_norm_oracle,
    sobolev_norm, strain_coeffs_oracle,
)

SIZES = (8, 16, 24, 32, 64)


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def generic_half(grid, seed):
    """Half-spectrum coefficients of a real field that is neither mean-zero
    nor divergence-free."""
    return to_spectral(PhysicalVectorField(grid, random_physical(grid, seed))).half


def fields(n):
    """A generic half spectrum and a band-filling divergence-free one."""
    grid = GridSpec(n)
    return grid, (generic_half(grid, n), random_divergence_free(grid, n + 1, kmax=n // 2 - 1).half)


#: (kernel, oracle, the slots of a 6-field band array its ``out`` takes)
KERNELS = (
    (k_dot, k_dot_oracle, None),
    (curl_coeffs, curl_coeffs_oracle, slice(3, 6)),
    (strain_coeffs, strain_coeffs_oracle, slice(0, 6)),
)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("kernel, oracle, slots", KERNELS)
def test_kernel_on_the_half_lattice(n, kernel, oracle, slots):
    grid, halves = fields(n)
    for half in halves:
        want = oracle(half, grid.k_deriv)
        assert same_bits(kernel(half, grid.k_deriv), want)
        if slots is not None:
            out = np.full(want.shape, np.nan + 0j)
            assert kernel(half, grid.k_deriv, out=out) is out
            assert same_bits(out, want)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("rule", ("two_thirds", "none"))
@pytest.mark.parametrize("kernel, oracle, slots", KERNELS)
def test_kernel_on_band_rows_into_a_slice(n, rule, kernel, oracle, slots):
    """A band split into k1 row slices, each written into its rows of a
    6-field array, as the solver's fill, row and projection call the kernels."""
    grid, halves = fields(n)
    lat = _lattice(grid, rule)
    b = lat.shape[0]
    for half in halves:
        c = lat.crop(half)
        before = c.copy()
        band = np.full((6,) + lat.shape, np.nan + 0j)
        for rows in (slice(0, b // 3), slice(b // 3, b)):
            k = lat.k_rows(rows)
            want = oracle(c[:, rows], k)
            assert same_bits(kernel(c[:, rows], k), want)
            if slots is not None:
                kernel(c[:, rows], k, out=band[slots, rows])
                assert same_bits(band[slots, rows], want)
        assert same_bits(c, before)


@pytest.mark.parametrize("n", SIZES)
def test_projection_kernel_on_the_half_lattice(n):
    """``project_coeffs``, into a new array or a given one, equals the
    fresh-temporary form, and on the half lattice ``leray_project_oracle``'s,
    whose gradient is zeroed at k = 0: there k.c is 0 and c passes through."""
    grid, halves = fields(n)
    for half in halves:
        before = half.copy()
        want = project_coeffs_oracle(before, grid.k_deriv, grid.k_deriv_sq_safe)
        assert same_bits(project_coeffs(half, grid.k_deriv, grid.k_deriv_sq_safe), want)
        out = np.full(half.shape, np.nan + 0j)
        assert project_coeffs(half, grid.k_deriv, grid.k_deriv_sq_safe, out) is out
        assert same_bits(out, want)
        assert same_bits(out, leray_project_oracle(before, grid)[0])
        assert same_bits(half, before)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("rule", ("two_thirds", "none"))
def test_projection_kernel_on_band_rows_into_a_slice(n, rule):
    """As the solver projects: from the first three fields of a 6-field band
    array, k1 row slice by slice, into the rows of another band array, on the
    band's divisor, which is the grid's cropped to the band."""
    grid, halves = fields(n)
    lat = _lattice(grid, rule)
    b = lat.shape[0]
    assert same_bits(lat.k_deriv_sq_safe, lat.crop(grid.k_deriv_sq_safe, np.empty(lat.shape)))
    for half in halves:
        band = np.full((6,) + lat.shape, np.nan + 0j)
        lat.crop(half, out=band[:3])
        before = band.copy()
        out = np.full((3,) + lat.shape, np.nan + 0j)
        for rows in (slice(0, b // 3), slice(b // 3, b)):
            k, k_sq_safe = lat.k_rows(rows), lat.k_deriv_sq_safe[rows]
            project_coeffs(band[:3, rows], k, k_sq_safe, out[:, rows])
            assert same_bits(out[:, rows], project_coeffs_oracle(band[:3, rows], k, k_sq_safe))
        assert same_bits(band, before)


@pytest.mark.parametrize("n", SIZES)
def test_leray_projection(n):
    grid, halves = fields(n)
    for half in halves:
        field = SpectralVectorField(grid, half.copy())
        before = field.half.copy()
        u_df = leray_project(field)
        want_df, _ = leray_project_oracle(before, grid)
        assert same_bits(u_df.half, want_df)
        assert same_bits(field.half, before)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("p", (1.0, 1.2, 1.5, 2.0, 3.0, 6.0, np.inf))
def test_samples_lebesgue_norm(n, p):
    samples = random_physical(GridSpec(n), n)
    before = samples.copy()
    for part in (samples, samples[:2], samples[2:]):
        assert same_bits(samples_lebesgue_norm(part, p), samples_lebesgue_norm_oracle(part, p))
    assert same_bits(samples, before)


@pytest.mark.parametrize("n", SIZES)
def test_chunked_draws_are_the_whole_draws(n):
    grid = GridSpec(n)
    for seed, kmax, amplitude in ((0, None, 1.0), (n, 1, 2.5), (n + 3, n // 2 - 1, 0.5)):
        u = random_divergence_free(grid, seed, kmax=kmax, amplitude=amplitude)
        assert same_bits(u.half, random_divergence_free_oracle(grid, seed, kmax, amplitude))


@pytest.mark.parametrize("index, n", ((3, 16), (5, 24), (12, 32), (12, 64), (100, 64)))
def test_annulus_modes_are_the_looped_modes(index, n):
    grid = GridSpec(n)
    assert same_bits(annulus_analog(index, grid).half, annulus_analog_oracle(index, grid))


@pytest.mark.parametrize("rows", (1, 2, 3, 17, 1000))
def test_trapezoid_sums_are_scipys(rows):
    """The solver's running trapezoid sums against the scipy function they
    replaced, with and without the leading zero."""
    from scipy.integrate import cumulative_trapezoid

    rng = np.random.default_rng(rows)
    t = np.cumsum(rng.uniform(0.001, 0.01, rows))
    y = rng.standard_normal(rows) * 10.0 ** rng.integers(-3, 3, rows)
    running = _cumulative_trapezoid(y, t)
    assert same_bits(running, cumulative_trapezoid(y, t))
    assert same_bits(np.concatenate(([0.0], running)), cumulative_trapezoid(y, t, initial=0.0))


#: Viscosities that are rejected, whose powers underflow to zero or overflow,
#: whose exponents overflow or underflow exp, and a geometric run between.
VISCOSITIES = (-1.0, 0.0, math.nan, math.inf, 1e-110, 1e-80, 1e60, 1e80,
               *np.geomspace(1e-4, 1e4, 7).tolist())
#: Norms, energies and enstrophies from zero to products that overflow.
SCALARS = (0.0, 1e-300, 0.5, 37.5, 1e150, 1e200)


def _bits(x):
    """x with every float as its 8 bytes, dicts as (key, value) pairs in order."""
    if isinstance(x, dict):
        return tuple((key, _bits(value)) for key, value in x.items())
    return struct.pack("<d", x) if isinstance(x, float) else x


def outcome(fn, *args):
    """The bits of fn(*args) as a dict, or the type and message it raised."""
    try:
        return _bits(dataclasses.asdict(fn(*args)))
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("formula, oracle, arity, nu_at", (
    (gamma2d_from_norms, gamma2d_from_norms_oracle, 3, 3),
    (gamma2d_lp_from_norms, gamma2d_lp_from_norms_oracle, 3, 3),
    (envelopes, envelopes_oracle, 3, 2),
))
def test_criteria_formulas_are_the_written_out_forms(formula, oracle, arity, nu_at):
    """Each report (its key order included), bound and raised error equals the
    oracle's for every viscosity, argument ``nu_at``, and every choice of the
    other arguments (envelopes' last one is the time)."""
    for nu in VISCOSITIES:
        for values in itertools.product(SCALARS, repeat=arity):
            args = (*values[:nu_at], nu, *values[nu_at:])
            assert outcome(formula, *args) == outcome(oracle, *args), (formula.__name__, args)


def _read_back(u, path):
    write_field(path, u)
    return read_field(path)


#: name: the field, made from a scratch file path that only "un-file" uses.
IFTIMIE_FIELDS = {
    **{f"random{n}-seed{seed}": (lambda _, n=n, seed=seed: random_divergence_free(GridSpec(n), seed))
       for n in (16, 24, 32, 64) for seed in (0, 7, 11)},
    "taylor-green": lambda _: taylor_green_2d(GridSpec(32)),
    "un": lambda _: un_family(5, GridSpec(24)),
    "un-file": lambda path: _read_back(un_family(5, GridSpec(24)), path),
    **{f"large-almost-2d-{index}": (lambda _, index=index: large_almost_2d(index, GridSpec(32)))
       for index in (1, 2, 3)},
    "annulus": lambda _: annulus_analog(12, GridSpec(32)),
}


@pytest.mark.parametrize("name", IFTIMIE_FIELDS)
def test_iftimie_norms_are_the_split_forms(name, tmp_path):
    """iftimie_check's plane blocks of u give the Sobolev norms of the two
    whole fields that p2d_split forms, bit for bit: bincount adds the same
    nonzero terms in the same order, and the split's zeros add nothing."""
    u = IFTIMIE_FIELDS[name](str(tmp_path / "u.field"))
    inputs = iftimie_check(u, 0.1, 2.0).inputs
    two_d, perp = p2d_split(u)
    assert same_bits(inputs["perp_hhalf"], sobolev_norm(perp, 0.5))
    assert same_bits(inputs["two_d_l2"], sobolev_norm(two_d, 0))
