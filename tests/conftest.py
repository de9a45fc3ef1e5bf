import math

import numpy as np
import pytest
import scipy.fft

from almost2d import GridSpec
from almost2d.families import random_divergence_free
from almost2d.field import HERMITIAN_TOL
from almost2d.grid import mirror_conjugate


@pytest.fixture(scope="session")
def grid16():
    return GridSpec(16)


@pytest.fixture(scope="session")
def grid24():
    return GridSpec(24)


@pytest.fixture(scope="session")
def grid32():
    return GridSpec(32)


def seeded_fields(grid, count, kmax=5, amplitude=1.0, base_seed=7000):
    """Deterministic batch of divergence-free mean-zero test fields."""
    return [
        random_divergence_free(grid, base_seed + i, kmax=kmax, amplitude=amplitude)
        for i in range(count)
    ]


def random_physical(grid, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((3, grid.n, grid.n, grid.n))


def hermitian_defect(coeffs):
    """Max |c(k) - conj(c(-k))|, zero for coefficients of a real field."""
    return float(np.max(np.abs(coeffs - mirror_conjugate(coeffs))))


def half_spectrum(coeffs):
    """The k3 >= 0 half (``numpy.fft.rfftn`` layout) of a coefficient array."""
    n = coeffs.shape[-1]
    return coeffs[..., : n // 2 + 1].copy()


def scalar_to_physical(grid, coeffs):
    """Inverse transform of a scalar coefficient array, real part returned."""
    n = grid.n
    samples = np.fft.ifftn(coeffs) * n**3
    scale = max(float(np.max(np.abs(samples.real))), 1e-300)
    if np.max(np.abs(samples.imag)) > HERMITIAN_TOL * max(scale, 1.0):
        raise ValueError("scalar field has a non-real inverse transform")
    return samples.real


_FFT_NAMES = ("fft", "ifft", "rfft", "irfft", "fft2", "ifft2", "rfft2", "irfft2",
              "fftn", "ifftn", "rfftn", "irfftn")


@pytest.fixture
def transform_counts(monkeypatch):
    """Counts of 3-D and other transforms made through numpy.fft and scipy.fft."""
    counts = {"3d": 0, "other": 0}

    def counting(fn, default_ndim):
        def wrapper(a, *args, **kwargs):
            arr = np.asarray(a)
            axes = kwargs.get("axes", args[1] if len(args) > 1 else None)
            if axes is None:
                axes = range(-(default_ndim or arr.ndim), 0)
            axes = tuple(axes) if np.iterable(axes) else (axes,)
            batch = arr.size // math.prod(arr.shape[ax] for ax in axes)
            counts["3d" if len(axes) == 3 else "other"] += batch
            return fn(a, *args, **kwargs)

        return wrapper

    for module in (np.fft, scipy.fft):
        for name in _FFT_NAMES:
            default_ndim = {"2": 2, "n": None}.get(name[-1], 1)
            monkeypatch.setattr(module, name, counting(getattr(module, name), default_ndim))
    return counts
