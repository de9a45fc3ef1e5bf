"""Spans and transform counts for the traced benchmark run.

Everything here lives in the benchmark: the program is traced by wrapping
its public functions from outside, never by editing it.

* FFT wrappers replace the n-d, 2-d and 1-d transforms of ``numpy.fft`` and
  ``scipy.fft``.  They must be installed before ``almost2d`` is imported, so
  that a module doing ``from scipy.fft import rfftn`` binds the wrapper.  A
  transform called from inside another wrapped transform is counted once.
* Span wrappers replace named ``almost2d`` functions.  Modules import names
  from each other (``from .field import advection`` in ``solver``), so every
  ``almost2d.*`` module attribute bound to the original function object is
  rebound to the wrapper.  A name the program no longer defines is skipped
  and its metrics read 0.
* Spans (name, start, end, parent) and counts stay in memory while the run
  is traced; ``layer_metrics`` reduces them and ``dump`` writes them out.
  Self time is a span's duration minus the time its child spans cover.

Wrappers cost one attribute test per call while the tracer is inactive.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import os
import sys
import time
from collections import defaultdict

FFT_FUNCTIONS = {
    # name: default transformed axes when the caller passes none
    "fft": (-1,), "ifft": (-1,), "rfft": (-1,), "irfft": (-1,),
    "hfft": (-1,), "ihfft": (-1,),
    "fft2": (-2, -1), "ifft2": (-2, -1), "rfft2": (-2, -1), "irfft2": (-2, -1),
    "fftn": None, "ifftn": None, "rfftn": None, "irfftn": None,
}

FIELD_FUNCTIONS = ("advection", "leray_project", "strain", "curl", "to_physical",
                   "to_spectral", "heat_semigroup", "biot_savart")
NORMS_FUNCTIONS = ("lebesgue_norm", "sobolev_norm", "besov_norm", "horizontal_parts")
CRITERIA_CHECKS = ("small_data_check", "gamma2d_check", "gamma2d_lp_check", "iftimie_check")
FAMILIES_FUNCTIONS = ("random_divergence_free", "taylor_green_2d", "un_family",
                      "annulus_analog", "rescaled_vorticity")
WHOLESPACE_FUNCTIONS = ("lambda_n_report", "besov_embedding_constant",
                        "cone_embedding_constant", "heat_kernel_constants")
CLI_VERBS = ("constants", "norms", "check", "construct", "simulate", "sweep", "wholespace")

#: Every wrapped almost2d function, as "<module>.<function>".
SPAN_TARGETS = (
    ("grid.hermitian_symmetrize",)
    + tuple(f"field.{f}" for f in FIELD_FUNCTIONS)
    + ("solver.run", "solver.nonlinear_term")
    + tuple(f"norms.{f}" for f in NORMS_FUNCTIONS)
    + ("criteria.constants",) + tuple(f"criteria.{f}" for f in CRITERIA_CHECKS)
    + tuple(f"families.{f}" for f in FAMILIES_FUNCTIONS)
    + tuple(f"wholespace.{f}" for f in WHOLESPACE_FUNCTIONS)
    + ("fieldio.read_field", "fieldio.write_field")
)

# Span record layout: [name, start, end, parent index, 3-D transforms].
_NAME, _START, _END, _PARENT, _T3D = range(5)


class Tracer:
    """In-memory span and count recorder, switched on only for traced phases."""

    def __init__(self):
        self.active = False
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._in_fft = False

    def open(self, name: str) -> list:
        span = [name, time.perf_counter(), 0.0,
                self._stack[-1] if self._stack else -1, 0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: list) -> None:
        span[_END] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself; nothing while inactive."""
        if not self.active:
            yield
            return
        span = self.open(name)
        try:
            yield
        finally:
            self.close(span)

    # -- wrappers ---------------------------------------------------------

    def install_fft_wrappers(self) -> None:
        import numpy.fft
        import scipy.fft

        for module in (numpy.fft, scipy.fft):
            for name, default_axes in FFT_FUNCTIONS.items():
                fn = getattr(module, name, None)
                if fn is not None:
                    setattr(module, name, self._fft_wrapper(fn, default_axes))

    def _fft_wrapper(self, fn, default_axes):
        import numpy as np

        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active or tracer._in_fft:
                return fn(*args, **kwargs)
            tracer._in_fft = True
            span = tracer.open("fft")
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(span)
                tracer._in_fft = False
            a = np.asarray(args[0] if args else kwargs.get("a", kwargs.get("x")))
            axes = _transform_axes(a.ndim, args, kwargs, default_axes)
            batch = a.size // max(1, math.prod(a.shape[ax] for ax in axes))
            c = tracer.counts
            c["fft.calls"] += 1
            if len(axes) == 3:
                c["fft.transforms_3d"] += batch
                span[_T3D] = batch
            else:
                c["fft.transforms_other"] += batch
            c["fft.points"] += max(a.size, out.size)
            c["fft.bytes_computed"] += a.nbytes + out.nbytes
            return out

        return wrapper

    def install_span_wrappers(self) -> None:
        """Wrap SPAN_TARGETS; call after almost2d and its modules are imported."""
        import almost2d  # noqa: F401  (binds the package's re-exported names)

        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "almost2d" or name.startswith("almost2d."))]
        after = {
            "fieldio.read_field": _count_read_bytes,
            "fieldio.write_field": _count_written_bytes,
            "solver.run": _count_steps,
        }
        for target in SPAN_TARGETS:
            module_name, fn_name = target.rsplit(".", 1)
            fn = getattr(sys.modules.get(f"almost2d.{module_name}"), fn_name, None)
            if not callable(fn):
                continue
            wrapper = self._span_wrapper(target, fn, after.get(target))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, attr, wrapper)

    def _span_wrapper(self, name, fn, after):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if after is not None:
                after(tracer.counts, args, kwargs, result)
            return result

        return wrapper

    # -- reduction ----------------------------------------------------------

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as {name: (value, unit)} from the recorded spans."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for s in spans:
            if s[_PARENT] >= 0:
                child_time[s[_PARENT]] += s[_END] - s[_START]
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        total_s: dict[str, float] = defaultdict(float)
        fft_in_run = 0
        for i, s in enumerate(spans):
            duration = s[_END] - s[_START]
            calls[s[_NAME]] += 1
            self_s[s[_NAME]] += duration - child_time[i]
            total_s[s[_NAME]] += duration
            if s[_T3D] and self._has_ancestor(i, "solver.run"):
                fft_in_run += s[_T3D]

        c = self.counts
        steps = c["solver.steps"]
        m: dict[str, tuple[float, str]] = {}
        for key in ("fft.calls", "fft.transforms_3d", "fft.transforms_other", "fft.points"):
            m[key] = (c[key], "count")
        m["fft.bytes_computed"] = (c["fft.bytes_computed"], "B")
        m["fft.self_s"] = (self_s["fft"], "s")
        m["solver.fft_per_step"] = (fft_in_run / steps if steps else 0.0, "count/step")
        for target in SPAN_TARGETS:
            m[f"{target}.calls"] = (calls[target], "count")
            m[f"{target}.self_s"] = (self_s[target], "s")
        m["solver.steps"] = (steps, "count")
        m["solver.rows"] = (c["solver.rows"], "count")
        m["solver.nonlinear_per_step"] = (
            calls["solver.nonlinear_term"] / steps if steps else 0.0, "count/step")
        m["fieldio.read_field.bytes"] = (c["fieldio.read_field.bytes"], "B")
        m["fieldio.write_field.bytes"] = (c["fieldio.write_field.bytes"], "B")
        cli_self = 0.0
        for verb in CLI_VERBS:
            m[f"cli.{verb}.s"] = (total_s[f"cli.{verb}"], "s")
            cli_self += self_s[f"cli.{verb}"]
        m["cli.self_s"] = (cli_self, "s")
        return m

    def _has_ancestor(self, index: int, name: str) -> bool:
        parent = self.spans[index][_PARENT]
        while parent >= 0:
            if self.spans[parent][_NAME] == name:
                return True
            parent = self.spans[parent][_PARENT]
        return False

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "transforms_3d"],
                       "spans": self.spans, "counts": dict(self.counts)}, fh)


def _transform_axes(ndim, args, kwargs, default_axes) -> tuple[int, ...]:
    if default_axes is not None and len(default_axes) == 1:  # 1-d: (a, n, axis)
        axis = kwargs.get("axis", args[2] if len(args) > 2 else -1)
        return (axis % ndim,)
    axes = kwargs.get("axes", args[2] if len(args) > 2 else None)
    if axes is None:
        shape = kwargs.get("s", args[1] if len(args) > 1 else None)
        if default_axes is not None:
            axes = default_axes
        elif shape is not None:
            axes = range(-len(shape), 0)
        else:
            axes = range(ndim)
    return tuple(ax % ndim for ax in axes)


def _count_read_bytes(counts, args, kwargs, result) -> None:
    path = args[0] if args else kwargs.get("path")
    counts["fieldio.read_field.bytes"] += os.path.getsize(path)


def _count_written_bytes(counts, args, kwargs, result) -> None:
    path = args[0] if args else kwargs.get("path")
    counts["fieldio.write_field.bytes"] += os.path.getsize(path)


def _count_steps(counts, args, kwargs, result) -> None:
    t = getattr(result, "t", None)
    cfg = args[1] if len(args) > 1 else kwargs.get("cfg")
    if t is None or len(t) == 0 or cfg is None:
        return
    counts["solver.steps"] += round(float(t[-1]) / cfg.dt)
    counts["solver.rows"] += len(t)
