"""The benchmark's workloads: seeded inputs, one timed operation, output checks.

An operation is a list of CLI invocations (``almost2d.cli.main(argv)``):
one ``simulate`` for the DNS workloads, a fixed batch of every other verb
for ``analysis``.  Each invocation is checked on its own, so a failure
counts against exactly one invocation.

Inputs depend on the run seed only through ``field_seed = seed % REFERENCE_SEEDS``:
outputs are compared against references recorded for those field seeds
(``reference/<workload>.json``, written by ``record_reference.py``).
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, replace
from typing import Callable

#: Field seeds with a recorded reference; a run seed selects one by modulus.
REFERENCE_SEEDS = 16

#: Relative tolerance of every reference comparison.  Outputs are written
#: with 13 significant digits (%.12e), so 5e-13 is the floor.  Computing the
#: nonlinear term in rotational form (omega x u, other transforms and sums)
#: moves K and E by 7e-16 at full precision and not at all in the CSV; the
#: same term scaled by 1.001 moves them by 9e-7 (dns-n64) and 3e-5 (dns-n16).
#: 1e-9 sits between the two with decades to spare on either side.
RTOL = 1e-9
#: Absolute floor for reference values that are zero up to roundoff.
ATOL = 1e-13
#: Closed-form oracles are lattice identities, exact up to roundoff.
ORACLE_RTOL = 1e-10
#: Quadrature oracles, at the acceptance tolerance of the program's tests.
QUADRATURE_RTOL = 1e-8

CSV_COLUMNS = ("t", "K", "E")

Check = Callable[[object], list]


@dataclass
class Invocation:
    key: str                 # name of the output in the reference
    argv: list
    output: str              # file the invocation writes and the checks read
    seeded: bool = False     # output depends on the field seed
    oracle: Check | None = None


# -- DNS ---------------------------------------------------------------------


@dataclass(frozen=True)
class Dns:
    """Repeated ``simulate`` of one seeded random field, scaled to max|u| = 1."""

    name: str
    n: int
    kmax: int
    nu: float
    dt: float
    steps: int
    record_stride: int
    warmup_steps: int
    nominal_op_s: float      # seed cost of one operation; sizes a traced run

    @property
    def rows(self) -> int:
        return self.steps // self.record_stride + 1 + (self.steps % self.record_stride > 0)

    @property
    def t_end(self) -> float:
        return self.steps * self.dt

    def setup(self, work: str, field_seed: int) -> None:
        _write_random_field(os.path.join(work, "u0.field"), self.n, self.kmax, field_seed)
        self._write_config(os.path.join(work, "run.cfg"), self.steps)
        self._write_config(os.path.join(work, "warmup.cfg"), self.warmup_steps)

    def _write_config(self, path: str, steps: int) -> None:
        with open(path, "w") as fh:
            fh.write(f"nu={self.nu!r}\ndt={self.dt!r}\nt_end={steps * self.dt!r}\n"
                     f"record_stride={self.record_stride}\n")

    def warmup(self, work: str, field_seed: int) -> list[Invocation]:
        return [self._simulate(work, "warmup.cfg", "warmup.csv")]

    def operation(self, work: str, field_seed: int) -> list[Invocation]:
        return [self._simulate(work, "run.cfg", "run.csv")]

    def _simulate(self, work, cfg, out) -> Invocation:
        out = os.path.join(work, out)
        argv = ["simulate", "--config", os.path.join(work, cfg),
                "--initial", os.path.join(work, "u0.field"), "--output", out]
        return Invocation("simulate", argv, out, seeded=True, oracle=self._oracle)

    def extract(self, inv: Invocation) -> dict:
        """The reference part of a simulate output: K and E on every row."""
        rows = _read_csv(inv.output)
        return {"K": [r["K"] for r in rows], "E": [r["E"] for r in rows]}

    def _oracle(self, inv: Invocation) -> list[str]:
        errors = []
        with open(inv.output + ".summary.json") as fh:
            summary = json.load(fh)
        if summary.get("status") != "completed":
            errors.append(f"status {summary.get('status')!r}")
        rows = _read_csv(inv.output)
        if len(rows) != self.rows or summary.get("steps_recorded") != self.rows:
            errors.append(f"{len(rows)} rows, expected {self.rows}")
            return errors
        if abs(rows[-1]["t"] - self.t_end) > 1e-12 * self.t_end:
            errors.append(f"last t {rows[-1]['t']!r} != t_end {self.t_end!r}")
        K = [r["K"] for r in rows]
        if any(b > a for a, b in zip(K, K[1:])):
            errors.append("K increases along the trajectory")
        return errors


def _write_random_field(path: str, n: int, kmax: int, seed: int) -> None:
    """``random_divergence_free`` sampled on the grid and scaled to max|u| = 1,
    written in the documented field-file format."""
    import numpy as np
    from almost2d import GridSpec, random_divergence_free, to_physical

    samples = to_physical(random_divergence_free(GridSpec(n), seed, kmax=kmax)).samples
    samples = samples / float(np.max(np.sqrt(np.sum(samples**2, axis=0))))
    header = (f"version=1\nn={n}\ncomponents=3\nstorage=physical\n"
              "precision=f64\norder=x3-fastest\n\n")
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(np.ascontiguousarray(samples, dtype="<f8").tobytes())


def _read_csv(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        return [{k: float(row[k]) for k in CSV_COLUMNS} for row in csv.DictReader(fh)]


# -- analysis ----------------------------------------------------------------


@dataclass(frozen=True)
class Analysis:
    """A fixed batch of every CLI verb except ``simulate``."""

    name: str
    random_n: tuple          # grids of the two seeded random fields
    tg_n: int
    amplitude: float         # Taylor-Green amplitude A
    un_n: int
    un_index: int
    annulus_n: int
    annulus_index: int
    nu: float                # viscosity of every ``check``
    iftimie_c: float
    sweep_grid: int
    sweep_annulus: tuple
    sweep_un: tuple
    sweep_m: tuple
    lambda_n: tuple
    embedding_p: tuple
    eps: float
    nodes: int
    nominal_op_s: float      # seed cost of one operation; sizes a traced run

    def setup(self, work: str, field_seed: int) -> None:
        pass

    def warmup(self, work: str, field_seed: int) -> list[Invocation]:
        return self.operation(work, field_seed)

    def extract(self, inv: Invocation):
        with open(inv.output) as fh:
            return json.load(fh)

    def operation(self, work: str, field_seed: int) -> list[Invocation]:
        def path(name):
            return os.path.join(work, name)

        a = self.amplitude
        fields = {
            f"random{self.random_n[0]}": (["random", "--n", str(self.random_n[0]),
                                            "--seed", str(field_seed)], True, None),
            f"random{self.random_n[1]}": (["random", "--n", str(self.random_n[1]),
                                            "--seed", str(field_seed)], True, None),
            "taylor-green": (["taylor-green", "--n", str(self.tg_n), "--amplitude", repr(a)],
                             False, _taylor_green_oracle(a)),
            "un": (["un", "--n", str(self.un_n), "--index", str(self.un_index)],
                   False, _un_oracle(self.un_index)),
            "annulus-analog": (["annulus-analog", "--n", str(self.annulus_n),
                                "--index", str(self.annulus_index)], False, None),
        }
        batch = []
        for name, (args, seeded, closed_form) in fields.items():
            f = path(f"{name}.field")
            batch.append(Invocation(
                f"construct.{name}", ["construct", *args, "--output", f], f + ".norms.json",
                seeded, _sidecar_oracle(closed_form, f, _field_n(args))))
        for name, (_, seeded, closed_form) in fields.items():
            out = path(f"{name}.norms.out.json")
            batch.append(Invocation(
                f"norms.{name}", ["norms", path(f"{name}.field"), "--output", out], out,
                seeded, _norms_oracle(closed_form)))
        for name, (_, seeded, _) in fields.items():
            out = path(f"{name}.check.out.json")
            batch.append(Invocation(
                f"check.{name}", ["check", path(f"{name}.field"), "--nu", repr(self.nu),
                                  "--output", out], out, seeded, _reports_oracle(3)))
        # On a generic field: the un field read back from its file trips a
        # spurious mean-zero error in p2d_split (see NOTES.md, "Defects").
        small = f"random{self.random_n[0]}"
        out = path(f"{small}.check-iftimie.out.json")
        batch.append(Invocation(
            f"check-iftimie.{small}", ["check", path(f"{small}.field"), "--nu", repr(self.nu),
                                       "--iftimie-c", repr(self.iftimie_c), "--output", out],
            out, True, _reports_oracle(4)))
        grid = ["--n-grid", str(self.sweep_grid)]
        for family, args, oracle in (
            ("annulus-analog", ["--n", _ints(self.sweep_annulus), "--nu", "1"],
             _annulus_sweep_oracle),
            ("un", ["--n", _ints(self.sweep_un)], _un_sweep_oracle),
            ("rescaled", ["--m", _ints(self.sweep_m), "--a", "1.0"], None),
        ):
            out = path(f"sweep-{family}.out.json")
            batch.append(Invocation(f"sweep.{family}",
                                    ["sweep", family, *args, *grid, "--output", out],
                                    out, False, oracle))
        nodes = ["--nodes", str(self.nodes)]
        for table, args, oracle in (
            ("lambda-n", ["--n", _ints(self.lambda_n)], _lambda_n_oracle),
            ("embedding", ["--p", ",".join(self.embedding_p), "--eps", repr(self.eps)],
             _embedding_oracle),
            ("heat-kernel", [], _heat_kernel_oracle),
        ):
            out = path(f"wholespace-{table}.out.json")
            batch.append(Invocation(f"wholespace.{table}",
                                    ["wholespace", table, *args, *nodes, "--output", out],
                                    out, False, oracle))
        out = path("constants.out.json")
        batch.append(Invocation("constants", ["constants", "--output", out], out, False,
                                _constants_oracle))
        return batch


def _ints(values) -> str:
    return ",".join(str(v) for v in values)


def _field_n(args: list) -> int:
    return int(args[args.index("--n") + 1])


def _close(got, want, rtol=ORACLE_RTOL, atol=ATOL) -> bool:
    return isinstance(got, (int, float)) and math.isclose(got, want, rel_tol=rtol, abs_tol=atol)


def _expect(errors: list, label: str, got, want, rtol=ORACLE_RTOL) -> None:
    if not _close(got, want, rtol):
        errors.append(f"{label} = {got!r}, closed form {want!r}")


def _taylor_green_oracle(a: float) -> dict:
    return {"energy": a**2 / 4.0, "enstrophy": 2 * math.pi**2 * a**2,
            "omega_h_hminushalf": 0.0}


def _un_oracle(index: int) -> dict:
    return {"hhalf_sq": index**2 + 2.0, "omega_h_hminushalf": 1.0}


def _sidecar_oracle(closed_form: dict | None, field_path: str, n: int) -> Check:
    def check(inv) -> list[str]:
        errors = []
        size = os.path.getsize(field_path)
        if size < 3 * n**3 * 8:
            errors.append(f"field file holds {size} bytes, fewer than 3*{n}^3 samples")
        sidecar = _load(inv.output)
        for key, want in (closed_form or {}).items():
            _expect(errors, f"sidecar computed {key}", sidecar["computed"].get(key), want)
            _expect(errors, f"sidecar closed_form {key}", sidecar["closed_form"].get(key), want)
        return errors
    return check


def _norms_oracle(closed_form: dict | None) -> Check | None:
    if closed_form is None:
        return None

    def check(inv) -> list[str]:
        out = _load(inv.output)
        got = dict(out, hhalf_sq=out["hhalf"] ** 2)
        errors = []
        for key, want in closed_form.items():
            _expect(errors, f"norms {key}", got[key], want)
        return errors
    return check


def _reports_oracle(count: int) -> Check:
    def check(inv) -> list[str]:
        reports = _load(inv.output)["reports"]
        return [] if len(reports) == count else [f"{len(reports)} reports, expected {count}"]
    return check


def _strictly(values: list, increasing: bool) -> bool:
    pairs = list(zip(values, values[1:]))
    return all((b > a) if increasing else (b < a) for a, b in pairs)


def _annulus_sweep_oracle(inv) -> list[str]:
    rows = _load(inv.output)["rows"]
    errors = []
    if not _strictly([r["criterion_quantity"] for r in rows], increasing=False):
        errors.append("annulus criterion quantity does not fall along the sweep")
    if not _strictly([r["besov_half"] for r in rows], increasing=True):
        errors.append("annulus Besov norm does not rise along the sweep")
    return errors


def _un_sweep_oracle(inv) -> list[str]:
    errors = []
    for row in _load(inv.output)["rows"]:
        for key, want in _un_oracle(row["n"]).items():
            _expect(errors, f"un sweep n={row['n']} {key}", row[key], want)
    return errors


def _lambda_n_oracle(inv) -> list[str]:
    rows = _load(inv.output)["rows"]
    if _strictly([r["criterion_quantity"] for r in rows], increasing=False):
        return []
    return ["lambda-n criterion quantity does not decrease in n"]


def _embedding_oracle(inv) -> list[str]:
    errors = []
    for row in _load(inv.output)["rows"]:
        if row["p"] == "inf":
            _expect(errors, "embedding constant at p=inf", row["embedding_constant"],
                    1.0 / (4 * math.pi), QUADRATURE_RTOL)
    return errors


def _heat_kernel_oracle(inv) -> list[str]:
    (row,) = _load(inv.output)["rows"]
    errors = [] if row["curl_bound_holds"] is True else ["heat-curl bound reported violated"]
    _expect(errors, "||grad g||_1", row["grad_g_l1"], 2.0 / math.sqrt(math.pi),
            QUADRATURE_RTOL)
    return errors


def _constants_oracle(inv) -> list[str]:
    out = _load(inv.output)
    errors = []
    _expect(errors, "r1", out["r1"], math.sqrt(3.0) * math.pi / (2.0 * math.sqrt(2.0)))
    _expect(errors, "small-data coefficient", out["small_data_threshold_coeff"],
            6912 * math.pi**4)
    return errors


def _load(path: str):
    with open(path) as fh:
        return json.load(fh)


# -- reference comparison -----------------------------------------------------


def compare(got, want, where: str = "") -> list[str]:
    """Differences between an output and its reference, numbers within RTOL."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{where}: keys {sorted(got) if isinstance(got, dict) else got!r}"
                    f" != {sorted(want)}"]
        return [e for k in want for e in compare(got[k], want[k], f"{where}.{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{where}: length {len(got) if isinstance(got, list) else got!r}"
                    f" != {len(want)}"]
        return [e for i, (g, w) in enumerate(zip(got, want)) for e in compare(g, w, f"{where}[{i}]")]
    if isinstance(want, (bool, str)) or want is None:
        return [] if got == want else [f"{where}: {got!r} != {want!r}"]
    if isinstance(got, bool) or not _close(got, want, RTOL, ATOL):
        return [f"{where}: {got!r} != reference {want!r}"]
    return []


# -- registry ------------------------------------------------------------------

_DNS_N64 = Dns("dns-n64", n=64, kmax=8, nu=0.02, dt=2e-3, steps=4, record_stride=4,
               warmup_steps=1, nominal_op_s=3.5)
_DNS_N16 = Dns("dns-n16", n=16, kmax=3, nu=0.02, dt=1e-3, steps=200, record_stride=1,
               warmup_steps=20, nominal_op_s=2.1)
_ANALYSIS = Analysis(
    "analysis", random_n=(32, 64), tg_n=32, amplitude=1.0, un_n=24, un_index=5,
    annulus_n=32, annulus_index=12, nu=0.1, iftimie_c=2.0, sweep_grid=32,
    sweep_annulus=(3, 6, 12), sweep_un=(1, 2, 4, 8), sweep_m=(2, 4, 8),
    lambda_n=(3, 10, 100, 1000), embedding_p=("4", "6", "inf"), eps=0.5, nodes=128,
    nominal_op_s=2.4)

WORKLOADS = {w.name: w for w in (_DNS_N64, _DNS_N16, _ANALYSIS)}

#: The same workloads at toy size, for the benchmark's own smoke tests.
TINY = {
    "dns-n64": replace(_DNS_N64, n=16, kmax=3, steps=4, record_stride=2, warmup_steps=1,
                       nominal_op_s=0.05),
    "dns-n16": replace(_DNS_N16, n=8, kmax=2, steps=10, warmup_steps=2, nominal_op_s=0.05),
    "analysis": replace(_ANALYSIS, random_n=(8, 16), tg_n=8, un_n=8, un_index=2,
                        annulus_n=16, annulus_index=3, sweep_grid=24, sweep_annulus=(3, 4, 5),
                        sweep_un=(1, 2), sweep_m=(2, 4), lambda_n=(3, 10), nodes=32,
                        nominal_op_s=0.5),
}
