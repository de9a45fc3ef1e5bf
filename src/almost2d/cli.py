"""Command-line front end for construction, norms, criteria, simulation,
sweeps, and whole-space quadrature.

Exit codes: 0 success, 1 domain error (message names the violated
precondition), 2 I/O error.  All randomized inputs derive from --seed and
identical invocations are byte-identical.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import criteria, families, fieldio, norms, solver, wholespace
from .field import SpectralVectorField
from .grid import GridSpec

FLOAT_FMT = "%.12e"


def _csv_text(rows: list[dict]) -> str:
    """A header of the first row's keys, then one line per row: floats in
    FLOAT_FMT, any other value by str."""
    header = list(rows[0])
    lines = [",".join(header)] + [
        ",".join(FLOAT_FMT % row[h] if isinstance(row[h], float) else str(row[h]) for h in header)
        for row in rows
    ]
    return "\n".join(lines) + "\n"


def _json_text(payload) -> str:
    """Indented strict JSON of dicts, lists and Python (or np.float64) scalars."""
    return json.dumps(_sanitize(payload), indent=2) + "\n"


def _write(path: str | None, text: str) -> None:
    """Write text to path, or to stdout when path is None."""
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(args, payload: dict, csv_rows: list[dict] | None = None) -> None:
    """Write JSON (default) or CSV to --output or stdout."""
    if args.format == "csv":
        text = _csv_text(csv_rows if csv_rows is not None else [payload])
    else:
        text = _json_text(payload)
    _write(args.output, text)


def _sanitize(obj):
    """Strict JSON has no inf/nan; replace them with strings."""
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, (float, np.floating)) and not math.isfinite(obj):
        return repr(float(obj))
    return obj


def _cmd_constants(args) -> int:
    c = criteria.constants()
    _emit(
        args,
        {
            "c1": c.c1,
            "c2": c.c2,
            "r1": c.r1,
            "r2": c.r2,
            "small_data_threshold_coeff": c.small_data_threshold_coeff,
            "constants_version": criteria.CONSTANTS_VERSION,
        },
    )
    return 0


def _cmd_norms(args) -> int:
    u = fieldio.read_field(args.field)
    s = norms.field_summary(u)
    payload = {
        "n": u.grid.n,
        "l2": math.sqrt(2 * s.K),
        "hhalf": s.hhalf,
        "h1": s.h1,
        "energy": s.K,
        "enstrophy": s.E,
        "omega_h_hminushalf": s.omega_h_hminushalf,
        "omega_l2": math.sqrt(2 * s.E),
    }
    _emit(args, payload)
    return 0


def _cmd_check(args) -> int:
    u = fieldio.read_field(args.field)
    # The Iftimie report is formed first, so u can go before the vorticity's
    # inverse transform, which then runs beside the vorticity alone.
    iftimie = ([] if args.iftimie_c is None
               else [criteria.iftimie_check(u, args.nu, args.iftimie_c)])
    s = norms.field_summary(u)
    del u
    hilbert = criteria.gamma2d_from_norms(s.omega_h_hminushalf, s.K, s.E, args.nu)
    reports = [criteria.small_data_check(s.K, s.E, args.nu), hilbert,
               criteria.gamma2d_lp_check(s.omega, hilbert)] + iftimie
    columns = ("name", "lhs", "rhs", "satisfied", "constants_version")  # one CSV row per report
    rows = [{key: getattr(r, key) for key in columns} for r in reports]
    _emit(args, {"nu": args.nu, "reports": [r.as_dict() for r in reports]}, csv_rows=rows)
    return 0


_FAMILIES = ("taylor-green", "un", "large-almost-2d", "annulus-analog", "random")


def _construct_field(args) -> SpectralVectorField:
    grid = GridSpec(args.n)
    if args.family == "taylor-green":
        return families.taylor_green_2d(grid, args.amplitude)
    if args.family == "un":
        return families.un_family(args.index, grid)
    if args.family == "large-almost-2d":
        return families.large_almost_2d(args.index, grid)
    if args.family == "annulus-analog":
        return families.annulus_analog(args.index, grid)
    return families.random_divergence_free(grid, args.seed, amplitude=args.amplitude)


def _closed_form_sidecar(args, u: SpectralVectorField) -> dict:
    """Closed-form norms, where the family states them, next to grid values."""
    s = norms.field_summary(u)
    computed = {
        "energy": s.K,
        "enstrophy": s.E,
        "hhalf_sq": s.hhalf**2,
        "omega_h_hminushalf": s.omega_h_hminushalf,
    }
    closed: dict[str, float] = {}
    if args.family == "taylor-green":
        closed = {
            "energy": args.amplitude**2 / 4.0,
            "enstrophy": 2 * math.pi**2 * args.amplitude**2,
            "omega_h_hminushalf": 0.0,
        }
    elif args.family == "un":
        closed = {
            "hhalf_sq": args.index**2 + 2.0,
            "omega_h_hminushalf": 1.0,
        }
    sidecar = {"family": args.family, "computed": computed, "closed_form": closed}
    if args.family == "random":
        sidecar["seed"] = args.seed
    return sidecar


def _cmd_construct(args) -> int:
    u = _construct_field(args)
    sidecar = _closed_form_sidecar(args, u)  # before any file, so a failure leaves none
    fieldio.write_field(args.output, u)
    _write(args.output + ".norms.json", _json_text(sidecar))
    return 0


#: The solver parameters a ``simulate --config`` file may set, each at most
#: once, with the cast of its value.  A parameter given by neither a flag nor
#: the file takes SolverConfig's default.
_CONFIG_KEYS = {"nu": float, "dt": float, "t_end": float,
                "dealias": lambda rule: rule.replace("-", "_"),
                "record_stride": int, "blowup_threshold": float}


def _parse_config_file(path: str) -> dict:
    values = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}: malformed config line {line!r}")
            key, val = line.split("=", 1)
            key = key.strip()
            if key not in _CONFIG_KEYS:
                raise ValueError(f"{path}: unknown config key {key!r} "
                                 f"(accepted: {', '.join(_CONFIG_KEYS)})")
            if key in values:
                raise ValueError(f"{path}: config key {key!r} appears more than once")
            values[key] = val.strip()
    return values


def _cmd_simulate(args) -> int:
    file_cfg = _parse_config_file(args.config) if args.config else {}
    flags = {"nu": args.nu, "dt": args.dt, "t_end": args.t_end, "dealias": args.dealias}
    u0 = fieldio.read_field(args.initial)
    params = {}  # a flag before the file, one key at a time
    for key, cast in _CONFIG_KEYS.items():
        if flags.get(key) is not None:
            params[key] = cast(flags[key])
        elif key in file_cfg:
            try:
                params[key] = cast(file_cfg[key])
            except ValueError as exc:
                raise ValueError(f"{args.config}: config key {key!r}: {exc}") from None
        elif not hasattr(solver.SolverConfig, key):  # a field with no default
            raise ValueError(f"missing solver parameter {key}")
    series = solver.run(u0, solver.SolverConfig(**params))
    columns = {col: getattr(series, col) for col in solver.CSV_COLUMNS}
    columns["horizontal_decay_flag"] = [
        "" if math.isnan(flag) else str(int(flag)) for flag in series.horizontal_decay_flag
    ]
    _write(args.output, _csv_text([dict(zip(columns, row)) for row in zip(*columns.values())]))
    summary = dict(series.summary, status=series.status, steps_recorded=len(series.t))
    _write(args.output + ".summary.json", _json_text(summary))
    return 0


def _emit_rows(args, rows: list[dict]) -> int:
    _emit(args, {"rows": rows}, csv_rows=rows)
    return 0


def _cmd_sweep_annulus_analog(args) -> int:
    grid = GridSpec(args.n_grid)
    rows = []
    for n in args.n:
        w = families.annulus_analog(n, grid)  # the family is a vorticity
        spectrum = norms.ShellSpectrum(grid, w.half)
        K0 = 0.5 * float(spectrum.sobolev_sq(-1.0).sum())
        E0 = 0.5 * float(spectrum.sobolev_sq(0.0).sum())
        omh = math.sqrt(spectrum.sobolev_sq(-0.5)[:2].sum())
        besov = norms.besov_norm(w, 0.5, 2.0, spectrum=spectrum).value
        rows.append({"n": n, "omega_h_hminushalf": omh, "KE_product": K0 * E0,
                     "criterion_quantity": criteria.criterion_quantity(omh, K0, E0, args.nu),
                     "besov_half": besov})
    return _emit_rows(args, rows)


def _cmd_sweep_un(args) -> int:
    grid = GridSpec(args.n_grid)
    rows = []
    for n in args.n:
        s = norms.field_summary(families.un_family(n, grid))
        rows.append({"n": n, "hhalf_sq": s.hhalf**2, "omega_h_hminushalf": s.omega_h_hminushalf})
    return _emit_rows(args, rows)


def _cmd_sweep_rescaled(args) -> int:
    base = families.helical_base_vorticity(GridSpec(args.n_grid))
    rows = []
    for m in args.m:
        r = families.rescaled_vorticity(base, m, args.a)
        omega_h_l32 = r.component_lebesgue_norm("horizontal", 1.5)
        report = criteria.gamma2d_lp_from_norms(
            omega_h_l32, r.lebesgue_norm(1.2), r.lebesgue_norm(2.0), args.nu
        )
        rows.append({"m": m, "omega_h_l32": omega_h_l32,
                     "omega3_l32": r.component_lebesgue_norm("vertical", 1.5),
                     "criterion_log_lhs": report.inputs["log_lhs"]})
    return _emit_rows(args, rows)


def _cmd_wholespace_lambda_n(args) -> int:
    quad = wholespace.QuadratureSpec(args.nodes)
    return _emit_rows(args, [wholespace.lambda_n_report(n, quad, nu=args.nu).as_dict()
                             for n in args.n])


def _cmd_wholespace_embedding(args) -> int:
    quad = wholespace.QuadratureSpec(args.nodes)
    rows = []
    for p in args.p:
        pv = math.inf if p == "inf" else float(p)
        row = {"p": p, "embedding_constant": wholespace.besov_embedding_constant(pv, quad)}
        if args.eps is not None:
            cone = wholespace.cone_embedding_constant(pv, args.eps, quad)
            row.update({"eps": args.eps, "cone_direct": cone.direct,
                        "cone_majorant": cone.majorant})
        rows.append(row)
    return _emit_rows(args, rows)


def _cmd_wholespace_heat_kernel(args) -> int:
    report = wholespace.heat_kernel_constants(wholespace.QuadratureSpec(args.nodes))
    return _emit_rows(args, [{"grad_g_l1": report.grad_g_l1, "curl_bound_holds": report.all_hold}])


def _int_list(text: str) -> list[int]:
    values = [int(tok) for tok in text.split(",") if tok]
    if not values:
        raise ValueError(f"no integer in {text!r}")
    return values


class _VerbParser(argparse.ArgumentParser):
    """A verb's parser.  sweep and wholespace take a family or table name
    (``name_first``) before their options.  An option placed before the name
    would have its value read as the name and reported as an invalid choice,
    so that order is refused as such."""

    def __init__(self, *args, name_first: str | None = None, **kwargs):
        super().__init__(*args, **kwargs)
        self.name_first = name_first

    def parse_known_args(self, args=None, namespace=None):
        if self.name_first and args and args[0].startswith("-") and args[0] not in ("-h", "--help"):
            self.error(f"options follow the {self.name_first} name "
                       f"({self.prog} <{self.name_first}> [options]), but {args[0]} comes first")
        return super().parse_known_args(args, namespace)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one parser, built on the first call; parsing only reads it."""
    parser = argparse.ArgumentParser(
        prog="almost2d",
        description="Periodic-box Navier-Stokes toolkit: norms, criteria, "
        "families, simulation, and whole-space constants.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="verb", required=True, parser_class=_VerbParser)

    def common(p):
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--output", default=None)

    p = sub.add_parser("constants", help="sharp constants as a document", allow_abbrev=False)
    common(p)
    p.set_defaults(func=_cmd_constants)

    p = sub.add_parser("norms", help="norm battery for a field file", allow_abbrev=False)
    p.add_argument("field")
    common(p)
    p.set_defaults(func=_cmd_norms)

    p = sub.add_parser("check", help="criterion reports for a field file", allow_abbrev=False)
    p.add_argument("field")
    p.add_argument("--nu", type=float, required=True)
    p.add_argument(
        "--iftimie-c",
        dest="iftimie_c",
        type=float,
        default=None,
        help="also run the 2D-perturbation criterion with this constant",
    )
    common(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("construct", help="generate a family field file", allow_abbrev=False)
    p.add_argument("family", choices=_FAMILIES)
    p.add_argument("--n", type=int, default=32, help="grid points per axis")
    p.add_argument("--index", type=int, default=1, help="family index")
    p.add_argument("--amplitude", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("simulate", help="integrate an initial field file", allow_abbrev=False)
    p.add_argument("--config", default=None, help="key=value solver config file")
    p.add_argument("--initial", required=True)
    p.add_argument("--output", required=True, help="CSV path (summary JSON beside it)")
    p.add_argument("--nu", type=float, default=None)
    p.add_argument("--dt", type=float, default=None)
    p.add_argument("--t-end", dest="t_end", type=float, default=None)
    p.add_argument(
        "--dealias",
        choices=("two-thirds", "none"),
        default=None,
        help="2/3-rule truncation (default) or none: the aliased rotational form",
    )
    p.set_defaults(func=_cmd_simulate)

    # sweep and wholespace: one parser per family or table, holding only the
    # options its handler reads, after the family or table name.  No parser takes
    # an abbreviation: --n is not --nodes, nor check's --iftimie --iftimie-c.
    def table(choices, name, handler, *options):
        p = choices.add_parser(name, allow_abbrev=False)
        for flag, kwargs in options:
            p.add_argument(flag, **kwargs)
        common(p)
        p.set_defaults(func=handler)

    nu = ("--nu", {"type": float, "default": 1.0})
    n_grid = ("--n-grid", {"dest": "n_grid", "type": int, "default": 32})
    sweep_n = ("--n", {"type": _int_list, "default": (3, 6, 12)})
    nodes = ("--nodes", {"type": int, "default": wholespace.QuadratureSpec.nodes})

    p = sub.add_parser("sweep", help="family sweeps with criterion columns", name_first="family")
    choices = p.add_subparsers(dest="family", required=True)
    table(choices, "annulus-analog", _cmd_sweep_annulus_analog, sweep_n, nu, n_grid)
    table(choices, "un", _cmd_sweep_un, sweep_n, n_grid)
    table(choices, "rescaled", _cmd_sweep_rescaled,
          ("--m", {"type": _int_list, "default": (2, 4, 8)}),
          ("--a", {"type": float, "default": 1.0}), nu, n_grid)

    p = sub.add_parser("wholespace", help="quadrature constant tables", name_first="table")
    choices = p.add_subparsers(dest="table", required=True)
    table(choices, "lambda-n", _cmd_wholespace_lambda_n,
          ("--n", {"type": _int_list, "default": (3, 10, 100)}), nu, nodes)
    table(choices, "embedding", _cmd_wholespace_embedding,
          ("--p", {"type": lambda s: s.split(","), "default": ("4", "6", "inf")}),
          ("--eps", {"type": float, "default": None}), nodes)
    table(choices, "heat-kernel", _cmd_wholespace_heat_kernel, nodes)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ArithmeticError, AssertionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # an allocation the machine cannot make
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
