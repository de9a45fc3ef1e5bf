"""Field file format and command-line round trips."""

import csv
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from almost2d import (GridSpec, PhysicalVectorField, SpectralVectorField, families, to_physical,
                      to_spectral)
from almost2d import cli, norms
from almost2d import field as field_layer
from almost2d.cli import main
from almost2d.families import annulus_analog, random_divergence_free
from almost2d.fieldio import read_field, write_field
from conftest import random_physical


class TestFieldFile:
    def test_roundtrip(self, tmp_path, grid16):
        u = random_divergence_free(grid16, 3, kmax=4)
        path = str(tmp_path / "u.field")
        write_field(path, u)
        back = read_field(path)
        orig = to_physical(u).samples
        again = to_physical(back).samples
        assert np.max(np.abs(orig - again)) < 1e-12

    def test_payload_is_the_samples_bytes(self, tmp_path, grid16):
        u = random_divergence_free(grid16, 6, kmax=4)
        path = str(tmp_path / "u.field")
        write_field(path, u)
        header, payload = open(path, "rb").read().split(b"\n\n", 1)
        assert header.startswith(b"version=1\nn=16\n")
        assert payload == to_physical(u).samples.astype("<f8").tobytes()

    def test_unknown_version_rejected(self, tmp_path, grid16):
        u = random_divergence_free(grid16, 4, kmax=4)
        path = str(tmp_path / "u.field")
        write_field(path, u)
        raw = open(path, "rb").read()
        open(path, "wb").write(raw.replace(b"version=1", b"version=9", 1))
        with pytest.raises(ValueError, match="version"):
            read_field(path)

    def test_truncated_payload_rejected(self, tmp_path, grid16):
        u = random_divergence_free(grid16, 5, kmax=4)
        path = str(tmp_path / "u.field")
        write_field(path, u)
        raw = open(path, "rb").read()
        open(path, "wb").write(raw[:-16])
        with pytest.raises(ValueError, match="payload"):
            read_field(path)


class TestCli:
    def test_successive_calls_share_one_parser_and_no_state(self, tmp_path, capsys):
        """The parser is built once per process; one call's options do not
        carry into the next."""
        path = str(tmp_path / "u.field")
        write_field(path, random_divergence_free(GridSpec(8), 2, kmax=2))
        argv = ["check", path, "--nu", "0.1"]
        assert main(argv + ["--iftimie-c", "2.0"]) == 0
        assert len(json.loads(capsys.readouterr().out)["reports"]) == 4
        assert main(argv) == 0
        assert len(json.loads(capsys.readouterr().out)["reports"]) == 3
        assert main(["norms", path, "--format", "csv"]) == 0
        assert capsys.readouterr().out.startswith("n,l2,")
        assert main(["norms", path]) == 0
        assert json.loads(capsys.readouterr().out)["n"] == 8
        assert cli.build_parser() is cli.build_parser()

    def test_constants_json(self, tmp_path, capsys):
        assert main(["constants"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["r1"] == pytest.approx(1.9238247, abs=1e-6)
        assert doc["r2"] == pytest.approx(30.586196, abs=1e-5)

    def test_construct_then_norms_roundtrip(self, tmp_path, capsys):
        path = str(tmp_path / "tg.field")
        assert main(["construct", "taylor-green", "--n", "32", "--output", path]) == 0
        sidecar = json.load(open(path + ".norms.json"))
        for key, closed in sidecar["closed_form"].items():
            assert sidecar["computed"][key] == pytest.approx(closed, rel=1e-9, abs=1e-12)
        assert main(["norms", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["energy"] == pytest.approx(0.25, rel=1e-9)

    def test_construct_un_sidecar(self, tmp_path):
        path = str(tmp_path / "un.field")
        assert main(
            ["construct", "un", "--n", "24", "--index", "5", "--output", path]
        ) == 0
        sidecar = json.load(open(path + ".norms.json"))
        assert sidecar["closed_form"]["hhalf_sq"] == 27.0
        assert sidecar["computed"]["hhalf_sq"] == pytest.approx(27.0, rel=1e-10)
        assert sidecar["computed"]["omega_h_hminushalf"] == pytest.approx(1.0, rel=1e-10)

    def test_check_reports(self, tmp_path, capsys):
        path = str(tmp_path / "tg.field")
        main(["construct", "taylor-green", "--n", "32", "--output", path])
        assert main(["check", path, "--nu", "0.1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        names = [r["name"] for r in doc["reports"]]
        assert names == ["small-data", "gamma2d", "gamma2d-lp"]
        assert all(r["satisfied"] for r in doc["reports"])

    @pytest.mark.parametrize("extra", [[], ["--iftimie-c", "2.0"]], ids=["three", "iftimie"])
    def test_check_csv_is_one_row_per_report(self, tmp_path, capsys, extra):
        """check --format csv: one row per report, its cells formatted as
        the JSON values they come from, no dict in any cell."""
        path = str(tmp_path / "u.field")
        write_field(path, random_divergence_free(GridSpec(16), 3, kmax=4))
        argv = ["check", path, "--nu", "0.1", *extra]
        assert main(argv) == 0
        reports = json.loads(capsys.readouterr().out)["reports"]
        assert main(argv + ["--format", "csv"]) == 0
        text = capsys.readouterr().out
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == ["name", "lhs", "rhs", "satisfied", "constants_version"]
        assert len(rows[1:]) == len(reports) == 3 + (len(extra) > 0)
        assert not any("{" in cell for row in rows for cell in row)
        for row, report in zip(rows[1:], reports):
            assert row == [report["name"], cli.FLOAT_FMT % float(report["lhs"]),
                           cli.FLOAT_FMT % float(report["rhs"]), str(report["satisfied"]),
                           report["constants_version"]]

    def test_check_certifies_its_own_gamma2d_report(self, tmp_path, capsys, grid16):
        """The Lp report's Hilbert side is the gamma2d report check prints.
        A velocity mean enters that report's K0 but not the Lp side, so a
        large one is refused with the majorant error."""
        u = random_divergence_free(grid16, 3, kmax=4, amplitude=0.1)
        path = str(tmp_path / "u.field")
        write_field(path, u)
        assert main(["check", path, "--nu", "1.0"]) == 0
        _, hilbert, lp = json.loads(capsys.readouterr().out)["reports"]
        assert lp["inputs"]["log_lhs_hilbert"] == hilbert["inputs"]["log_lhs"]
        coeffs = u.half.copy()
        coeffs[0, 0, 0, 0] = 100.0
        write_field(path, SpectralVectorField(grid16, coeffs))
        assert main(["check", path, "--nu", "1.0"]) == 1
        assert "exceeds its Lp majorant" in _one_error_line(capsys)

    def test_sweep_annulus_criterion_decreasing(self, tmp_path):
        out = str(tmp_path / "sweep.csv")
        assert main(
            ["sweep", "annulus-analog", "--n", "3,6,12", "--nu", "1",
             "--format", "csv", "--output", out]
        ) == 0
        rows = [line.split(",") for line in open(out).read().strip().splitlines()]
        header, data = rows[0], rows[1:]
        col = header.index("criterion_quantity")
        values = [float(r[col]) for r in data]
        assert values[0] > values[1] > values[2]
        bcol = header.index("besov_half")
        besov = [float(r[bcol]) for r in data]
        assert besov[0] < besov[1] < besov[2]

    def test_sweep_determinism(self, tmp_path):
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        args = ["sweep", "un", "--n", "1,2,5", "--format", "csv"]
        assert main(args + ["--output", a]) == 0
        assert main(args + ["--output", b]) == 0
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_simulate_writes_csv_and_summary(self, tmp_path):
        field = str(tmp_path / "tg.field")
        main(["construct", "taylor-green", "--n", "32", "--output", field])
        cfgfile = tmp_path / "sim.cfg"
        cfgfile.write_text("nu=0.01\ndt=1e-3\nt_end=0.01\n")
        out = str(tmp_path / "run.csv")
        assert main(
            ["simulate", "--config", str(cfgfile), "--initial", field, "--output", out]
        ) == 0
        lines = open(out).read().strip().splitlines()
        assert lines[0].startswith("t,K,E,strain_h1_sq,det_S_integral")
        assert len(lines) == 12  # header + 11 recorded steps
        summary = json.load(open(out + ".summary.json"))
        assert summary["status"] == "completed"
        assert summary["max_energy_eq_residual"] < 1e-6 * 0.25

    def test_simulate_header_and_summary_keys_are_the_documented_ones(self, tmp_path):
        """The whole CSV header, and the summary's keys in order, are README's."""
        field = str(tmp_path / "tg.field")
        assert main(["construct", "taylor-green", "--n", "8", "--output", field]) == 0
        out = str(tmp_path / "run.csv")
        assert main(["simulate", "--initial", field, "--output", out,
                     "--nu", "0.1", "--dt", "0.01", "--t-end", "0.03"]) == 0
        header = open(out).readline().strip().split(",")
        assert header == _readme_names("with the fixed column order")
        summary = json.load(open(out + ".summary.json"))
        assert list(summary) == _readme_names("holds these keys, in this order")

    def test_step_past_the_cfl_limit_leaves_stderr_empty(self, tmp_path):
        """A run whose dt is past the advective limit exits 0 and says so only
        in its summary: a fresh process, with Python's default warning
        filters, writes nothing to stderr."""
        field = str(tmp_path / "hot.field")
        assert main(["construct", "random", "--n", "16", "--seed", "14", "--amplitude", "100",
                     "--output", field]) == 0
        out = str(tmp_path / "run.csv")
        src = str(Path(cli.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        env.pop("PYTHONWARNINGS", None)
        proc = subprocess.run(
            [sys.executable, "-m", "almost2d.cli", "simulate", "--initial", field,
             "--output", out, "--nu", "0.1", "--dt", "0.01", "--t-end", "0.01"],
            capture_output=True, text=True, env=env, timeout=120)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert json.load(open(out + ".summary.json"))["advective_cfl"] > 0.5

    def test_wholespace_table(self, tmp_path, capsys):
        assert main(["wholespace", "lambda-n", "--n", "3,10", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("n,volume,l2_sq")
        first = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert float(first["volume"]) == pytest.approx(2 * math.pi, abs=1e-8)

    def test_domain_error_exit_code(self, tmp_path, capsys):
        path = str(tmp_path / "small.field")
        main(["construct", "taylor-green", "--n", "16", "--output", path])
        # viscosity <= 0 violates the criteria precondition
        assert main(["check", path, "--nu", "-1"]) == 1
        assert "positive" in capsys.readouterr().err

    def test_io_error_exit_code(self, capsys):
        assert main(["norms", "/nonexistent/file.field"]) == 2


def _readme_names(lead: str) -> list[str]:
    """The comma-separated names of the first code block in README.md after
    the text ``lead``."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split(lead, 1)[1].split("```", 2)[1]
    return "".join(block.split()).split(",")


def _one_error_line(capsys) -> str:
    err = capsys.readouterr().err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    assert "Traceback" not in err
    return lines[0]


class TestCliDefects:
    """Inputs that once escaped as tracebacks or spurious domain errors."""

    @pytest.mark.parametrize(
        "header_n, message",
        [(None, "no n= line"), ("16.5", "not an integer"), ("sixteen", "not an integer")],
    )
    def test_bad_n_header_is_a_domain_error(self, tmp_path, grid16, capsys, header_n, message):
        path = str(tmp_path / "u.field")
        write_field(path, random_divergence_free(grid16, 6, kmax=4))
        raw = open(path, "rb").read()
        new = b"" if header_n is None else f"n={header_n}\n".encode()
        open(path, "wb").write(raw.replace(b"n=16\n", new, 1))
        with pytest.raises(ValueError, match=message):
            read_field(path)
        assert main(["norms", path]) == 1
        assert message in _one_error_line(capsys)

    @pytest.mark.parametrize(
        "verb",
        [["norms"], ["check", "--nu", "0.1"], ["check", "--nu", "0.1", "--iftimie-c", "2"]],
        ids=["norms", "check", "check-iftimie"],
    )
    def test_divergent_field_is_a_domain_error(self, tmp_path, grid16, capsys, verb):
        path = str(tmp_path / "div.field")
        write_field(path, to_spectral(PhysicalVectorField(grid16, random_physical(grid16, 12))))
        assert main(verb[:1] + [path] + verb[1:]) == 1
        assert "divergence-free" in _one_error_line(capsys)

    def test_iftimie_check_on_un_file(self, tmp_path, capsys):
        path = str(tmp_path / "u5.field")
        assert main(["construct", "un", "--n", "24", "--index", "5", "--output", path]) == 0
        assert main(["check", path, "--nu", "0.1", "--iftimie-c", "2.0"]) == 0
        doc = json.loads(capsys.readouterr().out)
        names = [r["name"] for r in doc["reports"]]
        assert len(names) == 4 and names[:3] == ["small-data", "gamma2d", "gamma2d-lp"]

    def test_simulate_rejects_t_end_off_the_step_lattice(self, tmp_path, capsys):
        field = str(tmp_path / "tg.field")
        main(["construct", "taylor-green", "--n", "16", "--output", field])
        out = str(tmp_path / "run.csv")
        argv = ["simulate", "--initial", field, "--output", out, "--nu", "0.01"]
        assert main(argv + ["--dt", "3e-3", "--t-end", "0.01"]) == 1
        assert "integer multiple of dt" in _one_error_line(capsys)
        assert main(argv + ["--dt", "2e-3", "--t-end", "0.01"]) == 0
        last = open(out).read().strip().splitlines()[-1]
        assert float(last.split(",")[0]) == pytest.approx(0.01, rel=1e-12)

    @pytest.mark.parametrize("dt, t_end", [("0.01", "1e308"), ("1e-320", "1")],
                             ids=["huge-t-end", "subnormal-dt"])
    def test_simulate_rejects_a_step_count_that_overflows(self, tmp_path, capsys, dt, t_end):
        field = str(tmp_path / "tg.field")
        assert main(["construct", "taylor-green", "--n", "8", "--output", field]) == 0
        out = tmp_path / "run.csv"
        argv = ["simulate", "--initial", field, "--output", str(out), "--nu", "0.01",
                "--dt", dt, "--t-end", t_end]
        assert main(argv) == 1
        line = _one_error_line(capsys)
        assert f"t_end={float(t_end)!r}" in line and f"dt={float(dt)!r}" in line
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, config, message",
        [
            (["--nu", "nan"], "", "viscosity must be positive and finite"),
            (["--nu", "inf"], "", "viscosity must be positive and finite"),
            (["--nu", "0.1"], "blowup_threshold=nan\n", "blowup_threshold must be positive"),
            (["--nu", "0.1"], "blowup_threshold=0\n", "blowup_threshold must be positive"),
        ],
        ids=["nu-nan", "nu-inf", "threshold-nan", "threshold-0"],
    )
    def test_simulate_rejects_nonfinite_viscosity_and_bad_threshold(
        self, tmp_path, capsys, flags, config, message
    ):
        field = str(tmp_path / "tg.field")
        assert main(["construct", "taylor-green", "--n", "8", "--output", field]) == 0
        cfgfile = tmp_path / "sim.cfg"
        cfgfile.write_text("dt=1e-3\nt_end=3e-3\n" + config)
        out = tmp_path / "run.csv"
        argv = ["simulate", "--config", str(cfgfile), "--initial", field, "--output", str(out)]
        assert main(argv + flags) == 1
        assert message in _one_error_line(capsys)
        assert not out.exists()

    @pytest.mark.parametrize(
        "config, message",
        [
            ("nu=0.1\nrecord_strid=2\n", "unknown config key 'record_strid'"),
            ("nu=0.1\nblowup_treshold=5\n", "unknown config key 'blowup_treshold'"),
            ("nu=0.1\nnu=0.2\n", "config key 'nu' appears more than once"),
            ("nu=abc\n", "sim.cfg: config key 'nu': could not convert"),
            ("nu=0.1\nrecord_stride=2.5\n", "sim.cfg: config key 'record_stride': invalid"),
        ],
        ids=["misspelled-stride", "misspelled-threshold", "repeated-nu", "float-nu", "int-stride"],
    )
    def test_simulate_rejects_unknown_and_repeated_config_keys(
        self, tmp_path, capsys, config, message
    ):
        """A misspelled key would otherwise leave its parameter at the default,
        and a repeated one let the last value win, both silently; a value its
        parameter cannot take names the file and the key."""
        field = str(tmp_path / "tg.field")
        assert main(["construct", "taylor-green", "--n", "8", "--output", field]) == 0
        cfgfile = tmp_path / "sim.cfg"
        cfgfile.write_text("dt=1e-3\nt_end=2e-3\n" + config)
        out = tmp_path / "run.csv"
        argv = ["simulate", "--config", str(cfgfile), "--initial", field, "--output", str(out)]
        assert main(argv) == 1
        assert message in _one_error_line(capsys)
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "rescaled", "--m", "2", "--nu", "0"],
            ["sweep", "annulus-analog", "--n", "3", "--nu", "0"],
            ["sweep", "annulus-analog", "--nu", "-1"],
            ["wholespace", "lambda-n", "--n", "3", "--nu", "0"],
        ],
        ids=["rescaled-0", "annulus-0", "annulus-negative", "lambda-n-0"],
    )
    def test_nonpositive_viscosity_is_a_domain_error(self, capsys, argv):
        assert main(argv) == 1
        assert "viscosity must be positive" in _one_error_line(capsys)

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "{field}", "--nu", "inf"],
            ["sweep", "annulus-analog", "--n", "3", "--nu", "inf"],
            ["wholespace", "lambda-n", "--n", "3", "--nu", "inf"],
        ],
        ids=["check", "sweep-annulus", "wholespace-lambda-n"],
    )
    def test_infinite_viscosity_is_a_domain_error(self, tmp_path, capsys, argv):
        """An infinite viscosity would make every verdict trivially true."""
        field_path = str(tmp_path / "tg.field")
        write_field(field_path, families.taylor_green_2d(GridSpec(8)))
        assert main([a.format(field=field_path) for a in argv]) == 1
        assert "viscosity must be positive and finite" in _one_error_line(capsys)

    @pytest.mark.parametrize("c", ["nan", "inf"])
    def test_nonfinite_iftimie_constant_is_a_domain_error(self, tmp_path, capsys, c):
        path = str(tmp_path / "u.field")
        write_field(path, random_divergence_free(GridSpec(8), 2, kmax=2))
        assert main(["check", path, "--nu", "0.1", "--iftimie-c", c]) == 1
        assert "constant must be positive and finite" in _one_error_line(capsys)

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["construct", "taylor-green", "--n", "8", "--amplitude", "nan"], "amplitude"),
            (["construct", "random", "--n", "8", "--amplitude", "inf"], "amplitude"),
            (["sweep", "rescaled", "--m", "2", "--a", "nan"], "log exponent"),
            (["sweep", "rescaled", "--m", "8", "--a", "1e308"], "overflows at a=1e+308, m=8"),
        ],
        ids=["taylor-green-nan", "random-inf", "rescaled-nan", "rescaled-overflow"],
    )
    def test_nonfinite_amplitude_is_a_domain_error(self, tmp_path, capsys, argv, message):
        out = tmp_path / "out.field"
        assert main(argv + ["--output", str(out)]) == 1
        assert message in _one_error_line(capsys)
        assert not out.exists()

    @pytest.mark.parametrize("family", ["random", "taylor-green"])
    @pytest.mark.parametrize("amplitude", ["1e-312", "1e-315", "1e-320", "-1e-320"])
    def test_subnormal_amplitude_is_a_domain_error(self, tmp_path, capsys, family, amplitude):
        """A random field scaled to a subnormal amplitude failed its own
        summary's relative divergence test (1e-315) or printed zero norms
        (1e-312), and a Taylor-Green field wrote a sidecar of zero norms; the
        amplitude is refused by name and no file is written."""
        out = tmp_path / "out.field"
        argv = ["construct", family, "--n", "16", f"--amplitude={amplitude}", "--output", str(out)]
        assert main(argv) == 1
        assert f"got {float(amplitude)!r}" in _one_error_line(capsys)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("family", ["random", "taylor-green"])
    @pytest.mark.parametrize("amplitude", ["0", "3e-308"])
    def test_zero_and_normal_tiny_amplitudes_are_taken(self, tmp_path, family, amplitude):
        out = tmp_path / "out.field"
        argv = ["construct", family, "--n", "16", "--amplitude", amplitude, "--output", str(out)]
        assert main(argv) == 0
        assert out.exists()

    def test_negative_seed_is_a_domain_error(self, tmp_path, capsys):
        """numpy's own message named no input."""
        out = tmp_path / "out.field"
        argv = ["construct", "random", "--n", "8", "--seed", "-1", "--output", str(out)]
        assert main(argv) == 1
        assert "seed must be a non-negative integer, got -1" in _one_error_line(capsys)
        assert list(tmp_path.iterdir()) == []

    def test_rescaled_sweep_takes_a_huge_log_exponent(self, capsys):
        """log(m**a) overflowed in m**a at a = 1e30 and exited 1; log(m^a) is
        a log(m), and its fourth root is finite."""
        assert main(["sweep", "rescaled", "--m", "2,4", "--a", "1e30"]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        rows = json.loads(out)["rows"]
        assert [row["m"] for row in rows] == [2, 4]
        assert all(math.isfinite(value) for row in rows for value in row.values())

    def test_overflowing_closed_form_is_a_domain_error(self, tmp_path, capsys):
        """amplitude**2 overflows in the sidecar's closed forms: one error line,
        and neither the field nor its sidecar is written."""
        out = tmp_path / "out.field"
        with np.errstate(over="ignore"):
            code = main(["construct", "taylor-green", "--amplitude", "1e200", "--n", "16",
                         "--output", str(out)])
        assert code == 1
        _one_error_line(capsys)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("verb", [["sweep", "un"], ["wholespace", "lambda-n"]],
                             ids=["sweep-un", "wholespace-lambda-n"])
    def test_empty_int_list_is_a_usage_error(self, capsys, verb):
        with pytest.raises(SystemExit) as exit_info:
            main(verb + ["--n", ",", "--format", "csv"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "argument --n: invalid" in err and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["sweep", "un", "--n", "3", "--m", "99"],
        ["sweep", "un", "--n", "3", "--nu", "1"],
        ["sweep", "rescaled", "--n", "99"],
        ["wholespace", "heat-kernel", "--n", "3"],
        ["wholespace", "lambda-n", "--eps", "0.1"],
    ], ids=["un-m", "un-nu", "rescaled-n", "heat-kernel-n", "lambda-n-eps"])
    def test_an_option_the_family_does_not_read_is_a_usage_error(self, capsys, argv):
        """Each sweep family and wholespace table takes only the options its
        handler reads, spelled out in full: --n is no prefix of --nodes."""
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments" in err and "Traceback" not in err

    @pytest.mark.parametrize("argv, message", [
        (["sweep", "--n", "3", "un", "--output", "{out}"], "options follow the family name"),
        (["wholespace", "--nodes", "64", "heat-kernel", "--output", "{out}"],
         "options follow the table name"),
        (["sweep"], "required: family"),
    ], ids=["option-before-family", "option-before-table", "no-family"])
    def test_sweep_and_wholespace_take_their_family_first(self, tmp_path, capsys, argv, message):
        """An option before the family or table name is refused as such, not
        as an invalid name made of the option's value, and nothing is written."""
        with pytest.raises(SystemExit) as exit_info:
            main([str(tmp_path / "out") if arg == "{out}" else arg for arg in argv])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert message in err and "invalid choice" not in err and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["constants", "--form", "csv"],
        ["norms", "{field}", "--form", "csv"],
        ["check", "{field}", "--nu", "0.1", "--iftimie", "2"],
        ["construct", "random", "--n", "8", "--amp", "0.5"],
        ["simulate", "--init", "{field}", "--nu", "0.1", "--dt", "0.01", "--t-end", "0.03"],
        ["sweep", "un", "--n", "3", "--n-g", "8"],
        ["wholespace", "heat-kernel", "--node", "16"],
    ], ids=["constants", "norms", "check", "construct", "simulate", "sweep", "wholespace"])
    def test_every_verb_refuses_an_abbreviated_option(self, tmp_path, capsys, argv):
        """One spelling rule for every verb: an option is spelled out in full,
        so --iftimie is no prefix of --iftimie-c, and nothing is written."""
        field = tmp_path / "u.field"
        write_field(str(field), random_divergence_free(GridSpec(8), 2, kmax=2))
        argv = [str(field) if arg == "{field}" else arg for arg in argv]
        with pytest.raises(SystemExit) as exit_info:
            main(argv + ["--output", str(tmp_path / "out")])
        assert exit_info.value.code == 2
        assert "Traceback" not in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [field]

    def test_nan_exponent_is_a_domain_error(self, capsys):
        assert main(["wholespace", "embedding", "--p", "nan", "--nodes", "16"]) == 1
        assert "need p > 2" in _one_error_line(capsys)

    @pytest.mark.parametrize("p, message", [("2.001", "the rule gives nan"),
                                            ("2.01", "128 nodes resolve")])
    def test_embedding_near_two_is_a_domain_error(self, capsys, p, message):
        """Once printed nan, or a constant 4e-6 off, and exited 0."""
        assert main(["wholespace", "embedding", "--p", p, "--eps", "0.5"]) == 1
        assert message in _one_error_line(capsys)

    def test_failed_allocation_is_one_error_line(self, tmp_path, capsys, monkeypatch):
        """A MemoryError, such as numpy raises for an array the machine cannot
        hold, exits 1 with one line and writes no file."""

        def too_large(grid, amplitude):
            raise MemoryError("Unable to allocate 12.0 TiB for an array")

        monkeypatch.setattr(families, "taylor_green_2d", too_large)
        out = tmp_path / "tg.field"
        assert main(["construct", "taylor-green", "--n", "8192", "--output", str(out)]) == 1
        assert "out of memory: Unable to allocate" in _one_error_line(capsys)
        assert list(tmp_path.iterdir()) == []

    def test_repeated_header_key_is_a_domain_error(self, tmp_path, grid16, capsys):
        path = str(tmp_path / "u.field")
        write_field(path, random_divergence_free(grid16, 6, kmax=4))
        raw = open(path, "rb").read()
        open(path, "wb").write(b"n=99\n" + raw)
        assert main(["norms", path]) == 1
        assert "appears more than once" in _one_error_line(capsys)

    def test_header_fuzz_is_a_domain_error(self, tmp_path, grid16, capsys):
        """Seeded malformed headers and bodies: each exits 1 or 2 with one
        message line, and a huge n is refused before any body is read."""
        path = str(tmp_path / "u.field")
        write_field(path, random_divergence_free(grid16, 6, kmax=4))
        raw = open(path, "rb").read()
        header, body = raw.split(b"\n\n", 1)
        rng = np.random.default_rng(20240)

        def with_n(value):
            return header.replace(b"n=16", b"n=" + value.encode()) + b"\n\n" + body

        cases = []
        for _ in range(4):
            cases += [
                with_n(str(rng.choice(["16.5", "sixteen", "1e3", "0x10", "", "16 16", "+-4"]))),
                with_n(str(-2 * int(rng.integers(2, 64)))),
                with_n(str(2 * int(rng.integers(2, 64)) + 1)),
                with_n(str(2 * int(rng.integers(10**5, 10**9)))),
                with_n(str(2 * int(rng.integers(3, 64)))),  # even n, wrong payload
                header + b"\nprecision=f64\n\n" + body,  # duplicate key
                header + b"\n" + body,  # no blank line
                raw[: len(header) + 2 + int(rng.integers(0, len(body)))],  # truncated
                raw[: int(rng.integers(0, len(header)))],  # truncated header
                b"k=" + b"v" * int(rng.integers(300, 3000)) + b"\n\n" + body,  # long line
                b"".join(b"k%d=v\n" % i for i in range(int(rng.integers(70, 200)))) + b"\n",
            ]
        for case in cases:
            open(path, "wb").write(case)
            assert main(["norms", path]) in (1, 2), case[:80]
            _one_error_line(capsys)

    def test_oversized_body_is_refused_unread(self, tmp_path, grid16):
        """The payload size is compared with the header's n before the body
        is read: a 64 MB (sparse) body behind an n=16 header costs no memory."""
        path = str(tmp_path / "u.field")
        write_field(path, random_divergence_free(grid16, 6, kmax=4))
        with open(path, "r+b") as fh:
            fh.truncate(64 * 2**20)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="payload"):
                read_field(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_annulus_sweep_rejects_a_nonzero_mean(self, capsys, monkeypatch):
        def with_mean(n, grid):
            w = annulus_analog(n, grid)
            coeffs = w.half.copy()
            coeffs[2, 0, 0, 0] = 0.5
            return SpectralVectorField(grid, coeffs)

        monkeypatch.setattr(families, "annulus_analog", with_mean)
        assert main(["sweep", "annulus-analog", "--n", "3", "--n-grid", "16"]) == 1
        assert "requires a mean-zero field" in _one_error_line(capsys)

    def test_overflowing_criterion_quantity_is_inf(self, capsys):
        assert main(["wholespace", "lambda-n", "--n", "3", "--nu", "0.01"]) == 0
        (row,) = json.loads(capsys.readouterr().out)["rows"]
        assert row["criterion_quantity"] == "inf"


class TestAnalysisPeakMemory:
    """tracemalloc sees numpy's data allocations.  In units of one n=32 half
    spectrum (3, 32, 32, 17) of complex, 835 KB: the random field's draws
    die before its projection, whose result takes the gradient's buffer, and
    check holds the vorticity but not the velocity through the vorticity's
    inverse transform.  Before, random_divergence_free and construct peaked
    at 5.2 and check at 3.9."""

    UNIT = 3 * 32 * 32 * 17 * 16

    def peak(self, call) -> float:
        call()  # warm: the parser and the transform plans are per process
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            call()
            return (tracemalloc.get_traced_memory()[1] - start) / self.UNIT
        finally:
            tracemalloc.stop()

    def test_random_divergence_free(self):
        assert self.peak(lambda: random_divergence_free(GridSpec(32), 3)) <= 3.0

    def test_construct(self, tmp_path):
        argv = ["construct", "random", "--n", "32", "--seed", "3", "--output",
                str(tmp_path / "u.field")]
        assert self.peak(lambda: main(argv)) <= 3.5

    def check_peak(self, tmp_path, *flags) -> float:
        field = str(tmp_path / "u.field")
        write_field(field, random_divergence_free(GridSpec(32), 3))
        argv = ["check", field, "--nu", "0.1", "--output", str(tmp_path / "out.json"), *flags]
        return self.peak(lambda: main(argv))

    def test_check(self, tmp_path):
        assert self.check_peak(tmp_path) <= 3.5

    def test_check_iftimie(self, tmp_path):
        """The Iftimie norms are plane blocks of the velocity's spectrum, so
        the flag adds no field: it peaked at 3.7 when P2d u and its remainder
        were formed as two fields."""
        assert self.check_peak(tmp_path, "--iftimie-c", "2") <= 3.5


class TestAnalysisTransformBudget:
    def test_sweep_annulus_transform_count(self, tmp_path, transform_counts):
        """sweep annulus-analog makes no transform: annulus_analog builds
        coefficients directly, and the Sobolev norms, the p = 2 Besov
        objective and its Hermitian check are coefficient sums."""
        out = str(tmp_path / "sweep.json")
        assert main(["sweep", "annulus-analog", "--n", "3,6,12", "--n-grid", "32",
                     "--output", out]) == 0
        assert transform_counts == {"3d": 0, "other": 0}

    def test_sweep_rescaled_transform_count(self, tmp_path, transform_counts):
        """sweep rescaled transforms each rescaled field once (3 components
        per row); its four Lebesgue norms reduce slices of those samples."""
        out = str(tmp_path / "sweep.json")
        assert main(["sweep", "rescaled", "--m", "2,4,8", "--n-grid", "32",
                     "--output", out]) == 0
        assert transform_counts == {"3d": 3 * 3, "other": 0}

    @pytest.mark.parametrize(
        "verb, count",
        [(["norms"], 3), (["check", "--nu", "0.1"], 6), (["check", "--nu", "0.1", "--iftimie-c", "2"], 6)],
        ids=["norms", "check", "check-iftimie"],
    )
    def test_read_verb_transform_count(self, tmp_path, transform_counts, verb, count):
        """The field read is one 3-component rfftn; norms adds nothing, and
        check adds the one 3-component transform of the vorticity that both
        of its Lp norms share."""
        field = str(tmp_path / "u.field")
        assert main(["construct", "random", "--n", "16", "--seed", "2", "--output", field]) == 0
        transform_counts.update({"3d": 0, "other": 0})
        assert main([verb[0], field, *verb[1:], "--output", str(tmp_path / "out.json")]) == 0
        assert transform_counts == {"3d": count, "other": 0}

    def test_check_builds_each_quantity_once(self, tmp_path, transform_counts, monkeypatch):
        """One n=64 check: the read's forward transform and the vorticity's
        inverse, one curl, and the velocity and vorticity spectra."""
        path = str(tmp_path / "u.field")
        write_field(path, random_divergence_free(GridSpec(64), 5))
        calls = {"curl_coeffs": 0, "ShellSpectrum": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(field_layer, "curl_coeffs",
                            counted("curl_coeffs", field_layer.curl_coeffs))
        monkeypatch.setattr(norms, "ShellSpectrum", counted("ShellSpectrum", norms.ShellSpectrum))
        transform_counts.update({"3d": 0, "other": 0})
        assert main(["check", path, "--nu", "0.1", "--output", str(tmp_path / "out.json")]) == 0
        assert calls == {"curl_coeffs": 1, "ShellSpectrum": 2}
        assert transform_counts == {"3d": 3 + 3, "other": 0}
