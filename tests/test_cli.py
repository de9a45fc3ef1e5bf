"""Field file format and command-line round trips."""

import json
import math

import numpy as np
import pytest

from almost2d import PhysicalVectorField, to_physical
from almost2d.cli import main
from almost2d.families import random_divergence_free
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

    @pytest.mark.parametrize("verb", [["norms"], ["check", "--nu", "0.1"]], ids=["norms", "check"])
    def test_divergent_field_is_a_domain_error(self, tmp_path, grid16, capsys, verb):
        path = str(tmp_path / "div.field")
        write_field(path, PhysicalVectorField(grid16, random_physical(grid16, 12)))
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

    def test_overflowing_criterion_quantity_is_inf(self, capsys):
        assert main(["wholespace", "lambda-n", "--n", "3", "--nu", "0.01"]) == 0
        (row,) = json.loads(capsys.readouterr().out)["rows"]
        assert row["criterion_quantity"] == "inf"


class TestAnalysisTransformBudget:
    def test_sweep_annulus_transform_count(self, tmp_path, transform_counts):
        """sweep annulus-analog makes 3 3-D transforms per besov_norm call (the
        Hermitian check of the vorticity) and no other: annulus_analog builds
        coefficients directly, the Sobolev norms and the p = 2 Besov objective
        are coefficient sums.  Three n values give 9."""
        out = str(tmp_path / "sweep.json")
        assert main(["sweep", "annulus-analog", "--n", "3,6,12", "--n-grid", "32",
                     "--output", out]) == 0
        assert transform_counts == {"3d": 9, "other": 0}
