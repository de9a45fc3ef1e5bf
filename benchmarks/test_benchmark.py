"""Tests of the benchmark itself, on the toy-size workloads.

    python3 -m pytest benchmarks -q

They are not part of the package's test suite (``testpaths`` names only
``tests``), so the suite's time budget does not grow.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCHMARK = json.load(fh)
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def run(workload: str, trace: int, seed: int = 3, cwd: str = ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "benchmarks", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def result_of(proc) -> tuple[str, dict]:
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1])


def test_workload_registry_matches_benchmark_file():
    assert sorted(WORKLOADS) == sorted(workloads.WORKLOADS) == sorted(workloads.TINY)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_end_to_end_metric(workload):
    stdout, result = result_of(run(workload, trace=0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())
    for name, unit in want.items():
        assert any(line.split()[:1] == [name] and line.endswith(unit)
                   for line in stdout.splitlines()), name
    # the per-workload figures, each printed with its sample count
    names = ["ops_failed_ratio"] + (["batch_s.p50"] if workload == "analysis"
                                    else ["simulate_s.p50", "steps_per_s"])
    for name in names:
        assert any(line.split()[:1] == [name] and "(n=" in line
                   for line in stdout.splitlines()), name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_two_traced_runs_give_identical_counts(workload):
    _, first = result_of(run(workload, trace=1))
    _, second = result_of(run(workload, trace=1))
    want = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    for result in (first, second):
        assert result["correct"]
        assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    counts = [name for name, unit in want.items() if unit in ("count", "count/step", "B")]
    assert [first["metrics"][k]["value"] for k in counts] == \
        [second["metrics"][k]["value"] for k in counts]
    assert first["metrics"]["fft.transforms_3d"]["value"] > 0


def test_reference_comparison_passes_roundoff_and_fails_a_real_change():
    ref = {"K": [0.5, 0.25], "E": [3.0, 2.0], "status": "completed"}
    assert workloads.compare({"K": [0.5 * (1 + 1e-13), 0.25], "E": [3.0, 2.0],
                              "status": "completed"}, ref) == []
    assert workloads.compare({"K": [0.5, 0.25], "E": [3.0, 2.0 * (1 + 1e-6)],
                              "status": "completed"}, ref)
    assert workloads.compare({"K": [0.5], "E": [3.0, 2.0], "status": "completed"}, ref)
    assert workloads.compare({"K": [0.5, 0.25], "E": [3.0, 2.0], "status": "nan_abort"}, ref)


def test_without_the_program_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("dns-n16", trace=0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
