"""almost2d benchmark: one workload, closed loop, one client, in-process.

    python3 benchmarks/run.py --workload dns-n64 --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 30 --trace 0

The program is driven through ``almost2d.cli.main(argv)`` from this single
process, one invocation after another.  A run:

1. imports ``almost2d`` from ``src/`` next to this directory (never from an
   installed copy), then sets up ``SETUP_REPS`` times: writes the seeded
   inputs and makes one untimed warm-up invocation;
2. repeats the workload's operation for ``--seconds`` (at least
   ``MIN_OPS`` times) and times every invocation;
3. checks every invocation's output (exit code, closed-form oracles and the
   recorded reference) and prints a table and a report, then one JSON
   result line.

The speed of a small shared machine drifts by tens of percent over minutes,
invisibly from inside it (NOTES.md, "Noise").  So a fixed ``Probe`` kernel
runs before the set-ups, after each set-up and after each operation, and
the end-to-end times are reported in reference seconds: each measured time
is scaled by ``Probe.REF_S / mean(probe before, probe after)``.
``setup_s`` is the scaled import time plus the median scaled set-up;
``op_s.p50`` is the median scaled operation.  The raw seconds are in the
table and the report.

With ``--trace 1`` a fixed number of operations runs twice, first with the
span wrappers idle and then recording, and the result holds the per-layer
metrics of the recorded half plus ``trace.overhead_ratio``.  The spans are
written to ``.bench_work/trace-<workload>-seed<seed>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

#: Set-ups per run; ``setup_s`` reports their median.
SETUP_REPS = 3
#: Operations timed at least, however long they take.
MIN_OPS = 3

WORKLOAD_NAMES = ("dns-n64", "dns-n16", "analysis")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="toy-size inputs, for the benchmark's own smoke tests")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not os.path.isfile(os.path.join(SRC, "almost2d", "cli.py")):
        print(f"error: no almost2d sources under {SRC}", file=sys.stderr)
        return 2
    # One single-threaded process: pin native thread pools before numpy loads.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    from tracing import Tracer

    tracer = Tracer()
    t0 = time.perf_counter()
    if args.trace:
        tracer.install_fft_wrappers()
    import almost2d.cli
    import_s = time.perf_counter() - t0
    if not os.path.abspath(almost2d.cli.__file__).startswith(SRC + os.sep):
        print(f"error: imported almost2d from {almost2d.cli.__file__}", file=sys.stderr)
        return 2
    if args.trace:
        tracer.install_span_wrappers()

    import workloads

    spec = (workloads.TINY if args.tiny else workloads.WORKLOADS)[args.workload]
    field_seed = args.seed % workloads.REFERENCE_SEEDS
    reference = load_reference(spec.name, args.tiny, field_seed)
    work = os.path.join(WORK, f"{spec.name}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        runner = Runner(almost2d.cli.main, tracer, spec, reference, work, field_seed)
        probe = Probe()
        probes = [probe()]
        setups = []
        for _ in range(SETUP_REPS):
            setups.append(runner.setup())
            probes.append(probe())
        scaled_setup_s = import_s * probe.scale(probes[0], probes[0]) + statistics.median(
            t * probe.scale(a, b) for t, a, b in zip(setups, probes, probes[1:]))
        if args.trace:
            ops = max(1, round(args.seconds / (2 * spec.nominal_op_s)))
            idle = runner.timed_phase(ops=ops)
            before = resource.getrusage(resource.RUSAGE_SELF)
            tracer.active = True
            traced = runner.timed_phase(ops=ops)
            tracer.active = False
            after = resource.getrusage(resource.RUSAGE_SELF)
            metrics = dict(tracer.layer_metrics())
            # Page faults of short-lived temporaries: kernel time the spans
            # cannot see, and what fewer temporary arrays would save.
            metrics["process.minor_faults"] = (after.ru_minflt - before.ru_minflt, "faults")
            metrics["process.sys_s"] = (after.ru_stime - before.ru_stime, "s")
            metrics["trace.overhead_ratio"] = (traced.best_op_s() / idle.best_op_s(), "ratio")
            phases = [idle, traced]
            tracer.dump(os.path.join(WORK, f"trace-{spec.name}-seed{args.seed}.json"))
        else:
            phase = runner.timed_phase(seconds=args.seconds, probe=probe)
            phases = [phase]
            metrics = {
                "setup_s": (scaled_setup_s, "s"),
                "op_s.p50": (statistics.median(phase.scaled_op_s), "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(p.cli_calls for p in phases)
    failed = sum(p.failed for p in phases)
    report = {
        "workload": spec.name, "seed": args.seed, "field_seed": field_seed,
        "tiny": args.tiny, "trace": args.trace, "operations": phases[-1].ops,
        "setup_s_samples": setups, "import_s": import_s,
        "ops_failed_ratio": failed / attempted,
        "workload_metrics": workload_metrics(spec, phases[-1], import_s + statistics.median(setups),
                                             statistics.median(probes)),
        "failures": [f for p in phases for f in p.failures][:20],
        "provenance": provenance(spec),
    }
    print_report(report, metrics)
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


class Probe:
    """A fixed kernel that tracks the machine's speed, independent of the program.

    It mixes the program's kinds of work: 3-D complex FFTs and elementwise
    arithmetic on freshly allocated arrays (page faults included), and an
    interpreter loop.  ``scale`` turns a time measured between two probes
    into seconds at the speed where the probe takes ``REF_S``.
    """

    REF_S = 0.1

    def __init__(self):
        import numpy as np

        self.np = np
        self.base = np.random.default_rng(0).standard_normal((3, 24, 24, 24))

    def __call__(self) -> float:
        np = self.np
        t0 = time.perf_counter()
        for _ in range(40):
            b = np.fft.ifftn(self.base + 0j, axes=(1, 2, 3))
            np.fft.fftn(b.real * b.real, axes=(1, 2, 3))
        x = 0
        for i in range(1_000_000):
            x += i
        return time.perf_counter() - t0

    def scale(self, before: float, after: float) -> float:
        return 2 * self.REF_S / (before + after)


class Phase:
    def __init__(self):
        self.ops = 0
        self.op_s: list[float] = []
        self.invocation_s: dict[str, list[float]] = {}
        self.scaled_op_s: list[float] = []
        self.cli_calls = 0
        self.failed = 0
        self.failures: list[str] = []
        self.wall_s = 0.0

    def best_op_s(self) -> float:
        """One operation with every invocation at its fastest repetition."""
        return sum(min(t) for t in self.invocation_s.values())


class Runner:
    """Runs invocations of one workload through ``cli.main`` and checks them."""

    def __init__(self, cli_main, tracer, spec, reference, work, field_seed):
        self.cli_main, self.tracer, self.spec = cli_main, tracer, spec
        self.reference, self.work, self.field_seed = reference, work, field_seed

    def setup(self) -> float:
        t0 = time.perf_counter()
        self.spec.setup(self.work, self.field_seed)
        for inv in self.spec.warmup(self.work, self.field_seed):
            code, error = self.invoke(inv)
            if code != 0:
                raise SystemExit(f"warm-up {inv.argv} failed: exit {code} {error or ''}")
        return time.perf_counter() - t0

    def timed_phase(self, seconds: float = 0.0, ops: int = MIN_OPS, probe=None) -> Phase:
        """Operations until ``seconds`` have passed, and at least ``ops`` of them.

        With a probe, each operation is also scaled to reference seconds by
        the probe times measured just before and just after it.
        """
        phase = Phase()
        start = time.perf_counter()
        before = probe() if probe else None
        while phase.ops < ops or time.perf_counter() - start < seconds:
            times = {}
            for inv in self.spec.operation(self.work, self.field_seed):
                t0 = time.perf_counter()
                code, error = self.invoke(inv)
                times[inv.key] = time.perf_counter() - t0
                errors = [error] if error else self.check(inv)
                phase.cli_calls += 1
                if errors:
                    phase.failed += 1
                    phase.failures.append(f"{inv.key}: {'; '.join(errors)}")
            for key, t in times.items():
                phase.invocation_s.setdefault(key, []).append(t)
            phase.op_s.append(sum(times.values()))
            if probe:
                after = probe()
                phase.scaled_op_s.append(phase.op_s[-1] * probe.scale(before, after))
                before = after
            phase.ops += 1
        phase.wall_s = time.perf_counter() - start
        return phase

    def invoke(self, inv) -> tuple[int, str | None]:
        try:
            with self.tracer.span(f"cli.{inv.argv[0]}"):
                code = self.cli_main(inv.argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a raising invocation is a failed one; keep measuring
            traceback.print_exc()
            return -1, "raised " + traceback.format_exc(limit=1).strip().splitlines()[-1]
        return code, None if code == 0 else f"exit code {code}"

    def check(self, inv) -> list[str]:
        try:
            errors = inv.oracle(inv) if inv.oracle else []
            source = self.reference["seeded" if inv.seeded else "common"]
            if inv.key not in source:
                return errors + [f"no reference for {inv.key}"]
            return errors + self._compare(inv, source[inv.key])
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return [f"unreadable output: {exc!r}"]

    def _compare(self, inv, want) -> list[str]:
        import workloads

        return workloads.compare(self.spec.extract(inv), want, inv.key)[:5]


def load_reference(name: str, tiny: bool, field_seed: int) -> dict:
    path = reference_path(name, tiny)
    with open(path) as fh:
        ref = json.load(fh)
    return {"common": ref.get("common", {}), "seeded": ref["seeds"][str(field_seed)]}


def reference_path(name: str, tiny: bool) -> str:
    return os.path.join(HERE, "reference", f"{name}{'-tiny' if tiny else ''}.json")


def workload_metrics(spec, phase: Phase, raw_setup_s: float, probe_s: float) -> dict:
    """Raw seconds and the per-workload figures, with sample counts."""
    ops = len(phase.op_s)
    out = {
        "raw.setup_s": {"value": raw_setup_s, "unit": "s", "samples": SETUP_REPS},
        "raw.op_s.min": {"value": phase.best_op_s(), "unit": "s", "samples": ops},
        "probe_s.p50": {"value": probe_s, "unit": "s", "samples": SETUP_REPS + 1},
        "ops_failed_ratio": {"value": phase.failed / phase.cli_calls, "unit": "ratio",
                             "samples": phase.cli_calls},
        "wall_s": {"value": phase.wall_s, "unit": "s", "samples": ops},
        "ops_per_s": {"value": phase.cli_calls / phase.wall_s, "unit": "1/s",
                      "samples": phase.cli_calls},
    }
    p50 = {"value": statistics.median(phase.op_s), "unit": "s", "samples": ops}
    if hasattr(spec, "steps"):
        out["simulate_s.p50"] = p50
        out["steps_per_s"] = {"value": spec.steps * ops / sum(phase.op_s),
                              "unit": "1/s", "samples": ops}
    else:
        out["batch_s.p50"] = p50
    return out


def provenance(spec) -> dict:
    import numpy
    import scipy

    caches = cpu_caches()
    l2 = caches.get("L2")
    n = max(getattr(spec, "n", 0), *getattr(spec, "random_n", (0,)))
    field_bytes = 3 * n**3 * 16
    return {
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "fft_backend": fft_backend(),
        "cpu_caches_bytes": caches,
        "working_set_computed": {
            "largest_grid": n,
            "complex_vector_field_bytes": field_bytes,
            "gradient_tensor_bytes": 3 * field_bytes,
            "vector_field_over_l2": field_bytes / l2 if l2 else None,
        },
        "memory_bandwidth": "not measured: no array is 4x the last-level cache; "
                            "byte figures are computed from array sizes",
        "threads": {v: os.environ.get(v) for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
    }


def cpu_caches() -> dict:
    """Per-core data/unified cache sizes of cpu0, from sysfs when it exists."""
    base = "/sys/devices/system/cpu/cpu0/cache"
    caches = {}
    try:
        entries = sorted(os.listdir(base))
    except OSError:
        return caches
    for entry in entries:
        try:
            with open(os.path.join(base, entry, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(base, entry, "type")) as fh:
                kind = fh.read().strip()
            with open(os.path.join(base, entry, "size")) as fh:
                size = fh.read().strip()
        except OSError:
            continue
        if kind == "Instruction":
            continue
        scale = {"K": 1024, "M": 1024**2}.get(size[-1:], 1)
        caches[f"L{level}"] = int(size.rstrip("KM")) * scale
    return caches


def fft_backend() -> str:
    extras = [m for m in ("pyfftw", "mkl_fft") if importlib.util.find_spec(m)]
    return ("numpy.fft and scipy.fft default backends, both pocketfft; "
            f"other FFT packages installed: {', '.join(extras) or 'none'}")


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
            return fh.read().strip()
    except OSError:
        return None


def source_digest() -> str:
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "almost2d")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()


def print_report(report: dict, metrics: dict) -> None:
    print(f"workload {report['workload']}  seed {report['seed']} "
          f"(field seed {report['field_seed']})  trace {report['trace']}  "
          f"operations {report['operations']}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit}")
    for name, m in report["workload_metrics"].items():
        print(f"  {name:40s} {m['value']:14.6g} {m['unit']}  (n={m['samples']})")
    print(f"  setup samples: {', '.join(f'{s:.3f}' for s in report['setup_s_samples'])} s"
          f"  import {report['import_s']:.3f} s")
    for failure in report["failures"]:
        print(f"  FAILED {failure}")
    print("report " + json.dumps(report, default=str))


def run_all(args) -> int:
    """Every workload in a fresh process; one table, then a combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"error: {name} exited {proc.returncode}", file=sys.stderr)
            return 1
        lines = proc.stdout.strip().splitlines()
        print("\n".join(line for line in lines[:-1] if not line.startswith("report ")))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update(
            {f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
