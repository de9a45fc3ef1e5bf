"""Record the reference outputs that the benchmark checks every run against.

    python3 benchmarks/record_reference.py            # full-size workloads
    python3 benchmarks/record_reference.py --tiny     # toy sizes of the tests

Run it only at the commit that defines the benchmark: the references pin the
outputs of that commit, for field seeds 0 .. REFERENCE_SEEDS-1.  Every
invocation must exit 0 and pass its closed-form oracles before it is stored.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from run import WORK, reference_path  # noqa: E402


def record(spec, tiny: bool) -> None:
    from almost2d.cli import main as cli_main

    ref = {"rtol": workloads.RTOL, "common": {}, "seeds": {}}
    for seed in range(workloads.REFERENCE_SEEDS):
        work = os.path.join(WORK, f"record-{spec.name}-{os.getpid()}")
        os.makedirs(work, exist_ok=True)
        try:
            spec.setup(work, seed)
            seeded = {}
            for inv in spec.operation(work, seed):
                if not inv.seeded and seed > 0:
                    continue
                code = cli_main(inv.argv)
                errors = [f"exit code {code}"] if code else (inv.oracle(inv) if inv.oracle else [])
                if errors:
                    raise SystemExit(f"{spec.name} seed {seed} {inv.key}: {errors}")
                (seeded if inv.seeded else ref["common"])[inv.key] = spec.extract(inv)
            ref["seeds"][str(seed)] = seeded
        finally:
            shutil.rmtree(work, ignore_errors=True)
        print(f"{spec.name}: field seed {seed} recorded", flush=True)
    path = reference_path(spec.name, tiny)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(ref, fh, separators=(",", ":"))
        fh.write("\n")


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--tiny", action="store_true")
    p.add_argument("--workload", choices=sorted(workloads.WORKLOADS), default=None)
    args = p.parse_args()
    specs = workloads.TINY if args.tiny else workloads.WORKLOADS
    for name, spec in specs.items():
        if args.workload in (None, name):
            record(spec, args.tiny)
    return 0


if __name__ == "__main__":
    sys.exit(main())
