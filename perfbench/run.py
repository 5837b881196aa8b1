"""Benchmark of diracpmf: one workload, one seed, one closed loop, one process.

Run from the repository root:

    python3 perfbench/run.py --workload serve-L64 --seed 1 --seconds 50 --trace 0

The package is driven only through its public functions and through the
CLI process (``python -m diracpmf.cli`` with PYTHONPATH=src). Every call
starts after the previous one returned. The last stdout line is one JSON
object: correct, attempted, failed and metrics -- the end-to-end metrics
of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``. The line before it records the environment, the workload
descriptors and the sample count behind each timing. Generated files and
span traces go to .perfbench_out/. README.md in this directory says why
each workload exists and which layer metric should move which end-to-end
metric.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

from tracing import Tracer
from workloads import SPECS, generate

ROOT = Path.cwd()
NPROC = len(os.sched_getaffinity(0))


def git_revision() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() or None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SPECS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "diracpmf" / "__init__.py").is_file():
        print("error: run from the root of a diracpmf checkout (src/diracpmf not found)",
              file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {metric["name"]: metric["unit"]
             for metric in declared["per_layer" if args.trace else "end_to_end"]}

    # Cap BLAS/OpenMP pools at nproc here and, through the inherited
    # environment, in every CLI child. numpy reads them on first import.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        current = os.environ.get(var, "")
        if not current.isdigit() or int(current) > NPROC:
            os.environ[var] = str(NPROC)
    sys.path.insert(0, str(ROOT / "src"))
    import numpy

    import measure

    measure.OUT.mkdir(exist_ok=True)
    workload = generate(SPECS[args.workload], args.seed)
    measure.check_hash(workload)
    # The generated text and the oracle are the benchmark's, not the
    # program's: keep the cyclic collector from walking them.
    gc.collect()
    gc.freeze()
    run_id = f"{args.workload}-{args.seed}-{os.getpid()}"
    path = measure.OUT / f"{run_id}.txt"
    path.write_text(workload.dataset_text)
    ops = measure.Ops()
    try:
        if args.trace:
            tracer = Tracer(run_id)
            values, samples = measure.traced(workload, path, ops, tracer)
            tracer.write(measure.OUT / f"trace-{args.workload}-{args.seed}.jsonl")
        else:
            values, samples = measure.end_to_end(workload, path, args.seconds, ops)
    finally:
        path.unlink()
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(values)} differ from BENCHMARK.json {sorted(units)}")

    print(json.dumps({
        "run": run_id,
        "environment": {
            "seed": args.seed,
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "git_revision": git_revision(),
            "nproc": NPROC,
        },
        "workload": workload.descriptors(),
        "samples": samples,
        "fail_ratio": ops.failed / max(ops.attempted, 1),
        "errors": ops.errors,
    }))
    print(json.dumps({
        "correct": ops.failed == 0 and ops.attempted > 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
