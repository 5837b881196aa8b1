"""Run-to-run spread of the benchmark, as its acceptance rule measures it.

Run from the repository root:

    python3 perfbench/spread.py --workload serve-L64 --seeds 1-10

runs ``perfbench/run.py`` once per seed, one run at a time, and prints for
each end-to-end metric its median, the distance between its first and
third quartiles as a share of the median, and that share against a third
of the metric's bound in BENCHMARK.json.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", type=seed_range, help="e.g. 1-10")
    parser.add_argument("--trace", default=0, type=int, choices=[0, 1])
    args = parser.parse_args()
    declared = json.loads(Path("BENCHMARK.json").read_text())
    key = "per_layer" if args.trace else "end_to_end"
    metrics = {metric["name"]: metric for metric in declared[key]}

    values: dict[str, list[float]] = {name: [] for name in metrics}
    for seed in args.seeds:
        command = [sys.executable, *declared["command"][1:], "--workload", args.workload,
                   "--seed", str(seed), "--seconds", str(declared["run_seconds"]),
                   "--trace", str(args.trace)]
        proc = subprocess.run(command, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: incorrect, {result['failed']} of {result['attempted']} failed")
        for name in metrics:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + " ".join(f"{name}={values[name][-1]:.4g}" for name in metrics),
              flush=True)

    for name, metric in metrics.items():
        series = values[name]
        median = statistics.median(series)
        q1, _, q3 = statistics.quantiles(series, n=4)
        share = (q3 - q1) / median if median else float("nan")
        line = f"{name:40s} median {median:12.6g} {metric['unit']:9s} spread {share:7.2%}"
        if "bound" in metric:
            verdict = "ok" if share < metric["bound"] / 3 else "WIDE"
            line += f"  bound/3 {metric['bound'] / 3:6.2%} {verdict}"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
