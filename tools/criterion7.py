"""Run acceptance criterion 7 in alternating fresh processes on two revisions.

Criterion 7 (tests/test_acceptance.py) calls
``_bench_one_length(L, samples=1000, queries=1000, seed=1234)`` at L = 8,
10 and 12 and passes when every cell agrees and the expansion/dirac query
ratios rise strictly. Each run here does the same in a new interpreter, run
i starting the parent first when i is even and the change first when it is
odd, so a slow spell of a shared host lands on both sides. Each revision
runs from its own ``git archive`` export (``bench_record.export``), so
uncommitted files take no part.

    python3 tools/criterion7.py --parent HEAD~1 --runs 30

Run it from the repository root. It prints one line per run to stderr and,
per side, the failures out of N, the median and interquartile range of the
L=8 ratio, the smallest L10-L8 gap and the smallest, 10th-percentile and
median L10/L8 margin (the L=10 ratio over the L=8 one) to stdout. The
quantiles interpolate linearly between runs (``statistics.quantiles``'s
inclusive method).
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_record import export, git  # noqa: E402

LENGTHS = (8, 10, 12)

#: The body of criterion 7, printing the three ratios and whether every cell agreed.
CHILD = f"""
import json
from diracpmf.cli import _bench_one_length
ratios, agreement = [], True
for length in {LENGTHS!r}:
    report, agreed = _bench_one_length(length, samples=1000, queries=1000, seed=1234)
    agreement = agreement and agreed is True
    ratios.append(report["speedup_expansion_over_dirac"])
print(json.dumps({{"ratios": ratios, "agreement": agreement}}))
"""


def run_once(tree: Path) -> dict:
    """One fresh-process criterion-7 run on an exported tree; returns its ratios and verdict."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    proc = subprocess.run([sys.executable, "-c", CHILD], cwd=tree, env=env,
                          capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"criterion 7 crashed in {tree} (exit {proc.returncode}):\n{proc.stderr}")
    run = json.loads(proc.stdout)
    low, middle, high = run["ratios"]
    run["passed"] = run["agreement"] and low < middle < high
    return run


def quantiles(values: list[float], n: int) -> list[float]:
    """The n - 1 cut points of values in n groups; one value is every cut point."""
    if len(values) == 1:
        return values * (n - 1)
    return statistics.quantiles(values, n=n, method="inclusive")


def tally(runs: list[dict]) -> str:
    """The summary that CHANGES entries quote for one side."""
    low_ratios = [run["ratios"][0] for run in runs]
    gaps = [run["ratios"][1] - run["ratios"][0] for run in runs]
    margins = [run["ratios"][1] / run["ratios"][0] for run in runs]
    failed = sum(not run["passed"] for run in runs)
    lower, _, upper = quantiles(low_ratios, 4)
    return (f"{failed}/{len(runs)} failed; L=8 ratio median "
            f"{statistics.median(low_ratios):.2f}, interquartile range {upper - lower:.2f}; "
            f"smallest L10-L8 gap {min(gaps):.2f}; "
            f"L10/L8 margin smallest {min(margins):.3f}, "
            f"10th percentile {quantiles(margins, 10)[0]:.3f}, "
            f"median {statistics.median(margins):.3f}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="parent revision")
    parser.add_argument("--change", default="HEAD", help="changed revision (default HEAD)")
    parser.add_argument("--runs", type=int, required=True, help="fresh processes per side")
    args = parser.parse_args()
    if args.runs < 1:
        parser.error("--runs must be at least 1")

    revisions = {side: git("rev-parse", rev).strip()
                 for side, rev in (("parent", args.parent), ("change", args.change))}
    runs: dict[str, list[dict]] = {side: [] for side in revisions}
    with tempfile.TemporaryDirectory(prefix="criterion7-") as workdir:
        trees = {}
        for side, revision in revisions.items():
            trees[side] = Path(workdir) / side
            trees[side].mkdir()
            export(revision, trees[side])
        for index in range(args.runs):
            order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
            for side in order:
                run = run_once(trees[side])
                runs[side].append(run)
                ratios = ", ".join(f"{ratio:.2f}" for ratio in run["ratios"])
                print(f"run {index + 1}/{args.runs} {side}: ratios {ratios}"
                      f" {'pass' if run['passed'] else 'FAIL'}", file=sys.stderr)
    for side, revision in revisions.items():
        print(f"{side} {revision[:12]}: {tally(runs[side])}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
