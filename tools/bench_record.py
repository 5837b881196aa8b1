"""Record a parent/change benchmark comparison as a committed BENCH_<n>.json.

Runs ``perfbench/run.py`` unchanged, in alternating pairs: pair i runs seed
first_seed + i on both revisions, the parent first in even pairs and the
change first in odd ones. Every run lasts BENCHMARK.json's run_seconds.
Each revision runs from its own ``git archive`` export, so uncommitted
files take no part. The output holds, per workload
and end-to-end metric, both sides' medians and quartiles, the pairs the
change won (ties count for neither), and every run's value; and the
seeds, both revisions, the Python and numpy versions and nproc as the runs
recorded them; and each revision's src/ line count. The file is rewritten
after every pair, so a cut session leaves the pairs it finished. Each metric
also gets a verdict, printed as a table to stderr at the end:

* ``gain``: the change wins at least 9 of 10 pairs, and its median beats
  the parent's by more than the parent's quartile spread;
* ``worse``: the change's median is worse than the parent's by more than
  the metric's bound in BENCHMARK.json, a fraction of the parent's median;
* ``within bound`` otherwise.

    python3 tools/bench_record.py --parent aab7ead --change HEAD \\
        --workload serve-L64 --workload verify-L14 --pairs 10 \\
        --first-seed 6001 --out BENCH_6.json

Run it from the repository root. Exports go to --workdir (a new temporary
directory by default), which it leaves in place for inspection.
"""
from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

SCHEMA = 1


def git(*args: str) -> str:
    return subprocess.run(["git", *args], capture_output=True, text=True, check=True).stdout


def export(revision: str, directory: Path) -> None:
    """Extract the tree of a revision into directory."""
    archive = subprocess.run(["git", "archive", revision], capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(directory, filter="data")
        else:
            tar.extractall(directory)


def src_lines(tree: Path) -> int:
    """The `wc -l` total of an export's src/diracpmf/*.py: the size the design aim tracks."""
    return sum(path.read_bytes().count(b"\n") for path in (tree / "src/diracpmf").glob("*.py"))


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced perfbench run; returns its record and result lines."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"perfbench failed in {tree} (exit {proc.returncode}):\n{proc.stderr}")
    record, result = (json.loads(line) for line in lines[-2:])
    return {"record": record, "result": result}


def verdict(entry: dict, bound: float) -> str:
    """gain, worse or within bound, for one summarised metric (see the module docstring)."""
    parent, change = entry["parent"]["median"], entry["change"]["median"]
    ahead = parent - change if entry["better"] == "lower" else change - parent
    low, _, high = entry["parent"]["quartiles"]
    if 10 * entry["change_wins"] >= 9 * entry["pairs"] and ahead > high - low:
        return "gain"
    if -ahead > bound * abs(parent):
        return "worse"
    return "within bound"


def summarise(runs: list[dict], declared: list[dict]) -> dict:
    """Medians, quartiles, pair wins and a verdict per metric over one workload's pairs.

    declared is BENCHMARK.json's end_to_end list: each metric's name, better and bound.
    """
    metrics = {}
    for metric in declared:
        name, direction = metric["name"], metric["better"]
        sides = {
            side: [run[side]["result"]["metrics"][name]["value"] for run in runs]
            for side in ("parent", "change")
        }
        wins = sum(
            (change < parent) if direction == "lower" else (change > parent)
            for parent, change in zip(sides["parent"], sides["change"])
        )
        entry = {"unit": runs[0]["parent"]["result"]["metrics"][name]["unit"], "better": direction}
        for side, values in sides.items():
            entry[side] = {
                "median": statistics.median(values),
                "quartiles": statistics.quantiles(values, n=4),
                "values": values,
            }
        entry["change_wins"] = wins
        entry["pairs"] = len(runs)
        entry["bound"] = metric["bound"]
        entry["verdict"] = verdict(entry, metric["bound"])
        metrics[name] = entry
    return metrics


def verdict_table(workloads: dict) -> str:
    """One row per workload and metric: both medians, the change in percent, wins and verdict."""
    rows = [("workload", "metric", "parent", "change", "delta", "wins", "verdict")]
    for workload, summary in workloads.items():
        for name, entry in summary["metrics"].items():
            parent, change = entry["parent"]["median"], entry["change"]["median"]
            delta = f"{(change - parent) / parent:+.1%}" if parent else "n/a"
            rows.append((workload, name, f"{parent:.6g}", f"{change:.6g}", delta,
                         f"{entry['change_wins']}/{entry['pairs']}", entry["verdict"]))
    widths = [max(len(row[column]) for row in rows) for column in range(len(rows[0]))]
    return "\n".join(
        "  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip() for row in rows
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="parent revision")
    parser.add_argument("--change", default="HEAD", help="changed revision (default HEAD)")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--workdir", type=Path)
    args = parser.parse_args()
    if args.pairs < 2:
        parser.error("--pairs must be at least 2: one pair has no quartiles")

    revisions = {side: git("rev-parse", rev).strip()
                 for side, rev in (("parent", args.parent), ("change", args.change))}
    workdir = args.workdir or Path(tempfile.mkdtemp(prefix="bench_record-"))
    trees = {}
    for side, revision in revisions.items():
        trees[side] = workdir / revision[:12]
        if not trees[side].exists():
            trees[side].mkdir(parents=True)
            export(revision, trees[side])
    declared = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    seconds = declared["run_seconds"]

    output: dict = {
        "schema": SCHEMA,
        "revisions": revisions,
        "src_lines": {side: src_lines(tree) for side, tree in trees.items()},
        "command": "perfbench/run.py --trace 0",
        "seconds": seconds,
        "order": "pair i runs seed first_seed + i; parent first when i is even",
        "quartiles": "statistics.quantiles(values, n=4), exclusive method",
        "workloads": {},
    }
    for workload in args.workload:
        runs: list[dict] = []
        seeds = list(range(args.first_seed, args.first_seed + args.pairs))
        for index, seed in enumerate(seeds):
            order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
            pair = {side: run_once(trees[side], workload, seed, seconds) for side in order}
            runs.append(pair)
            print(f"{workload} seed {seed}: pair {len(runs)}/{args.pairs} done", file=sys.stderr)
            if len(runs) < 2:
                continue
            environment = pair["change"]["record"]["environment"]
            output["environment"] = {key: environment[key] for key in ("python", "numpy", "nproc")}
            output["workloads"][workload] = {
                "seeds": seeds[:len(runs)],
                "all_correct": all(run[side]["result"]["correct"] for run in runs for side in run),
                "metrics": summarise(runs, declared["end_to_end"]),
            }
            args.out.write_text(json.dumps(output, indent=1) + "\n")
    print(verdict_table(output["workloads"]), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
