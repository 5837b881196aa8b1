"""Check that two revisions give the same results on one fixed corpus.

Each revision runs from its own ``git archive`` export
(``bench_record.export``), so uncommitted files take no part. A fresh
interpreter per revision, with ``PYTHONHASHSEED=0``, prints the corpus
below one result per line; the tool compares the two outputs line by line.

* ``parse_pattern`` on 25 texts, with no expected length and with 3 and 64;
* ``load_dataset`` on both benchmark workloads' seed-1 and seed-2 texts: as
  is, as CRLF, with a bare last line, under a ``# header`` and a blank line,
  and with each of 12 bad lines at lines 6, 1025, 2049 and 3072; then
  ``parse_pattern`` and the dirac answer on each text's first 5,000 queries;
* the dirac, expansion and fwht answers on every word of 3 random datasets
  at each L = 1..12, and the bytes of each dataset's ``Spectrum.coefficients``;
* the bytes of ``fast_transform``'s forward, round-trip and inverse outputs
  on seeded vectors at each L = 1..12, at scales 1e-300, 1 and 1e300;
* the stdout, stderr and exit code of ``spectrum``, ``basis``, ``lemma``
  and ``estimate``;
* for each value type (BitPattern, BasisIndex, Dataset, PmfEstimate,
  SignAssignment, Spectrum): each value's repr and hash, its equality with
  every other value and with the tuple of its fields, and the repr and hash
  of each copy (every pickle protocol, copy.copy, copy.deepcopy). Pickle
  bytes are left out: a value may change how it pickles and still rebuild
  the same value. Spectrum is built from integer numerators; each float
  numerator vector gives one line, its value or the error that refuses it.

A large result is printed as a digest. The workloads come from the change's
``perfbench/workloads.py``, so both revisions read the same texts.

    python3 tools/parity.py --parent HEAD~1 [--change HEAD]

Run it from the repository root. It prints the lines that differ (the
first 20, then how many differ in all) and exits 1, or the number of
identical lines and exits 0. It takes about 10 s on 2 vCPUs.
"""
from __future__ import annotations

import argparse
import contextlib
import copy
import hashlib
import io
import itertools
import os
import pickle
import random
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_record import export, git  # noqa: E402

PATTERN_TEXTS = [
    "0", "1", "0110", " 0,1,1 \n", "0 1\t1", "01\r\n", "1 1 0 0", "1" * 64, "1" * 65,
    "0x", "0١", "0０", "+1", "-1", "1_0", "0b1", "2", "\udce9", "0\ud800",
    "", ",", "é", "0\x00", "0　1", "０",
]
#: One line per kind of fault (and three that are not faults) for a dataset of length L.
BAD_LINES = {
    "0x": lambda length: "0x",
    "ragged": lambda length: "0" * (length + 1 if length < 64 else 63),
    "arabic-digit": lambda length: "0١",
    "fullwidth-digit": lambda length: "0０",
    "not-utf8": lambda length: "0\udce9",
    "65-digits": lambda length: "1" * 65,
    "0b-prefix": lambda length: "0b1",
    "underscore": lambda length: " 1_0",
    "sign": lambda length: "+1",
    "blank": lambda length: "",
    "comment": lambda length: "# comment",
    "comma": lambda length: ",".join("1" * length),
}
BAD_LINE_NUMBERS = (6, 1025, 2049, 3072)
#: The fields a value of each type is never equal to as a tuple.
FIELDS = {
    "BitPattern": ("word", "length"),
    "BasisIndex": ("mask", "length"),
    "Dataset": ("counts", "length"),
    "PmfEstimate": ("method", "dataset"),
    "SignAssignment": ("values",),
    "Spectrum": ("length", "sample_size", "numerators"),
}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8", "surrogatepass")).hexdigest()[:16]


def array_digest(array) -> str:
    return f"{array.dtype} {hashlib.sha256(array.tobytes()).hexdigest()[:16]}"


def outcome(show, call, *args) -> str:
    """show(call(*args)), or the type and message of the error it raises."""
    from diracpmf import DiracPmfError
    try:
        return show(call(*args))
    except (DiracPmfError, ValueError, TypeError) as exc:
        return f"{type(exc).__name__}: {exc}"


def parse_lines() -> list[str]:
    from diracpmf import parse_pattern
    return [f"parse {text!r} {expected}: {outcome(repr, parse_pattern, text, expected)}"
            for text in PATTERN_TEXTS for expected in (None, 3, 64)]


def dataset_lines(workloads_dir: str) -> list[str]:
    from diracpmf import PmfEstimate, load_dataset, parse_pattern
    sys.path.insert(0, workloads_dir)
    from workloads import SPECS, generate

    def summary(dataset) -> str:
        return (f"N={dataset.size} L={dataset.length} distinct={len(dataset.counts)}"
                f" hash={hash(dataset)} repr={digest(repr(dataset))}")

    out = []
    for name, seed in itertools.product(("serve-L64", "verify-L14"), (1, 2)):
        workload = generate(SPECS[name], seed)
        text, length = workload.dataset_text, workload.spec.length
        variants = {
            "as is": text,
            "crlf": text.replace("\n", "\r\n"),
            "bare last line": text[:-1],
            "header and blank": "# header\n\n" + text,
        }
        lines = text.splitlines(keepends=True)
        for (kind, bad), number in itertools.product(BAD_LINES.items(), BAD_LINE_NUMBERS):
            variants[f"{kind} at {number}"] = "".join(
                lines[:number - 1] + [bad(length) + "\n"] + lines[number:])
        for label, variant in variants.items():
            out.append(f"load {name} seed {seed} {label}:"
                       f" {outcome(summary, load_dataset, io.StringIO(variant))}")
        estimate = PmfEstimate.fit(load_dataset(io.StringIO(text)), "dirac")
        queries = [parse_pattern(query, length) for query in workload.query_texts[:5000]]
        answers = [(query.word, query.length, estimate(query)) for query in queries]
        out.append(f"queries {name} seed {seed}: {digest(repr(answers))}")
    return out


def path_lines() -> list[str]:
    from diracpmf import PmfEstimate, all_patterns, dataset_from_words, estimate_coefficients
    rng = random.Random(31)
    out = []
    for length in range(1, 13):
        for number in range(3):
            words = [rng.getrandbits(length) for _ in range(rng.randint(1, 3000))]
            dataset = dataset_from_words(words, length)
            for method in ("dirac", "expansion", "fwht"):
                estimate = PmfEstimate.fit(dataset, method)
                answers = [estimate(query) for query in all_patterns(length)]
                out.append(f"paths L={length} #{number} {method}: {digest(repr(answers))}")
            coefficients = estimate_coefficients(dataset).coefficients
            out.append(f"coefficients L={length} #{number}: {array_digest(coefficients)}")
    return out


def transform_lines() -> list[str]:
    from diracpmf import fast_transform
    rng = random.Random(32)
    out = []
    for length, scale in itertools.product(range(1, 13), (1e-300, 1.0, 1e300)):
        values = [rng.uniform(-scale, scale) for _ in range(1 << length)]
        forward = fast_transform(values)
        outputs = [forward, fast_transform(forward, "inverse"), fast_transform(values, "inverse")]
        out.append(f"fast_transform L={length} scale {scale}: forward, round trip, inverse"
                   f" {' '.join(map(array_digest, outputs))}")
    return out


def cli_lines() -> list[str]:
    from diracpmf.cli import main
    commands = [
        ["spectrum", "--input", "{L2}"], ["spectrum", "--input", "{L3}", "--pretty"],
        *(["basis", "--length", str(length), "--check", "orthogonality"]
          for length in (1, 2, 3, 8, 12)),
        ["basis", "--length", "3"], ["basis", "--length", "4", "--ordering", "by_cardinality"],
        ["basis", "--length", "0"], ["basis", "--length", "25"],
        *(["lemma", "--length", str(length)] for length in (1, 4, 9, 10)),
        ["lemma", "--length", "3", "--signs", "+-+"], ["lemma", "--length", "3", "--signs", "+x+"],
        ["lemma", "--length", "0"],
        *(["estimate", "--input", file, "--query", query, "--method", method]
          for file, query in (("{L2}", "01"), ("{L3}", "110"), ("{L3}", "01"))
          for method in ("dirac", "expansion", "fwht")),
    ]
    out = []
    with tempfile.TemporaryDirectory() as directory:
        files = {"{L2}": "01\n01\n11\n", "{L3}": "011\n011\n110\n"}
        for key, text in files.items():
            files[key] = os.path.join(directory, key.strip("{}") + ".txt")
            Path(files[key]).write_text(text)
        for command in commands:
            argv = [files.get(arg, arg) for arg in command]
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(argv)
            out.append(f"cli {' '.join(command)}: exit {code} stderr {stderr.getvalue()!r}"
                       f" stdout {digest(stdout.getvalue())}")
    return out


def values() -> list:
    import numpy as np

    from diracpmf import BitPattern, Dataset, PmfEstimate, load_dataset, parse_pattern
    from diracpmf.verify import BasisIndex, SignAssignment, Spectrum, estimate_coefficients
    datasets = [
        Dataset({3: 2, 0: 1}, 2), Dataset({0: 1, 3: 2}, 2), load_dataset(["11", "00", "11"]),
        Dataset({1: 1}, 1), Dataset({(1 << 64) - 1: 3, 0: 1}, 64), Dataset({5: 10**20}, 3),
    ]
    return [
        *map(parse_pattern, ["0", "00", "1", "0110", "1" * 64, "0" * 64]),
        BitPattern((0, 1, 1, 0)), BitPattern.from_word(5, 3),
        *(BasisIndex(mask, length)
          for mask, length in [(0, 1), (1, 1), (5, 4), (5, 5), (4, 4), ((1 << 20) - 1, 20)]),
        *datasets,
        *(PmfEstimate.fit(dataset, method)
          for dataset in datasets[::3] for method in ("dirac", "expansion", "fwht")),
        *map(SignAssignment, [(1,), (-1,), (1, -1, 1), (1, 1, 1)]),
        SignAssignment.from_string("+-+"),
        *map(estimate_coefficients, datasets[:4]),
        Spectrum(1, 1, np.zeros(2, np.int64)), Spectrum(1, 1, np.array([-1, 1])),
        Spectrum(1, 2, np.zeros(2, np.int64)), Spectrum(1, 1, np.array([3, 0], np.int32)),
        Spectrum(1, 1, np.array([3, 0], np.int64)),
    ]


def float_spectrum_lines() -> list[str]:
    import numpy as np

    from diracpmf.verify import Spectrum

    def show(spectrum) -> str:
        return f"{spectrum!r} hash {hash(spectrum)}"

    return [f"spectrum from {numerators!r}: {outcome(show, Spectrum, 1, 1, np.array(numerators))}"
            for numerators in ([0.0, 0.0], [-0.0, 0.0], [np.nan, 0.0], [3.0, 0.0])]


def value_lines() -> list[str]:
    items = values()
    out = []
    for number, value in enumerate(items):
        fields = tuple(getattr(value, name) for name in FIELDS[type(value).__name__])
        relations = "".join("=" if value == other else "!" if value != other else "?"
                            for other in items)
        out.append(f"value #{number} {type(value).__name__}: repr {value!r} hash {hash(value)}"
                   f" equal to {relations} fields {value == fields} {fields == value}"
                   f" {value != fields}")
        copies = [pickle.loads(pickle.dumps(value, protocol))
                  for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for label, other in [*enumerate(copies), ("copy", copy.copy(value)),
                             ("deepcopy", copy.deepcopy(value))]:
            arrays = [getattr(other, "numerators", None), getattr(other, "table", None),
                      getattr(getattr(other, "spectrum", None), "numerators", None)]
            writeable = [array.flags.writeable for array in arrays if hasattr(array, "flags")]
            out.append(f"value #{number} copy {label}: repr {other!r} hash {hash(other)}"
                       f" equal {other == value} {value == other} writeable {writeable}")
    return out


def corpus(workloads_dir: str) -> None:
    """Print every result of the corpus, one per line (run in the child)."""
    for line in [*parse_lines(), *dataset_lines(workloads_dir), *path_lines(), *transform_lines(),
                 *cli_lines(), *value_lines(), *float_spectrum_lines()]:
        print(line.encode("unicode_escape").decode())


def run_corpus(tree: Path, workloads_dir: Path) -> list[str]:
    """The corpus's output lines for one exported tree."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONHASHSEED": "0"}
    code = "import sys; sys.path.insert(0, sys.argv[1]); import parity; parity.corpus(sys.argv[2])"
    proc = subprocess.run(
        [sys.executable, "-c", code, str(Path(__file__).resolve().parent), str(workloads_dir)],
        cwd=tree, env=env, capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(f"the corpus crashed in {tree} (exit {proc.returncode}):\n{proc.stderr}")
    return proc.stdout.splitlines()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="parent revision")
    parser.add_argument("--change", default="HEAD", help="changed revision (default HEAD)")
    args = parser.parse_args()

    revisions = {side: git("rev-parse", rev).strip()
                 for side, rev in (("parent", args.parent), ("change", args.change))}
    outputs = {}
    with tempfile.TemporaryDirectory(prefix="parity-") as workdir:
        trees = {side: Path(workdir) / side for side in revisions}
        for side, revision in revisions.items():
            trees[side].mkdir()
            export(revision, trees[side])
        for side, tree in trees.items():
            outputs[side] = run_corpus(tree, trees["change"] / "perfbench")
    pairs = itertools.zip_longest(outputs["parent"], outputs["change"], fillvalue="(no line)")
    differences = [(number, old, new) for number, (old, new) in enumerate(pairs, 1) if old != new]
    for number, old, new in differences[:20]:
        print(f"line {number}:\n  parent {revisions['parent'][:12]}: {old}\n"
              f"  change {revisions['change'][:12]}: {new}")
    if differences:
        print(f"parity: {len(differences)} of {len(outputs['change'])} lines differ")
        return 1
    print(f"parity: {len(outputs['change'])} lines identical at {revisions['parent'][:12]}"
          f" and {revisions['change'][:12]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
