"""The benchmark's phases: each drives diracpmf through its public API or CLI.

Imported by run.py only after it has capped the thread pools and put the
checkout's src/ on sys.path, because importing this module imports numpy
and the package.
"""
from __future__ import annotations

import gc
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

from diracpmf import (
    BasisIndex,
    PmfEstimate,
    SignAssignment,
    dataset_from_words,
    fast_transform,
    frequency_vector,
    lemma1_sum,
    load_dataset,
    orthogonality_sum,
    parse_pattern,
)
from tracing import Tracer, clock
from workloads import Spec, Workload, project, render

ROOT = Path.cwd()
OUT = ROOT / ".perfbench_out"

#: Agreement tolerance between dirac and the reference paths; fixed here
#: rather than imported, so a change to the package cannot loosen it.
TOL = 1e-12
#: Queries per timing sample: one lookup is too short for the timer.
BLOCK = 200
#: Untimed-run schedule: the fewest set-ups, the share of the run set-ups
#: may take beyond those, the query slice in each round, and the fewest
#: rounds a run makes whatever --seconds says.
MIN_SETUPS = 3
SETUP_SHARE = 0.2
QUERY_SECONDS = 0.6
MIN_ROUNDS = 3
#: Traced run: queries in each of the untraced and traced passes.
TRACE_QUERIES = 20_000
#: A path too costly at the workload's L or size runs in the traced run on
#: this projection: the first PROBE_LINES lines, low PROBE_BITS bits.
PROBE_BITS = 14
PROBE_LINES = 20_000
PROBE_QUERIES = 300
#: Largest L at which the benchmark fits expansion on a whole workload:
#: its fit costs distinct * 2^L.
EXPANSION_MAX_L = 14
ORTHOGONALITY_L = 12
ORTHOGONALITY_PAIRS = 10_000
LEMMA_L = 10
CLI_TIMEOUT_S = 120
#: Traced run: timed `python -c pass` and `import diracpmf.cli` processes each.
INTERPRETER_PROBES = 3


class Ops:
    """Attempted and failed operations, with the first few failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(what)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def check_hash(workload: Workload) -> None:
    """Fail the run if this seed generated other text in an earlier run."""
    record_path = OUT / "hashes.json"
    record = json.loads(record_path.read_text()) if record_path.exists() else {}
    key = f"{workload.spec.name}:{workload.seed}"
    if record.setdefault(key, workload.sha256) != workload.sha256:
        raise SystemExit(f"error: seed {workload.seed} of {workload.spec.name} generated "
                         f"text with hash {workload.sha256}, earlier {record[key]}")
    partial = record_path.with_suffix(f".{os.getpid()}")
    partial.write_text(json.dumps(record, indent=1, sort_keys=True))
    os.replace(partial, record_path)


def run_cli(path: Path, word: int, want: float, spec: Spec, ops: Ops) -> float:
    """Time one `diracpmf estimate` process and check the p it prints."""
    query = render(word, spec.length)
    command = [sys.executable, "-m", "diracpmf.cli", "estimate",
               "--input", str(path), "--query", query, "--method", spec.cli_method]
    start = clock()
    try:
        proc = subprocess.run(command, env=child_env(), capture_output=True, text=True,
                              timeout=CLI_TIMEOUT_S)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        ops.check(False, f"cli {query}: no exit within {CLI_TIMEOUT_S} s")
        return clock() - start
    seconds = clock() - start
    try:
        got = json.loads(proc.stdout)["p"] if proc.returncode == 0 else None
    except (ValueError, KeyError) as exc:
        got = exc
    if spec.cli_method == "dirac":
        ok = got == want
    else:
        ok = isinstance(got, float) and abs(got - want) <= TOL
    ops.check(ok, f"cli {query}: exit {proc.returncode}, p={got!r}, want {want!r}")
    return seconds


def warm_cli(workload: Workload, ops: Ops) -> None:
    """One CLI run on a one-line file, so bytecode compilation is not timed."""
    word = workload.words[0]
    path = OUT / f"warm-{os.getpid()}.txt"
    path.write_text(render(word, workload.spec.length) + "\n")
    try:
        run_cli(path, word, 1.0, workload.spec, ops)
    finally:
        path.unlink()


def setup(path: Path, ops: Ops):
    """Open handle -> load_dataset -> fit dirac; returns (estimate, seconds)."""
    with open(path, encoding="utf-8") as handle:
        start = clock()
        try:
            estimate = PmfEstimate.fit(load_dataset(handle), "dirac")
        except Exception as exc:
            ops.check(False, f"setup: {exc!r}")
            return None, clock() - start
        return estimate, clock() - start


def query_blocks(workload: Workload, estimate, seconds: float, start: int,
                 ops: Ops) -> tuple[list[float], int]:
    """Closed loop over the query stream from ``start`` until ``seconds`` pass.

    Returns one sample per block, the mean microseconds per query from
    query text to probability, and where the stream stopped. Answers are
    checked after each block's timer stops.
    """
    texts = workload.query_texts
    length = workload.spec.length
    samples = []
    deadline = clock() + seconds
    while True:
        block = texts[start:start + BLOCK]
        answers: list = []
        began = clock()
        for text in block:
            try:
                answers.append(estimate(parse_pattern(text, expected_length=length)))
            except Exception as exc:
                answers.append(exc)
        ended = clock()
        samples.append((ended - began) / len(block) * 1e6)
        for text, word, got in zip(block, workload.query_words[start:start + BLOCK], answers):
            want = workload.expected(word)
            ops.check(got == want, f"query {text}: got {got!r}, want {want!r}")
        start = (start + BLOCK) % len(texts)
        if ended >= deadline:
            return samples, start


def lemma_checks(ops: Ops) -> None:
    for minus_mask in range(1 << LEMMA_L):
        values = tuple(-1 if (minus_mask >> p) & 1 else 1 for p in range(LEMMA_L))
        want = (1 << LEMMA_L) if minus_mask == 0 else 0
        try:
            got = lemma1_sum(SignAssignment(values))
        except Exception as exc:
            got = exc
        ops.check(got == want, f"lemma1_sum {values}: got {got!r}, want {want}")


def orthogonality_pairs(seed: int) -> list[tuple[int, int]]:
    rng = random.Random(f"orthogonality:{seed}")
    pairs = []
    for index in range(ORTHOGONALITY_PAIRS):
        i = rng.getrandbits(ORTHOGONALITY_L)
        # Every tenth pair is a diagonal one, whose sum is 2^L, not 0.
        pairs.append((i, i if index % 10 == 0 else rng.getrandbits(ORTHOGONALITY_L)))
    return pairs


def orthogonality_checks(pairs: list[tuple[int, int]], ops: Ops) -> None:
    for i, k in pairs:
        want = (1 << ORTHOGONALITY_L) if i == k else 0
        try:
            got = orthogonality_sum(BasisIndex(i, ORTHOGONALITY_L), BasisIndex(k, ORTHOGONALITY_L))
        except Exception as exc:
            got = exc
        ops.check(got == want, f"orthogonality_sum({i}, {k}): got {got!r}, want {want}")


def verify(workload: Workload, served, ops: Ops) -> float:
    """Fit the workload's reference paths and check its verification set.

    Every dirac answer must be count/N, and every reference answer within
    TOL of dirac. serve-L64 has no 2^L reference path, so it checks the
    served answers alone. Returns the wall time of the whole check.
    """
    spec = workload.spec
    count = spec.verify_queries
    pairs = orthogonality_pairs(workload.seed) if spec.oracles else []
    start = clock()
    references = {}
    try:
        for method in spec.references:
            references[method] = PmfEstimate.fit(served.dataset, method)
    except Exception as exc:
        ops.check(False, f"reference fit: {exc!r}")
    for text, word in zip(workload.query_texts[:count], workload.query_words[:count]):
        want = workload.expected(word)
        try:
            pattern = parse_pattern(text, expected_length=spec.length)
            dirac = served(pattern)
            ops.check(dirac == want, f"dirac {text}: got {dirac!r}, want {want!r}")
            for method, reference in references.items():
                got = reference(pattern)
                ops.check(abs(got - dirac) <= TOL, f"{method} {text}: got {got!r}, dirac {dirac!r}")
        except Exception as exc:
            ops.check(False, f"verify {text}: {exc!r}")
    if spec.oracles:
        lemma_checks(ops)
        orthogonality_checks(pairs, ops)
    return clock() - start


def slowest_quarter(values: list[float]) -> float:
    """Mean of the slowest quarter of the samples (at least one sample)."""
    return statistics.fmean(sorted(values)[-max(1, len(values) // 4):])


def end_to_end(workload: Workload, path: Path, seconds: float, ops: Ops) -> tuple[dict, dict]:
    """Rounds of query slice, verification and CLI run until ``seconds`` pass.

    A round also sets up afresh while set-ups have taken less than
    SETUP_SHARE of the run, and in the first MIN_SETUPS rounds. Rounds
    repeat while the last round still fits before the deadline, so the
    samples of every metric spread over the whole run.
    """
    spec = workload.spec
    per_round: dict[str, list[float]] = {"setup_s": [], "verify_s": [], "cli_s": []}
    blocks: list[float] = []
    position = 0
    start = clock()
    deadline = start + seconds
    warm_cli(workload, ops)
    served = None
    round_ = 0
    while True:
        began = clock()
        if (len(per_round["setup_s"]) < MIN_SETUPS
                or sum(per_round["setup_s"]) < SETUP_SHARE * (began - start)):
            served = None  # release the previous fit before building the next
            gc.collect()
            served, took = setup(path, ops)
            per_round["setup_s"].append(took)
        samples, position = query_blocks(workload, served, QUERY_SECONDS, position, ops)
        blocks += samples
        if round_ == 0:
            # Untimed warm-up: in one run in five, the first verification
            # ran ~50% slower than the rest.
            verify(workload, served, ops)
        gc.collect()
        per_round["verify_s"].append(verify(workload, served, ops))
        word = workload.query_words[round_ % len(workload.query_words)]
        per_round["cli_s"].append(run_cli(path, word, workload.expected(word), spec, ops))
        round_ += 1
        ended = clock()
        if round_ >= MIN_ROUNDS and ended + (ended - began) > deadline:
            break
    # On the shared host this was built on, code runs at one usual speed
    # and, in bursts of seconds, up to ~1.5x faster; how many bursts a run
    # catches changes from minute to minute. A median flips with that
    # share. The slowest quarter of the rounds and the upper quantiles of
    # the query blocks rest on the usual speed. README.md gives the spreads
    # behind this choice.
    metrics = {
        "setup_s": statistics.median(per_round["setup_s"]),
        "query_us_p75": statistics.quantiles(blocks, n=4)[2],
        "query_us_p95": statistics.quantiles(blocks, n=20)[-1],
        "verify_s": slowest_quarter(per_round["verify_s"]),
        "cli_s": slowest_quarter(per_round["cli_s"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "success_ratio": (ops.attempted - ops.failed) / ops.attempted,
    }
    return metrics, {"measured_s": clock() - start, "query_blocks": len(blocks),
                     "query_block": BLOCK, "rounds": per_round}


def traced(workload: Workload, path: Path, ops: Ops, tracer: Tracer) -> tuple[dict, dict]:
    """Per-layer metrics, each timed by a span around one public call."""
    spec = workload.spec
    length = spec.length
    metrics: dict[str, float] = {}

    with open(path, encoding="utf-8") as handle, tracer.span("bench.setup", "setup"):
        with tracer.span("bitspace.load_dataset", "setup"):
            dataset = load_dataset(handle)
        with tracer.span("estimators.fit.dirac", "setup"):
            served = PmfEstimate.fit(dataset, "dirac")
    metrics["bitspace.ingest_us_per_line"] = tracer.total("bitspace.load_dataset") / spec.lines * 1e6
    metrics["estimators.fit_s.dirac"] = tracer.total("estimators.fit.dirac")

    # Tracing overhead: the same queries untraced (after a warm-up pass),
    # then with a span around each parse and each lookup.
    texts = workload.query_texts[:TRACE_QUERIES]
    for _ in range(2):
        began = clock()
        for text in texts:
            served(parse_pattern(text, expected_length=length))
        untraced = clock() - began
    answers: list = []
    with tracer.span("bench.query_pass", "queries"):
        began = clock()
        for op, text in enumerate(texts):
            try:
                index = tracer.begin("bitspace.parse_pattern", op)
                try:
                    pattern = parse_pattern(text, expected_length=length)
                finally:
                    tracer.end(index)
                index = tracer.begin("estimators.query.dirac", op)
                try:
                    answers.append(served(pattern))
                finally:
                    tracer.end(index)
            except Exception as exc:
                answers.append(exc)
        traced_s = clock() - began
    for text, word, got in zip(texts, workload.query_words, answers):
        want = workload.expected(word)
        ops.check(got == want, f"query {text}: got {got!r}, want {want!r}")
    metrics["bitspace.parse_us"] = tracer.mean("bitspace.parse_pattern") * 1e6
    metrics["estimators.query_us.dirac"] = tracer.mean("estimators.query.dirac") * 1e6
    metrics["trace.overhead_us_per_query"] = (traced_s - untraced) / len(texts) * 1e6

    with tracer.span("bitspace.dataset_from_words", "build"):
        rebuilt = dataset_from_words(workload.words, length)
    metrics["bitspace.build_us_per_pattern"] = tracer.total("bitspace.dataset_from_words") / spec.lines * 1e6
    del rebuilt

    tracemalloc.start()
    held_before = tracemalloc.get_traced_memory()[0]
    with open(path, encoding="utf-8") as handle:
        measured = load_dataset(handle)
    metrics["bitspace.dataset_bytes_per_pattern"] = (tracemalloc.get_traced_memory()[0] - held_before) / spec.lines
    tracemalloc.stop()
    del measured

    projected = reference_paths(workload, served, ops, tracer, metrics)

    pairs = orthogonality_pairs(workload.seed)
    with tracer.span("basis.orthogonality", "oracles"):
        orthogonality_checks(pairs, ops)
    metrics["basis.orthogonality_us_per_pair"] = tracer.total("basis.orthogonality") / len(pairs) * 1e6
    with tracer.span("combinatorics.lemma_exhaustive", "oracles"):
        lemma_checks(ops)
    metrics["combinatorics.lemma_exhaustive_s"] = tracer.total("combinatorics.lemma_exhaustive")

    warm_cli(workload, ops)
    for name, code in (("cli.interpreter", "pass"), ("cli.import", "import diracpmf.cli")):
        for _ in range(INTERPRETER_PROBES):
            with tracer.span(name, name):
                proc = subprocess.run([sys.executable, "-c", code], env=child_env(),
                                      capture_output=True, timeout=CLI_TIMEOUT_S)
            ops.check(proc.returncode == 0, f"python -c {code!r}: exit {proc.returncode}")
    interpreter_s = statistics.median(tracer.durations("cli.interpreter"))
    metrics["cli.interpreter_s"] = interpreter_s
    metrics["cli.import_s"] = statistics.median(tracer.durations("cli.import")) - interpreter_s
    word = workload.query_words[0]
    with tracer.span("cli.estimate", "cli"):
        run_cli(path, word, workload.expected(word), spec, ops)

    for layer, seconds in tracer.self_seconds().items():
        metrics[f"self_s.{layer}"] = seconds
    return metrics, {"projected": projected, "probe": {"L": PROBE_BITS, "N": PROBE_LINES},
                     "spans": len(tracer.spans)}


def reference_paths(workload: Workload, served, ops: Ops, tracer: Tracer, metrics: dict) -> list[str]:
    """Fit fwht and expansion, time their queries and check them against dirac.

    A path that the workload's L rules out runs on the projection instead;
    returns the names of those paths.
    """
    spec = workload.spec
    probe = project(workload.words[:PROBE_LINES], PROBE_BITS)
    probe_counts = Counter(probe)
    probe_queries = project(workload.query_words[:PROBE_QUERIES], PROBE_BITS)
    projected = []
    disagreements = 0
    worst = 0.0
    for method, max_length in (("fwht", 24), ("expansion", EXPANSION_MAX_L)):
        if spec.length <= max_length:
            dirac, length = served, spec.length
            count = spec.verify_queries if method == "fwht" else min(spec.verify_queries, PROBE_QUERIES)
            words = workload.query_words[:count]
        else:
            projected.append(method)
            with tracer.span("bitspace.dataset_from_words", "probe"):
                probe_dataset = dataset_from_words(probe, PROBE_BITS)
            dirac = PmfEstimate.fit(probe_dataset, "dirac")
            length, words = PROBE_BITS, probe_queries
        with tracer.span(f"estimators.fit.{method}", method):
            reference = PmfEstimate.fit(dirac.dataset, method)
        metrics[f"estimators.fit_s.{method}"] = tracer.total(f"estimators.fit.{method}")
        patterns = [parse_pattern(render(word, length)) for word in words]
        with tracer.span("bench.reference_queries", method):
            for op, pattern in enumerate(patterns):
                index = tracer.begin(f"estimators.query.{method}", op)
                try:
                    got = reference(pattern)
                finally:
                    tracer.end(index)
                want = dirac(pattern)
                oracle = (workload.counts if dirac is served else probe_counts).get(pattern.word, 0)
                ops.check(want == oracle / dirac.dataset.size, f"dirac {pattern}: got {want!r}")
                worst = max(worst, abs(got - want))
                disagreements += abs(got - want) > TOL
                ops.check(abs(got - want) <= TOL, f"{method} {pattern}: got {got!r}, dirac {want!r}")
        metrics[f"estimators.query_us.{method}"] = tracer.mean(f"estimators.query.{method}") * 1e6
        if method == "fwht":
            fwht_layers(dirac.dataset, tracer, metrics)
    metrics["estimators.agreement_max_abs"] = worst
    metrics["estimators.disagreements"] = disagreements
    return projected


def fwht_layers(dataset, tracer: Tracer, metrics: dict) -> None:
    with tracer.span("estimators.frequency_vector", "fwht"):
        freq = frequency_vector(dataset)
    with tracer.span("estimators.fast_transform", "fwht"):
        fast_transform(fast_transform(freq, "forward"), "inverse")
    metrics["estimators.frequency_vector_s"] = tracer.total("estimators.frequency_vector")
    metrics["estimators.fast_transform_s"] = tracer.total("estimators.fast_transform")
    del freq
    tracemalloc.start()
    PmfEstimate.fit(dataset, "fwht")
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    metrics["estimators.fwht_peak_bytes_ratio"] = peak / ((1 << dataset.length) * 8)
