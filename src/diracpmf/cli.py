"""Command-line front-end.

Subcommands: estimate, spectrum, basis, lemma, bench. All results go to
stdout as JSON; diagnostics go to stderr. Exit codes: 0 on success, 1 on
usage/data errors, 2 if the estimation paths disagree (which would falsify
the equivalence the package rests on) or a lemma or orthogonality check fails.
"""
from __future__ import annotations

import argparse
import itertools
import json
import random
import sys
import time
from typing import Any, Iterable, NoReturn, Sequence

from .bitspace import (
    BitPattern,
    Dataset,
    _check_length,
    check_cap,
    dataset_from_words,
    load_dataset,
    parse_pattern,
)
from .errors import DiracPmfError
from .estimators import PmfEstimate

#: Expansion benchmarking above this L is pointless and slow.
BENCH_EXPANSION_CAP = 20
#: Timing repetitions per benchmark cell (medians reported).
BENCH_REPETITIONS = 7
#: Queries per timed chunk; the methods take turns chunk by chunk.
BENCH_CHUNK_QUERIES = 100
#: Least untimed warm-up per benchmark cell, in seconds.
BENCH_WARMUP_S = 0.2


class _Parser(argparse.ArgumentParser):
    """Ends a usage error in DiracPmfError, so main exits 1.

    Exit 2 is a failed check: the paths disagree, or a lemma or orthogonality check fails.
    """

    def error(self, message: str) -> NoReturn:
        # Escaped, so an argument that argparse quotes cannot break the one error line.
        raise DiracPmfError(f"{self.prog}: {message}".encode("unicode_escape").decode())


def _emit(payload: Any, pretty: bool) -> None:
    print(json.dumps(payload, indent=2 if pretty else None))


def _emit_entries(payload: dict[str, Any], key: str, entries: Iterable[Any], pretty: bool) -> None:
    """_emit payload with payload[key] the list of entries, written 1024 at a time.

    All 2^L entries at once would take several hundred bytes each. The bytes
    equal _emit of the whole payload: json.dumps gives the framing around
    the "@" placeholders.
    """
    indent = 2 if pretty else None
    payload[key] = ["@", "@"]
    head, separator, tail = json.dumps(payload, indent=indent).split('"@"')
    sys.stdout.write(head)
    entries = iter(entries)
    lead = ""
    while chunk := list(itertools.islice(entries, 1024)):
        payload[key] = chunk
        text = json.dumps(payload, indent=indent)
        sys.stdout.write(lead + text[len(head):-len(tail)])
        lead = separator
    print(tail)


def _load(path: str) -> Dataset:
    """Read a dataset file; load_dataset reports a byte that is not UTF-8 by line."""
    with open(path, encoding="utf-8", errors="surrogateescape") as handle:
        return load_dataset(handle)


def cmd_estimate(args: argparse.Namespace) -> int:
    dataset = _load(args.input)
    query = parse_pattern(args.query, expected_length=dataset.length)
    estimate = PmfEstimate.fit(dataset, args.method)
    _emit(
        {
            "L": dataset.length,
            "N": dataset.size,
            "method": args.method,
            "query": str(query),
            "p": estimate(query),
        },
        args.pretty,
    )
    return 0


def cmd_spectrum(args: argparse.Namespace) -> int:
    from .verify import estimate_coefficients
    dataset = _load(args.input)
    coefficients = estimate_coefficients(dataset).coefficients
    entries = (
        {"mask": mask, "order": mask.bit_count(), "alpha": alpha}
        for mask, alpha in enumerate(map(float, coefficients))
    )
    _emit_entries({"L": dataset.length, "N": dataset.size}, "spectrum", entries, args.pretty)
    return 0


def cmd_basis(args: argparse.Namespace) -> int:
    from . import verify
    length = args.length
    if args.check == "table":
        # members: the participating coordinates, 1-based, ascending.
        entries = (
            {"mask": mask, "order": mask.bit_count(),
             "members": [bit + 1 for bit in range(length) if mask >> bit & 1]}
            for mask in verify.iter_basis(length, args.ordering)
        )
        payload = {"L": length, "ordering": args.ordering}
        _emit_entries(payload, "entries", entries, args.pretty)
        return 0

    # Full pairwise orthogonality: the forward transform of sign column k is
    # sum_x phi_i(x) * phi_k(x) for every i, exact in float64 (|sum| <= 2^12), and
    # must be 2^L at i = k, else 0. It trusts the butterfly to match sign_bits.
    check_cap(2 * _check_length(length))
    size = 1 << length
    report: dict[str, Any] = {
        "L": length, "check": "orthogonality", "pairs": size * size, "pass": True
    }
    for k in range(size):
        sums = verify.fast_transform(verify.sign_column(k, length))
        sums[k] -= size
        (wrong,) = sums.nonzero()
        if wrong.size:
            i = int(wrong[0])
            report["pass"] = False
            report["first_violation"] = {"i": i, "k": k, "sum": float(sums[i]) + size * (i == k)}
            break
    _emit(report, args.pretty)
    return 0 if report["pass"] else 2


def cmd_lemma(args: argparse.Namespace) -> int:
    from .verify import SignAssignment, lemma1_sum
    length = args.length
    if args.signs is not None:
        assignment = SignAssignment.from_string(args.signs)
        if assignment.length != length:
            raise DiracPmfError(
                f"sign string length {assignment.length} != --length {length}"
            )
        total = lemma1_sum(assignment)
        expected = (1 << length) if assignment.minus_count == 0 else 0
        _emit(
            {
                "L": length,
                "signs": args.signs,
                "sum": total,
                "expected": expected,
                "pass": total == expected,
            },
            args.pretty,
        )
        return 0 if total == expected else 2

    check_cap(2 * _check_length(length))
    all_pass = all(
        lemma1_sum(SignAssignment(tuple(-1 if minus_mask >> p & 1 else 1 for p in range(length))))
        == (0 if minus_mask else 1 << length)
        for minus_mask in range(1 << length)
    )
    _emit(
        {"L": length, "assignments": 1 << length, "all_pass": all_pass},
        args.pretty,
    )
    return 0 if all_pass else 2


def _bench_one_length(
    length: int, samples: int, queries: int, seed: int
) -> tuple[dict[str, Any], bool]:
    """Run one benchmark cell; returns (report, agreement)."""
    import statistics
    rng = random.Random(seed * 1000003 + length)
    dataset = dataset_from_words(
        [rng.getrandbits(length) for _ in range(samples)], length
    )
    query_words = [rng.getrandbits(length) for _ in range(queries)]
    query_patterns = [BitPattern.from_word(word, length) for word in query_words]

    methods = ["dirac", "fwht"]
    notes: list[str] = []
    if length <= BENCH_EXPANSION_CAP:
        methods.insert(0, "expansion")
    else:
        notes.append(f"expansion skipped: L={length} exceeds cap {BENCH_EXPANSION_CAP}")

    report: dict[str, Any] = {
        "L": length,
        "N": samples,
        "queries": queries,
        "methods": {},
        "notes": notes,
    }

    # Warm up for one full round and at least BENCH_WARMUP_S, excluded from
    # the medians: the first cell in a fresh process starts cold. With one
    # round only, 20 fresh criterion-7 runs on a 2-vCPU host read an L=8 ratio
    # up to 17.6 against 16.4 with the minimum, though 60 alternating pairs
    # later read no difference (max 18.3 both ways); the minimum stays.
    warm_until = time.perf_counter() + BENCH_WARMUP_S
    while True:
        for method in methods:
            estimate = PmfEstimate.fit(dataset, method)
            for pattern in query_patterns:
                estimate(pattern)
        if time.perf_counter() >= warm_until:
            break
    # The methods' timed queries interleave in chunks, so a slow spell on a
    # shared host lands on every method of one chunk rather than on one
    # method's whole series, and the per-chunk ratios cancel it.
    chunks = [
        query_patterns[start:start + BENCH_CHUNK_QUERIES]
        for start in range(0, queries, BENCH_CHUNK_QUERIES)
    ]
    build_times: dict[str, list[float]] = {method: [] for method in methods}
    query_times: dict[str, list[float]] = {method: [] for method in methods}
    for _ in range(BENCH_REPETITIONS):
        estimates = {}
        for method in methods:
            start = time.perf_counter()
            estimates[method] = PmfEstimate.fit(dataset, method)
            build_times[method].append(time.perf_counter() - start)
        values: dict[str, list[float]] = {method: [] for method in methods}
        for chunk in chunks:
            for method in methods:
                estimate = estimates[method]
                start = time.perf_counter()
                results = [estimate(pattern) for pattern in chunk]
                query_times[method].append((time.perf_counter() - start) / len(chunk))
                values[method] += results
    timing: dict[str, dict[str, float]] = {}
    for method in methods:
        timing[method] = {"build_s": statistics.median(build_times[method])}
        if queries:
            timing[method]["per_query_s"] = statistics.median(query_times[method])

    # Pair by pair, as list == calls a NaN equal to itself; with no queries, all() is True.
    agreement = all(
        got == want
        for method in methods[1:]
        for got, want in zip(values[method], values[methods[0]])
    )
    report["agreement"] = agreement
    report["methods"] = timing
    if queries and "expansion" in timing:
        report["speedup_expansion_over_dirac"] = statistics.median(
            expansion / dirac
            for expansion, dirac in zip(query_times["expansion"], query_times["dirac"])
        )
    return report, agreement


def cmd_bench(args: argparse.Namespace) -> int:
    try:
        lengths = [int(part) for part in str(args.length).split(",") if part.strip()]
    except ValueError:
        raise DiracPmfError(
            f"--length must be comma-separated integers, got {args.length!r}"
        ) from None
    if not lengths:
        raise DiracPmfError("--length must list at least one L")
    for flag, value in (("--samples", args.samples), ("--queries", args.queries)):
        if value < 0:
            raise DiracPmfError(f"{flag} must be >= 0, got {value}")
    for length in lengths:  # every cell fits fwht, so each length must pass its cap
        check_cap(_check_length(length))
    reports = []
    all_agree = True
    for length in lengths:
        report, agreement = _bench_one_length(
            length, args.samples, args.queries, args.seed
        )
        reports.append(report)
        all_agree = all_agree and agreement
    _emit(
        {
            "seed": args.seed,
            "samples": args.samples,
            "queries": args.queries,
            "reports": reports,
        },
        args.pretty,
    )
    if not all_agree:
        print("error: estimation paths disagree", file=sys.stderr)
        return 2
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="diracpmf",
        description="Probability-mass estimation on binary spaces {0,1}^L.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_output_flags(sub: argparse.ArgumentParser) -> None:
        group = sub.add_mutually_exclusive_group()
        group.add_argument(
            "--json", dest="pretty", action="store_false", help="compact JSON (default)"
        )
        group.add_argument(
            "--pretty", dest="pretty", action="store_true", help="indented JSON"
        )
        sub.set_defaults(pretty=False)

    estimate = subparsers.add_parser("estimate", help="query an estimate built from a dataset file")
    estimate.add_argument("--input", required=True, help="dataset file path")
    estimate.add_argument("--query", required=True, help="query pattern bits, e.g. 0101")
    estimate.add_argument(
        "--method", default="dirac", choices=["expansion", "dirac", "fwht"]
    )
    add_output_flags(estimate)
    estimate.set_defaults(func=cmd_estimate)

    spectrum = subparsers.add_parser("spectrum", help="dump the estimated coefficient spectrum")
    spectrum.add_argument("--input", required=True, help="dataset file path")
    add_output_flags(spectrum)
    spectrum.set_defaults(func=cmd_spectrum)

    basis = subparsers.add_parser("basis", help="print the basis table or check orthogonality")
    basis.add_argument("--length", type=int, required=True)
    basis.add_argument("--check", default="table", choices=["table", "orthogonality"])
    basis.add_argument(
        "--ordering", default="canonical", choices=["canonical", "by_cardinality"]
    )
    add_output_flags(basis)
    basis.set_defaults(func=cmd_basis)

    lemma = subparsers.add_parser("lemma", help="verify the subset-product sign sum")
    lemma.add_argument("--length", type=int, required=True)
    lemma.add_argument("--signs", help="sign string like '+-+'; omit for exhaustive mode")
    add_output_flags(lemma)
    lemma.set_defaults(func=cmd_lemma)

    bench = subparsers.add_parser("bench", help="time the estimation paths against each other")
    bench.add_argument("--length", required=True, help="comma-separated L values, e.g. 8,10,12")
    bench.add_argument("--samples", type=int, default=1000)
    bench.add_argument("--queries", type=int, default=1000)
    bench.add_argument("--seed", type=int, default=0)
    add_output_flags(bench)
    bench.set_defaults(func=cmd_bench)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except DiracPmfError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
