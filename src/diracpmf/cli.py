"""Command-line front-end.

Subcommands: estimate, spectrum, basis, lemma, bench. All results go to
stdout as JSON; diagnostics go to stderr. Exit codes: 0 on success, 1 on
usage/data errors, 2 if the estimation paths ever disagree (which would
falsify the equivalence the whole package rests on).
"""
from __future__ import annotations

import argparse
import json
import random
import statistics
import sys
import time
from typing import Any, Sequence

import numpy as np

from .basis import check_cap, enumerate_basis, sign_column
from .bitspace import BitPattern, dataset_from_words, load_dataset, parse_pattern
from .combinatorics import SignAssignment, lemma1_sum
from .errors import CapExceeded, DiracPmfError
from .estimators import EQUIVALENCE_TOL, PmfEstimate, estimate_coefficients

#: Full pairwise orthogonality checking walks 4^L pairs; 12 keeps it desk-scale.
ORTHOGONALITY_CAP = 12
#: Exhaustive lemma checking walks 4^L subset products.
LEMMA_EXHAUSTIVE_CAP = 12
#: Expansion benchmarking above this L is pointless and slow.
BENCH_EXPANSION_CAP = 20
#: Timing repetitions per benchmark cell (medians reported).
BENCH_REPETITIONS = 7
#: Queries per timed chunk; the methods take turns chunk by chunk.
BENCH_CHUNK_QUERIES = 100
#: Least untimed warm-up per benchmark cell, in seconds.
BENCH_WARMUP_S = 0.2


def _emit(payload: Any, pretty: bool) -> None:
    if pretty:
        print(json.dumps(payload, indent=2))
    else:
        print(json.dumps(payload))


def cmd_estimate(args: argparse.Namespace) -> int:
    with open(args.input, encoding="utf-8") as handle:
        dataset = load_dataset(handle)
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
    with open(args.input, encoding="utf-8") as handle:
        dataset = load_dataset(handle)
    spectrum = estimate_coefficients(dataset)
    entries = [
        {"mask": mask, "order": int(mask).bit_count(), "alpha": float(alpha)}
        for mask, alpha in enumerate(spectrum.coefficients)
    ]
    _emit(
        {"L": dataset.length, "N": dataset.size, "spectrum": entries},
        args.pretty,
    )
    return 0


def cmd_basis(args: argparse.Namespace) -> int:
    length = args.length
    if args.check == "table":
        table = enumerate_basis(length, ordering=args.ordering)
        _emit(
            {
                "L": length,
                "ordering": args.ordering,
                "entries": [
                    {
                        "mask": entry.mask,
                        "order": entry.order,
                        "members": list(entry.members),
                    }
                    for entry in table.entries
                ],
            },
            args.pretty,
        )
        return 0

    # Full pairwise orthogonality: stack all sign vectors and check that
    # the Gram matrix is 2^L on the diagonal and 0 elsewhere.
    check_cap(length, ORTHOGONALITY_CAP)
    size = 1 << length
    signs = np.empty((size, size), dtype=np.float64)
    for mask in range(size):
        signs[mask] = sign_column(mask, length)
    gram = signs @ signs.T
    expected = size * np.eye(size)
    mismatches = np.argwhere(gram != expected)
    report: dict[str, Any] = {"L": length, "check": "orthogonality", "pairs": size * size}
    if mismatches.size:
        i, k = (int(v) for v in mismatches[0])
        report["pass"] = False
        report["first_violation"] = {"i": i, "k": k, "sum": float(gram[i, k])}
        _emit(report, args.pretty)
        return 2
    report["pass"] = True
    _emit(report, args.pretty)
    return 0


def cmd_lemma(args: argparse.Namespace) -> int:
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

    check_cap(length, LEMMA_EXHAUSTIVE_CAP)
    all_pass = True
    for minus_mask in range(1 << length):
        values = tuple(-1 if (minus_mask >> p) & 1 else 1 for p in range(length))
        assignment = SignAssignment(values)
        total = lemma1_sum(assignment)
        expected = (1 << length) if minus_mask == 0 else 0
        if total != expected:
            all_pass = False
            break
    _emit(
        {"L": length, "assignments": 1 << length, "all_pass": all_pass},
        args.pretty,
    )
    return 0 if all_pass else 2


def _bench_one_length(
    length: int, samples: int, queries: int, seed: int
) -> tuple[dict[str, Any], bool]:
    """Run one benchmark cell; returns (report, agreement)."""
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
    # the medians. Transients left by earlier work must die down first: for
    # about 0.1 s after a matrix product an OpenBLAS worker keeps spinning,
    # and on a 2-vCPU host that made the expansion queries here up to 2x
    # slower while the dirac lookups barely slowed.
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

    agreement = True
    if queries:
        baseline = values[methods[0]]
        for method in methods[1:]:
            for got, want in zip(values[method], baseline):
                if abs(got - want) > EQUIVALENCE_TOL:
                    agreement = False
        report["agreement"] = agreement
    else:
        report["agreement"] = True
    report["methods"] = timing
    if queries and "expansion" in timing and "dirac" in timing:
        report["speedup_expansion_over_dirac"] = statistics.median(
            expansion / dirac
            for expansion, dirac in zip(query_times["expansion"], query_times["dirac"])
        )
    return report, agreement


def cmd_bench(args: argparse.Namespace) -> int:
    lengths = [int(part) for part in str(args.length).split(",") if part.strip()]
    if not lengths:
        raise DiracPmfError("--length must list at least one L")
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
        print("error: estimation paths disagree beyond tolerance", file=sys.stderr)
        return 2
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diracpmf",
        description="Probability-mass estimation on binary spaces {0,1}^L.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DiracPmfError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
