"""Seeded workload generators and the benchmark's own counting oracle.

The benchmark generates every dataset and query as text from the seed and
hands the program only that text. Expected answers come from
``collections.Counter`` over the generated words, never from the package.
See README.md in this directory for why each workload exists.
"""
from __future__ import annotations

import hashlib
import itertools
import random
from collections import Counter
from dataclasses import dataclass


@dataclass(frozen=True)
class Spec:
    name: str
    length: int
    lines: int
    #: Size of the pattern pool the lines are drawn from; None draws each
    #: line uniformly from all 2^L points.
    pool: int | None
    #: Draw pool entries with weight 1/rank (Zipf, exponent 1) rather than
    #: uniformly.
    zipf: bool
    queries: int
    #: The first this-many queries of the stream form the verification set.
    verify_queries: int
    #: Reference paths fitted and checked against dirac in verify_s.
    references: tuple[str, ...]
    #: verify-L14 also runs the basis and combinatorics oracles.
    oracles: bool
    cli_method: str


#: BENCHMARK.json lists serve-L64 and verify-L14. transform-L22, the fwht
#: butterfly over a 32 MB table, runs only when asked for by name.
SPECS = {
    spec.name: spec
    for spec in (
        Spec("serve-L64", 64, 100_000, 20_000, True, 100_000, 20_000, (), False, "dirac"),
        Spec("verify-L14", 14, 20_000, None, False, 100_000, 300, ("expansion", "fwht"), True, "dirac"),
        Spec("transform-L22", 22, 100_000, 20_000, False, 100_000, 20_000, ("fwht",), False, "fwht"),
    )
}


def render(word: int, length: int) -> str:
    """Text form of a packed word: bit l-1 of the word is the l-th character."""
    return format(word, f"0{length}b")[::-1]


@dataclass(frozen=True)
class Workload:
    spec: Spec
    seed: int
    words: list[int]
    dataset_text: str
    query_words: list[int]
    query_texts: list[str]
    counts: Counter
    sha256: str

    def expected(self, word: int) -> float:
        """The oracle: count/N for a packed word."""
        return self.counts.get(word, 0) / self.spec.lines

    def descriptors(self) -> dict:
        spec = self.spec
        hits = sum(1 for word in self.query_words if word in self.counts)
        return {
            "N": spec.lines,
            "L": spec.length,
            "distinct": len(self.counts),
            "queries": len(self.query_words),
            "hit_share": hits / len(self.query_words),
            # The dense 2^L float64 table the fwht path builds; None where
            # no path can build it.
            "table_bytes": (1 << spec.length) * 8 if spec.length <= 24 else None,
            "sha256": self.sha256,
        }


def generate(spec: Spec, seed: int) -> Workload:
    # A str seed is hashed with SHA-512, so the stream does not depend on
    # PYTHONHASHSEED.
    rng = random.Random(f"{spec.name}:{seed}")
    length = spec.length
    if spec.pool is None:
        words = [rng.getrandbits(length) for _ in range(spec.lines)]
    else:
        pool = [rng.getrandbits(length) for _ in range(spec.pool)]
        if spec.zipf:
            weights = itertools.accumulate(1.0 / rank for rank in range(1, spec.pool + 1))
            words = rng.choices(pool, cum_weights=list(weights), k=spec.lines)
        else:
            words = rng.choices(pool, k=spec.lines)
    counts = Counter(words)
    if len(counts) == 1 << length:
        raise ValueError(f"{spec.name}: no absent pattern left to query")

    # Half the queries hit: a line drawn from the dataset, so popular
    # patterns are asked for more often. The other half miss.
    query_words = []
    for _ in range(spec.queries):
        if rng.random() < 0.5:
            query_words.append(rng.choice(words))
        else:
            word = rng.getrandbits(length)
            while word in counts:
                word = rng.getrandbits(length)
            query_words.append(word)

    dataset_text = "".join(render(word, length) + "\n" for word in words)
    query_texts = [render(word, length) for word in query_words]
    digest = hashlib.sha256(dataset_text.encode())
    digest.update("\n".join(query_texts).encode())
    return Workload(
        spec, seed, words, dataset_text, query_words, query_texts, counts, digest.hexdigest()
    )


def project(words: list[int], bits: int) -> list[int]:
    """Keep the low ``bits`` bits of each word: the first ``bits`` coordinates."""
    mask = (1 << bits) - 1
    return [word & mask for word in words]
