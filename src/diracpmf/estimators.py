"""The three probability-mass estimation paths over {0,1}^L.

* expansion -- project the sample onto the 2^L sign-product basis and
  reconstruct p(x) as the coefficient-weighted basis sum;
* dirac     -- count matching prototypes and divide by N (the closed form
  the expansion provably collapses to);
* fwht      -- push the empirical frequency vector through the fast
  forward/inverse sign-product transform.

All three must agree to 1e-12 on any dataset; the test suite enforces it.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from .basis import EXHAUSTIVE_CAP, check_cap, sign_row
from .bitspace import BitPattern, Dataset
from .errors import LengthMismatch, NotPowerOfTwo

#: Tolerance for float agreement between estimation paths.
EQUIVALENCE_TOL = 1e-12


@dataclass(frozen=True)
class Spectrum:
    """The 2^L basis coefficients estimated from a sample of size N."""

    length: int
    sample_size: int
    coefficients: np.ndarray

    def __post_init__(self) -> None:
        if self.coefficients.shape != (1 << self.length,):
            raise ValueError("coefficient vector must have 2^L entries")
        self.coefficients.setflags(write=False)


def _dot(a: np.ndarray, b: np.ndarray) -> np.floating:
    """Inner product of two float64 vectors, without BLAS.

    np.dot passes long float64 vectors (2^L from L=14 on) to BLAS, which
    splits them over its threads. On a 2-vCPU host, waking the second
    thread stalled about one expansion query in four by ~8 ms. einsum
    runs its own loop and never calls BLAS.
    """
    return np.einsum("i,i->", a, b)


def _require_equal_length(a: BitPattern, b: BitPattern) -> None:
    if a.length != b.length:
        raise LengthMismatch(f"pattern lengths differ: {a.length} != {b.length}")


def kernel_sum(prototype: BitPattern, query: BitPattern, cap: int = EXHAUSTIVE_CAP) -> float:
    """Normalized basis-product sum, by explicit summation over all 2^L terms.

    Returns sum_i phi_i(prototype) * phi_i(query) / 2^L.
    """
    _require_equal_length(prototype, query)
    check_cap(prototype.length, cap)
    length = prototype.length
    products = _dot(sign_row(prototype.word, length), sign_row(query.word, length))
    return float(products) / (1 << length)


def kernel_dirac(prototype: BitPattern, query: BitPattern) -> float:
    """Indicator kernel: 1 if the patterns agree elementwise, else 0."""
    _require_equal_length(prototype, query)
    return 1.0 if prototype.word == query.word else 0.0


def estimate_coefficients(dataset: Dataset, cap: int = EXHAUSTIVE_CAP) -> Spectrum:
    """Average phi_i over the sample, scaled by 1/2^L, for every basis index."""
    check_cap(dataset.length, cap)
    length = dataset.length
    accumulator = np.zeros(1 << length, dtype=np.float64)
    for word, count in dataset.counts.items():
        accumulator += count * sign_row(word, length)
    coefficients = accumulator / (dataset.size * (1 << length))
    return Spectrum(length, dataset.size, coefficients)


def estimate_expansion(spectrum: Spectrum, query: BitPattern) -> float:
    """Reconstruct p(query) as the full coefficient-weighted basis sum."""
    if spectrum.length != query.length:
        raise LengthMismatch(
            f"spectrum length {spectrum.length} != pattern length {query.length}"
        )
    return float(_dot(spectrum.coefficients, sign_row(query.word, spectrum.length)))


def estimate_dirac(dataset: Dataset, query: BitPattern) -> float:
    """Empirical frequency: matching prototypes / N. O(1) per query."""
    if dataset.length != query.length:
        raise LengthMismatch(
            f"dataset length {dataset.length} != pattern length {query.length}"
        )
    return dataset.counts.get(query.word, 0) / dataset.size


Direction = Literal["forward", "inverse"]


def fast_transform(
    values: Sequence[float] | np.ndarray,
    direction: Direction = "forward",
    cap: int = EXHAUSTIVE_CAP,
) -> np.ndarray:
    """Butterfly evaluation of the sign-product transform in O(L * 2^L).

    forward: T(S) = sum_x f(x) * phi_S(x); inverse divides by 2^L, so
    inverse(forward(f)) == f. Input length must be a power of two.
    """
    data = np.array(values, dtype=np.float64)
    size = data.shape[0] if data.ndim == 1 else 0
    if size < 2 or size & (size - 1):
        raise NotPowerOfTwo(f"transform input length {size} is not 2^L with L >= 1")
    length = size.bit_length() - 1
    check_cap(length, cap)
    if direction not in ("forward", "inverse"):
        raise ValueError(f"unknown direction {direction!r}")

    # The plain +/- butterfly pairs x with S through (-1)^(S AND x); this
    # basis signs by the zeros of x instead, which flips every odd-order
    # coefficient: flip outputs going forward, inputs coming back.
    orders = np.bitwise_count(np.arange(size, dtype=np.uint64))
    parity_signs = 1 - 2 * (orders & 1).astype(np.float64)
    if direction == "inverse":
        data *= parity_signs
    half = 1
    while half < size:
        blocks = data.reshape(-1, 2 * half)
        low = blocks[:, :half].copy()
        high = blocks[:, half:].copy()
        blocks[:, :half] = low + high
        blocks[:, half:] = low - high
        half *= 2
    if direction == "forward":
        data *= parity_signs
    else:
        data /= size
    return data


def frequency_vector(dataset: Dataset) -> np.ndarray:
    """Empirical frequencies over all 2^L patterns, indexed by word."""
    freq = np.zeros(1 << dataset.length, dtype=np.float64)
    for word, count in dataset.counts.items():
        freq[word] = count / dataset.size
    return freq


def estimate_fwht(dataset: Dataset, query: BitPattern, cap: int = EXHAUSTIVE_CAP) -> float:
    """Round-trip the empirical frequencies through the fast transform."""
    if dataset.length != query.length:
        raise LengthMismatch(
            f"dataset length {dataset.length} != pattern length {query.length}"
        )
    check_cap(dataset.length, cap)
    spectrum = fast_transform(frequency_vector(dataset), "forward", cap=cap)
    reconstructed = fast_transform(spectrum, "inverse", cap=cap)
    return float(reconstructed[query.word])


KernelMethod = Literal["sum", "dirac"]


def gram_matrix(
    dataset: Dataset, method: KernelMethod = "dirac", cap: int = EXHAUSTIVE_CAP
) -> np.ndarray:
    """N x N kernel matrix over the dataset in input order; 0/1-valued and symmetric."""
    if method == "dirac":
        # Patterns of one dataset share L, so they are equal iff their words are.
        words = np.frombuffer(dataset.words, dtype=np.uint64)
        return (words[:, None] == words[None, :]).astype(np.float64)
    if method != "sum":
        raise ValueError(f"unknown kernel method {method!r}")
    patterns = dataset.patterns
    size = dataset.size
    gram = np.zeros((size, size), dtype=np.float64)
    for row in range(size):
        for col in range(row, size):
            value = kernel_sum(patterns[row], patterns[col], cap=cap)
            gram[row, col] = value
            gram[col, row] = value
    return gram


EstimateMethod = Literal["expansion", "dirac", "fwht"]


@dataclass(frozen=True)
class PmfEstimate:
    """A queryable estimate p: {0,1}^L -> [0,1] built from a dataset."""

    method: EstimateMethod
    dataset: Dataset
    spectrum: Spectrum | None = None
    table: np.ndarray | None = None

    @classmethod
    def fit(
        cls, dataset: Dataset, method: EstimateMethod, cap: int = EXHAUSTIVE_CAP
    ) -> PmfEstimate:
        spectrum = None
        table = None
        if method == "expansion":
            spectrum = estimate_coefficients(dataset, cap=cap)
        elif method == "fwht":
            # Round-trip once at fit time; queries then read a table entry.
            forward = fast_transform(frequency_vector(dataset), "forward", cap=cap)
            table = fast_transform(forward, "inverse", cap=cap)
        elif method != "dirac":
            raise ValueError(f"unknown estimation method {method!r}")
        return cls(method, dataset, spectrum, table)

    def __call__(self, query: BitPattern) -> float:
        if self.dataset.length != query.length:
            raise LengthMismatch(
                f"dataset length {self.dataset.length} != pattern length {query.length}"
            )
        if self.method == "expansion":
            assert self.spectrum is not None
            return estimate_expansion(self.spectrum, query)
        if self.method == "fwht":
            assert self.table is not None
            return float(self.table[query.word])
        return estimate_dirac(self.dataset, query)
