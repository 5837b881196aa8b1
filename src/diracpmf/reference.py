"""The numpy-backed reference paths that verify the counting estimator.

* expansion -- project the sample onto the 2^L sign-product basis and
  reconstruct p(x) as the coefficient-weighted basis sum;
* fwht      -- push the empirical frequency vector through the fast
  forward/inverse sign-product transform;

plus the basis-product kernel and the Gram matrices.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from .basis import sign_row
from .bitspace import BitPattern, Dataset, check_cap
from .errors import LengthMismatch, NotPowerOfTwo
from .estimators import _require_equal_length


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


def kernel_sum(prototype: BitPattern, query: BitPattern) -> float:
    """Normalized basis-product sum, by explicit summation over all 2^L terms.

    Returns sum_i phi_i(prototype) * phi_i(query) / 2^L.
    """
    _require_equal_length(prototype, query)
    check_cap(prototype.length)
    length = prototype.length
    products = _dot(sign_row(prototype.word, length), sign_row(query.word, length))
    return float(products) / (1 << length)


def estimate_coefficients(dataset: Dataset) -> Spectrum:
    """Average phi_i over the sample, scaled by 1/2^L, for every basis index."""
    check_cap(dataset.length)
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


Direction = Literal["forward", "inverse"]


def fast_transform(
    values: Sequence[float] | np.ndarray, direction: Direction = "forward"
) -> np.ndarray:
    """Butterfly evaluation of the sign-product transform in O(L * 2^L).

    forward: T(S) = sum_x f(x) * phi_S(x); inverse divides by 2^L, so
    inverse(forward(f)) == f. Input length must be a power of two.
    """
    # Sized by len(), so an input over the cap is refused before np.array copies it.
    size = len(values) if getattr(values, "ndim", 1) == 1 else 0
    if size < 2 or size & (size - 1):
        raise NotPowerOfTwo(f"transform input length {size} is not 2^L with L >= 1")
    check_cap(size.bit_length() - 1)
    if direction not in ("forward", "inverse"):
        raise ValueError(f"unknown direction {direction!r}")
    data = np.array(values, dtype=np.float64)
    if data.shape != (size,):
        raise NotPowerOfTwo(f"transform input of shape {data.shape} is not a vector")

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
    check_cap(dataset.length)
    freq = np.zeros(1 << dataset.length, dtype=np.float64)
    for word, count in dataset.counts.items():
        freq[word] = count / dataset.size
    return freq


def fwht_table(dataset: Dataset) -> np.ndarray:
    """The fwht estimate of every pattern, indexed by word: the frequencies' round trip."""
    return fast_transform(fast_transform(frequency_vector(dataset), "forward"), "inverse")


def estimate_fwht(dataset: Dataset, query: BitPattern) -> float:
    """Read p(query) from the fwht round trip of the whole dataset."""
    if dataset.length != query.length:
        raise LengthMismatch(
            f"dataset length {dataset.length} != pattern length {query.length}"
        )
    return float(fwht_table(dataset)[query.word])


KernelMethod = Literal["sum", "dirac"]


def gram_matrix(dataset: Dataset, method: KernelMethod = "dirac") -> np.ndarray:
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
            value = kernel_sum(patterns[row], patterns[col])
            gram[row, col] = value
            gram[col, row] = value
    return gram
