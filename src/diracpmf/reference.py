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

from .basis import sign_bytes, sign_row
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


def _sum_of_products(row: np.ndarray, other: np.ndarray) -> float:
    """sum(row * other), multiplying into row, which the caller gives up.

    Not np.dot: it passes float64 vectors of 2^14 entries or more to BLAS,
    which splits them over its threads, and on a 2-vCPU host waking the
    second thread stalled about one expansion query in four by ~8 ms. Nor
    np.einsum, whose call costs ~2 us before it adds anything.
    """
    row *= other
    return float(np.add.reduce(row))


def kernel_sum(prototype: BitPattern, query: BitPattern) -> float:
    """Normalized basis-product sum, by explicit summation over all 2^L terms.

    Returns sum_i phi_i(prototype) * phi_i(query) / 2^L.
    """
    _require_equal_length(prototype, query)
    length = prototype.length
    products = _sum_of_products(sign_row(prototype.word, length), sign_row(query.word, length))
    return products / (1 << length)


def estimate_coefficients(dataset: Dataset) -> Spectrum:
    """Average phi_i over the sample, scaled by 1/2^L, for every basis index.

    Materialises each distinct prototype's full 2^L sign row, times its
    count, in one reused buffer, and adds it to the total in place. Every
    partial sum is an integer, so the order of the sums cannot change a
    coefficient.
    """
    check_cap(dataset.length)
    length = dataset.length
    full = (1 << length) - 1
    row = np.empty(1 << length)
    total = np.zeros(1 << length)
    for word, count in dataset.counts.items():
        # float(count): an int8 array times a Python int would stay int8.
        np.multiply(np.frombuffer(sign_bytes(~word & full, length), np.int8), float(count), out=row)
        total += row
    total /= dataset.size * (1 << length)
    return Spectrum(length, dataset.size, total)


def estimate_expansion(spectrum: Spectrum, query: BitPattern) -> float:
    """Reconstruct p(query) as the full coefficient-weighted basis sum."""
    if spectrum.length != query.length:
        raise LengthMismatch(
            f"spectrum length {spectrum.length} != pattern length {query.length}"
        )
    return _sum_of_products(sign_row(query.word, spectrum.length), spectrum.coefficients)


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
    return _butterfly(data, direction)


def _butterfly(data: np.ndarray, direction: Direction) -> np.ndarray:
    """fast_transform of a float64 2^L vector, in place, with one temporary half per stage.

    Per coordinate, this basis maps the pair (a, b) at x_p = 0, 1 to
    (a + b, b - a) going forward, and back with (a - b, a + b) / 2. These
    are the plain +/- butterfly with the sign flips of odd-order
    coefficients folded in, and give the same floats, since a negation
    rounds exactly.
    """
    half = 1
    while half < len(data):
        blocks = data.reshape(-1, 2 * half)
        low, high = blocks[:, :half], blocks[:, half:]
        saved = low.copy()
        if direction == "forward":
            np.add(low, high, out=low)
            np.subtract(high, saved, out=high)
        else:
            np.subtract(low, high, out=low)
            np.add(saved, high, out=high)
        half *= 2
    if direction == "inverse":
        data /= len(data)
    return data


def frequency_vector(dataset: Dataset) -> np.ndarray:
    """Empirical frequencies over all 2^L patterns, indexed by word."""
    check_cap(dataset.length)
    distinct = len(dataset.counts)
    words = np.fromiter(dataset.counts.keys(), dtype=np.uint64, count=distinct)
    counts = np.fromiter(dataset.counts.values(), dtype=np.float64, count=distinct)
    freq = np.zeros(1 << dataset.length, dtype=np.float64)
    freq[words] = counts
    freq /= dataset.size
    return freq


def fwht_table(dataset: Dataset) -> np.ndarray:
    """The fwht estimate of every pattern, indexed by word: the frequencies' round trip."""
    return _butterfly(_butterfly(frequency_vector(dataset), "forward"), "inverse")


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
