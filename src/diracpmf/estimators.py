"""The counting estimator, and PmfEstimate over all three estimation paths.

* dirac     -- count matching prototypes and divide by N (the closed form
  the expansion provably collapses to); O(1) per query, no numpy;
* expansion, fwht -- the reference paths in diracpmf.reference, which
  PmfEstimate.fit imports only when one of them is asked for.

All three must agree to 1e-12 on any dataset; the test suite enforces it.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from types import ModuleType
from typing import TYPE_CHECKING, Literal

from .bitspace import BitPattern, Dataset
from .errors import LengthMismatch

if TYPE_CHECKING:
    import numpy as np

    from .reference import Spectrum

#: Tolerance for float agreement between estimation paths.
EQUIVALENCE_TOL = 1e-12


def _require_equal_length(a: BitPattern, b: BitPattern) -> None:
    if a.length != b.length:
        raise LengthMismatch(f"pattern lengths differ: {a.length} != {b.length}")


def kernel_dirac(prototype: BitPattern, query: BitPattern) -> float:
    """Indicator kernel: 1 if the patterns agree elementwise, else 0."""
    _require_equal_length(prototype, query)
    return 1.0 if prototype.word == query.word else 0.0


def estimate_dirac(dataset: Dataset, query: BitPattern) -> float:
    """Empirical frequency: matching prototypes / N. O(1) per query."""
    if dataset.length != query.length:
        raise LengthMismatch(
            f"dataset length {dataset.length} != pattern length {query.length}"
        )
    return dataset.counts.get(query.word, 0) / dataset.size


EstimateMethod = Literal["expansion", "dirac", "fwht"]


@functools.cache
def _reference() -> ModuleType:
    # Cached: an import statement per query costs ~1.4 us, as much as a
    # whole expansion query at L=8.
    from . import reference
    return reference


@dataclass(frozen=True)
class PmfEstimate:
    """A queryable estimate p: {0,1}^L -> [0,1] built from a dataset."""

    method: EstimateMethod
    dataset: Dataset
    spectrum: Spectrum | None = None
    table: np.ndarray | None = None

    @classmethod
    def fit(cls, dataset: Dataset, method: EstimateMethod) -> PmfEstimate:
        spectrum = None
        table = None
        if method == "expansion":
            spectrum = _reference().estimate_coefficients(dataset)
        elif method == "fwht":
            # Round-trip once at fit time; queries then read a table entry.
            table = _reference().fwht_table(dataset)
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
            return _reference().estimate_expansion(self.spectrum, query)
        if self.method == "fwht":
            assert self.table is not None
            return float(self.table[query.word])
        return estimate_dirac(self.dataset, query)
