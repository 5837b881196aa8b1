"""The counting estimator, and PmfEstimate over all three estimation paths.

* dirac     -- count matching prototypes and divide by N (the closed form
  the expansion provably collapses to); O(1) per query, no numpy;
* expansion, fwht -- the verification paths in diracpmf.verify, which
  PmfEstimate imports only when one of them is asked for.

All three return count/N bit for bit on every dataset they fit; tests enforce it.
"""
from __future__ import annotations

from types import MethodType
from typing import TYPE_CHECKING, Literal

from .bitspace import BitPattern, Dataset, _Frozen
from .errors import LengthMismatch

if TYPE_CHECKING:
    import numpy as np

    from .verify import Spectrum

#: Kept for callers that compare floats; the three paths agree with ==, to the bit.
EQUIVALENCE_TOL = 1e-12


def estimate_dirac(dataset: Dataset, query: BitPattern) -> float:
    """Empirical frequency: matching prototypes / N. O(1) per query."""
    if dataset.length != query.length:
        raise LengthMismatch(
            f"dataset length {dataset.length} != pattern length {query.length}"
        )
    return dataset._counts.get(query.word, 0) / dataset.size


EstimateMethod = Literal["expansion", "dirac", "fwht"]


class PmfEstimate(_Frozen):
    """A queryable estimate p: {0,1}^L -> [0,1] fitted to a dataset.

    The constructor fits, so every spectrum and table comes from the dataset,
    and binds the method's public query function to what it reads: the
    dataset (dirac), the spectrum (expansion) or the table (fwht). A call is
    that function's call, one length check and then the method's work.
    """

    __slots__ = ("method", "dataset", "spectrum", "table", "_answer")
    method: EstimateMethod
    dataset: Dataset
    spectrum: Spectrum | None
    table: np.ndarray | None

    def __init__(self, method: EstimateMethod, dataset: Dataset) -> None:
        spectrum = table = None
        if method == "dirac":
            answer = MethodType(estimate_dirac, dataset)
        elif method == "expansion":
            from .verify import estimate_coefficients, estimate_expansion
            spectrum = estimate_coefficients(dataset)
            answer = MethodType(estimate_expansion, spectrum)
        elif method == "fwht":
            from .verify import _read_table, fwht_table
            table = fwht_table(dataset)
            answer = MethodType(_read_table, table)
        else:
            raise ValueError(f"unknown estimation method {method!r}")
        # A bound method refers to what it reads, not to the estimate: no cycle.
        for name, value in zip(self.__slots__, (method, dataset, spectrum, table, answer)):
            object.__setattr__(self, name, value)

    @classmethod
    def fit(cls, dataset: Dataset, method: EstimateMethod) -> PmfEstimate:
        return cls(method, dataset)

    def __call__(self, query: BitPattern) -> float:
        return self._answer(query)

    def _args(self) -> tuple:
        # A copy refits: spectrum and table are deterministic functions of these.
        return self.method, self.dataset
