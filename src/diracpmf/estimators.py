"""The counting estimator, and PmfEstimate over all three estimation paths.

* dirac     -- count matching prototypes and divide by N (the closed form
  the expansion provably collapses to); O(1) per query, no numpy;
* expansion, fwht -- the verification paths in diracpmf.verify, which
  PmfEstimate.fit imports only when one of them is asked for.

All three must agree to 1e-12 on any dataset; the test suite enforces it.
"""
from __future__ import annotations

import functools
from types import ModuleType
from typing import TYPE_CHECKING, Literal

from .bitspace import BitPattern, Dataset, _Frozen
from .errors import LengthMismatch

if TYPE_CHECKING:
    import numpy as np

    from .verify import Spectrum

#: Tolerance for float agreement between estimation paths.
EQUIVALENCE_TOL = 1e-12


def estimate_dirac(dataset: Dataset, query: BitPattern) -> float:
    """Empirical frequency: matching prototypes / N. O(1) per query."""
    if dataset.length != query.length:
        raise LengthMismatch(
            f"dataset length {dataset.length} != pattern length {query.length}"
        )
    return dataset.counts.get(query.word, 0) / dataset.size


EstimateMethod = Literal["expansion", "dirac", "fwht"]


@functools.cache
def _verify() -> ModuleType:
    # Cached: an import statement per query costs ~1.4 us, as much as a
    # whole expansion query at L=8.
    from . import verify
    return verify


class PmfEstimate(_Frozen):
    """A queryable estimate p: {0,1}^L -> [0,1] built from a dataset.

    The constructor binds the method's query once, so a call makes one
    length check and then does only that method's work; for dirac, one
    read of the count map.
    """

    __slots__ = ("method", "dataset", "spectrum", "table", "_query", "_length", "_counts", "_size")
    method: EstimateMethod
    dataset: Dataset
    spectrum: Spectrum | None
    table: np.ndarray | None

    def __init__(
        self,
        method: EstimateMethod,
        dataset: Dataset,
        spectrum: Spectrum | None = None,
        table: np.ndarray | None = None,
    ) -> None:
        query = _QUERIES.get(method)
        if query is None:
            raise ValueError(f"unknown estimation method {method!r}")
        # Each method takes its own array and no other, checked here so a
        # wrong one fails now rather than at, or silently in, a query.
        length = dataset.length
        if method == "expansion":
            valid = table is None and isinstance(spectrum, _verify().Spectrum) and (
                spectrum.length == length and spectrum.sample_size == dataset.size
            )
            wants = "a Spectrum of that L and N and no table"
        elif method == "fwht":
            valid = spectrum is None and getattr(table, "shape", None) == (1 << length,)
            wants = f"a table of shape ({1 << length},) and no spectrum"
        else:
            valid, wants = spectrum is None and table is None, "neither a spectrum nor a table"
        if not valid:
            raise ValueError(f"a {method} estimate of L={length} takes {wants}")
        if table is not None:
            # Read-only, so no caller can change a later answer; a pickled or
            # copied estimate is rebuilt through here and stays read-only too.
            table.setflags(write=False)
        for name, value in (
            ("method", method), ("dataset", dataset), ("spectrum", spectrum), ("table", table),
            ("_query", query), ("_length", length), ("_counts", dataset._counts),
            ("_size", dataset.size),
        ):
            object.__setattr__(self, name, value)

    @classmethod
    def fit(cls, dataset: Dataset, method: EstimateMethod) -> PmfEstimate:
        spectrum = _verify().estimate_coefficients(dataset) if method == "expansion" else None
        # Round-trip once at fit time; queries then read a table entry.
        table = _verify().fwht_table(dataset) if method == "fwht" else None
        return cls(method, dataset, spectrum, table)

    def __call__(self, query: BitPattern) -> float:
        if query.length != self._length:
            raise LengthMismatch(
                f"dataset length {self._length} != pattern length {query.length}"
            )
        return self._query(self, query)

    def _dirac(self, query: BitPattern) -> float:
        return self._counts.get(query.word, 0) / self._size

    def _expansion(self, query: BitPattern) -> float:
        return _verify().estimate_expansion(self.spectrum, query)

    def _fwht(self, query: BitPattern) -> float:
        return float(self.table[query.word])

    def _fields(self) -> tuple:
        return (self.method, self.dataset, self.spectrum, self.table)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        # spectrum and table are deterministic functions of method and dataset.
        return self.method == other.method and self.dataset == other.dataset

    def __hash__(self) -> int:
        return hash((self.method, self.dataset))

    def __reduce__(self) -> tuple:
        # Rebuilt through the constructor, which binds the query again; the
        # arrays go along, so unpickling does not refit.
        return self.__class__, self._fields()

    def __repr__(self) -> str:
        return "PmfEstimate(method={!r}, dataset={!r}, spectrum={!r}, table={!r})".format(
            *self._fields()
        )


#: The query each method binds; plain functions, so an estimate holds no reference cycle.
_QUERIES = {
    "dirac": PmfEstimate._dirac,
    "expansion": PmfEstimate._expansion,
    "fwht": PmfEstimate._fwht,
}
