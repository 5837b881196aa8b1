"""Probability-mass estimation on binary spaces {0,1}^L.

Three interchangeable estimation paths (basis expansion, Dirac-kernel
counting, fast transform) plus the sign-product basis, the combinatorial
lemma tying them together, and a CLI front-end.

Importing the package loads no numpy, which the counting path never
needs; the names of the numpy-backed .reference module load it on first use.
"""
from .basis import (
    BasisIndex,
    BasisTable,
    enumerate_basis,
    eval_basis,
    orthogonality_sum,
)
from .bitspace import (
    EXHAUSTIVE_CAP,
    BitPattern,
    Dataset,
    all_patterns,
    dataset_from_words,
    load_dataset,
    parse_pattern,
    render_pattern,
    signed_value,
)
from .combinatorics import (
    SignAssignment,
    check_pascal_identities,
    lemma1_sum,
    signed_binomial_row_sum,
)
from .errors import (
    CapExceeded,
    DiracPmfError,
    EmptyDataset,
    EmptyInput,
    IllegalCharacter,
    IndexOutOfRange,
    LengthMismatch,
    LengthOutOfRange,
    NotPowerOfTwo,
    RaggedLengths,
    RangeError,
)
from .estimators import EQUIVALENCE_TOL, PmfEstimate, estimate_dirac, kernel_dirac

#: Names served by the numpy-backed .reference module, imported on first use.
_REFERENCE_NAMES = frozenset({
    "Spectrum", "estimate_coefficients", "estimate_expansion", "estimate_fwht",
    "fast_transform", "frequency_vector", "gram_matrix", "kernel_sum",
})


def __getattr__(name: str) -> object:
    if name in _REFERENCE_NAMES:
        from . import reference
        return getattr(reference, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(globals().keys() | _REFERENCE_NAMES)


__version__ = "0.1.0"

__all__ = [
    "EXHAUSTIVE_CAP",
    "EQUIVALENCE_TOL",
    "BasisIndex",
    "BasisTable",
    "BitPattern",
    "Dataset",
    "PmfEstimate",
    "SignAssignment",
    "Spectrum",
    "all_patterns",
    "check_pascal_identities",
    "dataset_from_words",
    "enumerate_basis",
    "estimate_coefficients",
    "estimate_dirac",
    "estimate_expansion",
    "estimate_fwht",
    "eval_basis",
    "fast_transform",
    "frequency_vector",
    "gram_matrix",
    "kernel_dirac",
    "kernel_sum",
    "lemma1_sum",
    "load_dataset",
    "orthogonality_sum",
    "parse_pattern",
    "render_pattern",
    "signed_binomial_row_sum",
    "signed_value",
    "CapExceeded",
    "DiracPmfError",
    "EmptyDataset",
    "EmptyInput",
    "IllegalCharacter",
    "IndexOutOfRange",
    "LengthMismatch",
    "LengthOutOfRange",
    "NotPowerOfTwo",
    "RaggedLengths",
    "RangeError",
]
