"""Probability-mass estimation on binary spaces {0,1}^L.

Three interchangeable estimation paths (basis expansion, Dirac-kernel
counting, fast transform) plus the sign-product basis, the combinatorial
lemma tying them together, and a CLI front-end.

Importing the package loads only the counting path: no numpy and no
dataclasses. The names of the numpy-backed .reference module and of the
.basis and .combinatorics oracles load their module on first use.
"""
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

#: Names of the modules the counting path does not need, each imported on
#: first use: .reference loads numpy, and .basis and .combinatorics are
#: verification oracles.
_LAZY_NAMES = {
    name: module
    for module, names in {
        "basis": ("BasisIndex", "BasisTable", "enumerate_basis", "eval_basis",
                  "orthogonality_sum"),
        "combinatorics": ("SignAssignment", "check_pascal_identities", "lemma1_sum",
                          "signed_binomial_row_sum"),
        "reference": ("Spectrum", "estimate_coefficients", "estimate_expansion",
                      "estimate_fwht", "fast_transform", "frequency_vector", "gram_matrix",
                      "kernel_sum"),
    }.items()
    for name in names
}


def __getattr__(name: str) -> object:
    module = _LAZY_NAMES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted(globals().keys() | _LAZY_NAMES.keys())


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
