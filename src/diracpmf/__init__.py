"""Probability-mass estimation on binary spaces {0,1}^L.

Three interchangeable estimation paths (basis expansion, Dirac-kernel
counting, fast transform) plus the sign-product basis, the combinatorial
lemma tying them together, and a CLI front-end.

Importing the package loads only the counting path: no numpy. The names
of the verification oracles, which live in the numpy-backed .verify
module, load it on first use.
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
)
from .errors import (
    CapExceeded,
    DiracPmfError,
    EmptyDataset,
    EmptyInput,
    IllegalCharacter,
    LengthMismatch,
    LengthOutOfRange,
    NotPowerOfTwo,
    RaggedLengths,
    RangeError,
)
from .estimators import EQUIVALENCE_TOL, PmfEstimate, estimate_dirac

#: Names served from .verify, imported on first use: the counting path
#: needs none of them, and .verify loads numpy. They are documented there
#: and left out of __all__, so `from diracpmf import *` loads no numpy.
_VERIFY_NAMES = frozenset({
    "BasisIndex", "SignAssignment", "Spectrum", "estimate_coefficients",
    "estimate_expansion", "estimate_fwht", "eval_basis", "fast_transform",
    "frequency_vector", "kernel_dirac", "kernel_sum", "lemma1_sum",
    "orthogonality_sum", "signed_binomial_row_sum",
})


def __getattr__(name: str) -> object:
    if name not in _VERIFY_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import verify
    return getattr(verify, name)


def __dir__() -> list[str]:
    return sorted(globals().keys() | _VERIFY_NAMES)


__version__ = "0.1.0"

__all__ = [
    "EXHAUSTIVE_CAP",
    "EQUIVALENCE_TOL",
    "BitPattern",
    "Dataset",
    "PmfEstimate",
    "all_patterns",
    "dataset_from_words",
    "estimate_dirac",
    "load_dataset",
    "parse_pattern",
    "render_pattern",
    "CapExceeded",
    "DiracPmfError",
    "EmptyDataset",
    "EmptyInput",
    "IllegalCharacter",
    "LengthMismatch",
    "LengthOutOfRange",
    "NotPowerOfTwo",
    "RaggedLengths",
    "RangeError",
]
