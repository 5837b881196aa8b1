"""The one value contract shared by every immutable type of the package.

Each value has a fixed repr, and is equal and hash-equal to every copy of
itself (pickled at each protocol, copy.copy, copy.deepcopy). Its fields
refuse assignment and deletion, and it is never equal to the tuple of its
fields.
"""
import numpy as np
import pytest

from diracpmf import BitPattern, Dataset, PmfEstimate, load_dataset, parse_pattern
from diracpmf.verify import BasisIndex, SignAssignment, Spectrum


def dataset():
    return load_dataset(["11", "00", "11"])


# (build the value, its pinned repr, the tuple of its fields)
VALUES = {
    "BitPattern": (
        lambda: parse_pattern("011"),
        "BitPattern(bits=(0, 1, 1), word=6)",
        (6, 3),
    ),
    "BasisIndex": (
        lambda: BasisIndex(5, 4),
        "BasisIndex(mask=5, length=4)",
        (5, 4),
    ),
    "Dataset": (
        dataset,
        "Dataset(counts={3: 2, 0: 1}, length=2)",
        ({3: 2, 0: 1}, 2),
    ),
    "PmfEstimate": (
        lambda: PmfEstimate.fit(dataset(), "dirac"),
        "PmfEstimate(method='dirac', dataset=Dataset(counts={3: 2, 0: 1}, length=2))",
        ("dirac", dataset()),
    ),
    "SignAssignment": (
        lambda: SignAssignment((1, -1, 1)),
        "SignAssignment(values=(1, -1, 1))",
        ((1, -1, 1),),
    ),
    "Spectrum": (
        lambda: Spectrum(1, 1, np.zeros(2, np.int64)),
        "Spectrum(length=1, sample_size=1, numerators=array([0, 0]))",
        (1, 1, np.zeros(2, np.int64)),
    ),
}


@pytest.mark.parametrize("name", VALUES)
def test_value_contract(name, copies):
    build, text, fields = VALUES[name]
    value = build()
    assert type(value).__name__ == name
    assert repr(value) == text
    for other in [build(), *copies(value)]:
        assert type(other) is type(value)
        assert repr(other) == text
        assert other == value and hash(other) == hash(value)
        assert not other != value
    assert len({value, build(), *copies(value)}) == 1
    for field in [*getattr(type(value), "__slots__", ()), "values", "length", "other"]:
        with pytest.raises(AttributeError):
            setattr(value, field, 1)
        with pytest.raises(AttributeError):
            delattr(value, field)
    assert repr(value) == text and value == build()
    assert value != fields and fields != value
    assert not value == fields
