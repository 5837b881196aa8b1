"""The 2^L product-of-signs polynomial basis over {0,1}^L.

Basis function phi_S multiplies the terms (2*x_l - 1) for the coordinates
l in a subset S of {1..L}; the empty subset gives phi_0 = 1. The subset is
encoded as an L-bit mask (bit l-1 set iff coordinate l participates), and
the mask doubles as the basis index.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .bitspace import BitPattern
from .errors import CapExceeded, LengthMismatch, LengthOutOfRange

#: Largest L for which 2^L enumerations are run by default.
EXHAUSTIVE_CAP = 24


def check_cap(length: int, cap: int = EXHAUSTIVE_CAP) -> None:
    if length < 1:
        raise LengthOutOfRange(f"length {length} must be >= 1")
    if length > cap:
        raise CapExceeded(f"L={length} exceeds the exhaustive cap {cap}")


@dataclass(frozen=True)
class BasisIndex:
    """Subset mask identifying one basis polynomial of a given length."""

    mask: int
    length: int

    def __post_init__(self) -> None:
        if not 1 <= self.length <= 64:
            raise LengthOutOfRange(f"length {self.length} outside 1..64")
        if not 0 <= self.mask < (1 << self.length):
            raise ValueError(f"mask {self.mask} outside 0..2^{self.length}-1")

    @property
    def order(self) -> int:
        """Number of (2x_l - 1) factors in the product."""
        return self.mask.bit_count()

    @property
    def members(self) -> tuple[int, ...]:
        """Participating coordinates, 1-based, ascending."""
        return tuple(
            position + 1
            for position in range(self.length)
            if (self.mask >> position) & 1
        )

    @classmethod
    def from_members(cls, members: tuple[int, ...] | list[int], length: int) -> BasisIndex:
        mask = 0
        for member in members:
            if not 1 <= member <= length:
                raise ValueError(f"coordinate {member} outside 1..{length}")
            mask |= 1 << (member - 1)
        return cls(mask, length)


@dataclass(frozen=True)
class BasisTable:
    """All 2^L basis indices of one length, in a fixed ordering."""

    length: int
    entries: tuple[BasisIndex, ...]

    def __post_init__(self) -> None:
        if len(self.entries) != 1 << self.length:
            raise ValueError("basis table must contain all 2^L subsets")


Ordering = Literal["canonical", "by_cardinality"]


def enumerate_basis(
    length: int, ordering: Ordering = "canonical", cap: int = EXHAUSTIVE_CAP
) -> BasisTable:
    """List all 2^L subsets, either in mask order or grouped by order.

    The by_cardinality view lists all order-0 entries, then order-1, etc.;
    within an order, ascending by participating coordinates.
    """
    check_cap(length, cap)
    entries = [BasisIndex(mask, length) for mask in range(1 << length)]
    if ordering == "by_cardinality":
        entries.sort(key=lambda entry: (entry.order, entry.members))
    elif ordering != "canonical":
        raise ValueError(f"unknown ordering {ordering!r}")
    return BasisTable(length, tuple(entries))


def eval_basis(index: BasisIndex, pattern: BitPattern) -> int:
    """Evaluate phi_S(x) = prod_{l in S} (2x_l - 1) in {-1, +1}.

    Computed as (-1)^(number of zero coordinates inside S) via popcount;
    the equivalence with the literal product is property-tested.
    """
    if index.length != pattern.length:
        raise LengthMismatch(
            f"basis length {index.length} != pattern length {pattern.length}"
        )
    zeros_in_subset = index.mask & ~pattern.word
    return -1 if zeros_in_subset.bit_count() & 1 else 1


@functools.lru_cache(maxsize=32)
def _mask_range(length: int) -> np.ndarray:
    masks = np.arange(1 << length, dtype=np.uint64)
    masks.setflags(write=False)
    return masks


def sign_column(index_mask: int, length: int) -> np.ndarray:
    """Vector of phi_S(x) over all x in word order, for the subset mask S."""
    full = (1 << length) - 1
    zeros = np.bitwise_count(np.uint64(index_mask) & ~_mask_range(length) & np.uint64(full))
    return 1 - 2 * (zeros & 1).astype(np.int64)


def sign_row(pattern_word: int, length: int) -> np.ndarray:
    """Vector of phi_S(x) over all subset masks S in mask order, for fixed x.

    float64, the dtype of the coefficients it is multiplied with, so no
    2^L cast runs per query.
    """
    full = (1 << length) - 1
    complement = np.uint64(~pattern_word & full)
    zeros = np.bitwise_count(_mask_range(length) & complement)
    return 1.0 - 2.0 * (zeros & 1)


def orthogonality_sum(
    i: BasisIndex, k: BasisIndex, cap: int = EXHAUSTIVE_CAP
) -> int:
    """Sum phi_i(x)*phi_k(x) over all 2^L patterns, by explicit summation."""
    if i.length != k.length:
        raise LengthMismatch(f"basis lengths differ: {i.length} != {k.length}")
    check_cap(i.length, cap)
    return int(np.dot(sign_column(i.mask, i.length), sign_column(k.mask, k.length)))
