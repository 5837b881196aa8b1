"""The 2^L product-of-signs polynomial basis over {0,1}^L.

Basis function phi_S multiplies the terms (2*x_l - 1) for the coordinates
l in a subset S of {1..L}; the empty subset gives phi_0 = 1. The subset is
encoded as an L-bit mask (bit l-1 set iff coordinate l participates), and
the mask doubles as the basis index. The sign vectors import numpy on
first use, so the rest of the module loads without it.

phi_S is a tensor (Kronecker) product of one 2-vector per coordinate, so a
whole sign vector is built by L doublings of a byte pattern, with no 2^L
index range and no cache.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Literal

from .bitspace import EXHAUSTIVE_CAP, BitPattern, check_cap  # EXHAUSTIVE_CAP: re-exported
from .errors import LengthMismatch, LengthOutOfRange

if TYPE_CHECKING:
    import numpy as np

#: Swaps the int8 bytes +1 and -1, which negates a sign pattern.
_NEGATE = bytes.maketrans(b"\x01\xff", b"\xff\x01")


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


def iter_basis(length: int, ordering: Ordering = "canonical") -> Iterator[BasisIndex]:
    """Yield all 2^L subsets one at a time, either in mask order or grouped by order.

    The by_cardinality view yields all order-0 entries, then order-1, etc.;
    within an order, ascending by participating coordinates. The limit and
    the ordering are checked on the call, before anything is yielded.
    """
    check_cap(length)
    if ordering == "canonical":
        return (BasisIndex(mask, length) for mask in range(1 << length))
    if ordering == "by_cardinality":
        # combinations() yields each order's member tuples in ascending order.
        coordinates = range(1, length + 1)
        return (
            BasisIndex.from_members(members, length)
            for order in range(length + 1)
            for members in itertools.combinations(coordinates, order)
        )
    raise ValueError(f"unknown ordering {ordering!r}")


def enumerate_basis(length: int, ordering: Ordering = "canonical") -> BasisTable:
    """List all 2^L subsets in one of the orderings of iter_basis."""
    return BasisTable(length, tuple(iter_basis(length, ordering)))


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


def sign_bytes(flip_mask: int, length: int, first: int = 1) -> bytes:
    """The signs first * (-1)^popcount(i & flip_mask) for i in 0..2^L-1, as int8 bytes.

    This is the Kronecker product of the pairs (1, -1) for the bits set in
    flip_mask and (1, 1) for the others, built by L doublings: each appends
    a copy of the pattern so far, negated byte-wise where the bit is set.
    Each doubling is one C-level bytes copy, so a short vector pays no numpy
    call per coordinate.
    """
    check_cap(length)
    pattern = b"\x01" if first > 0 else b"\xff"
    for bit in range(length):
        pattern += pattern.translate(_NEGATE) if flip_mask >> bit & 1 else pattern
    return pattern


def sign_column(index_mask: int, length: int) -> np.ndarray:
    """Vector of phi_S(x) over all x in word order, for the subset mask S.

    phi_S(0) = (-1)^|S|, and setting bit p of x flips the sign exactly
    when p is in S.
    """
    import numpy as np
    first = -1 if index_mask.bit_count() & 1 else 1
    return np.frombuffer(sign_bytes(index_mask, length, first), np.int8).astype(np.float64)


def sign_row(pattern_word: int, length: int) -> np.ndarray:
    """Vector of phi_S(x) over all subset masks S in mask order, for fixed x.

    float64, the dtype of the coefficients it is multiplied with. phi_0 = 1,
    and adding coordinate p to S flips the sign exactly when x_p = 0.
    """
    import numpy as np
    flips = ~pattern_word & ((1 << length) - 1)
    return np.frombuffer(sign_bytes(flips, length), np.int8).astype(np.float64)


def orthogonality_sum(i: BasisIndex, k: BasisIndex) -> int:
    """Sum phi_i(x)*phi_k(x) over all 2^L patterns, by explicit summation."""
    if i.length != k.length:
        raise LengthMismatch(f"basis lengths differ: {i.length} != {k.length}")
    import numpy as np
    # Not np.dot, which hands float64 vectors of 2^14 entries or more to a threaded BLAS.
    products = sign_column(i.mask, i.length)
    products *= sign_column(k.mask, k.length)
    return int(np.add.reduce(products))
