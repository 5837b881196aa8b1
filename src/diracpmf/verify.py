"""Verification oracles: the paths that show the expansion collapses to counting.

The package serves one estimate, count/N (diracpmf.estimators). Everything
here exists to check it on every input, and the serving path imports this
module only when one of these is asked for:

* the 2^L product-of-signs basis. phi_S multiplies the terms (2*x_l - 1)
  for the coordinates l in a subset S of {1..L}; the empty subset gives
  phi_0 = 1. The subset is encoded as an L-bit mask (bit l-1 set iff
  coordinate l participates), and the mask doubles as the basis index.
  phi_S is a tensor (Kronecker) product of one 2-vector per coordinate, so
  a whole sign vector is built by L doublings, with no 2^L index range and
  no cache: of int8 bytes for the numpy vectors (sign_row, sign_column),
  of an integer bitset, set where the sign is -1, for the exact oracles.
  One convention: index i of the vector of mask m holds (-1)^popcount(i & m),
  so phi_S(x) is entry ~x of the vector of S and entry S of that of ~x. The
  orthogonality, kernel and lemma sums are popcounts of XORed bitsets;
* the sign-variable lemma: for L variables a_1..a_L in {-1, +1}, the sum
  of all 2^L subset products equals 2^L when every variable is +1 and 0
  otherwise. It is what collapses the expansion to counting, so it gets a
  brute-force evaluator plus the closed-form binomial route it reduces to;
* the basis-product and indicator kernels;
* expansion -- project the sample onto the basis and reconstruct p(x) as
  the coefficient-weighted basis sum;
* fwht -- round-trip the count vector through the fast sign-product
  transform and divide by N once, which gives count/N exactly.
"""
from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import Iterator, Literal, Sequence

import numpy as np

from .bitspace import MAX_LENGTH, BitPattern, Dataset, _check_length, check_cap
from .errors import LengthMismatch, NotPowerOfTwo, RangeError

#: Swaps the int8 bytes +1 and -1, which negates a sign pattern.
_NEGATE = bytes.maketrans(b"\x01\xff", b"\xff\x01")


@dataclass(frozen=True, init=False)
class BasisIndex:
    """Subset mask identifying one basis polynomial of a given length."""

    mask: int
    length: int

    def __init__(self, mask: int, length: int) -> None:
        # operator.index refuses a float, and stores True or a numpy int as int.
        # Each field is set once here; a __post_init__ would set it twice.
        mask, length = operator.index(mask), _check_length(length)
        if not 0 <= mask < (1 << length):
            raise ValueError(f"mask {mask} outside 0..2^{length}-1")
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "length", length)


Ordering = Literal["canonical", "by_cardinality"]


def iter_basis(length: int, ordering: Ordering = "canonical") -> Iterator[int]:
    """Yield the masks of all 2^L subsets one at a time, in mask order or grouped by order.

    The by_cardinality view yields all order-0 masks, then order-1, etc.;
    within an order, ascending by participating coordinates. The limit and
    the ordering are checked on the call, before anything is yielded.
    """
    check_cap(length)
    if ordering == "canonical":
        return iter(range(1 << length))
    if ordering == "by_cardinality":
        # combinations() yields each order's bit positions in ascending order.
        return (
            sum(1 << position for position in positions)
            for order in range(length + 1)
            for positions in itertools.combinations(range(length), order)
        )
    raise ValueError(f"unknown ordering {ordering!r}")


def _same_length(kind: str, length: int, pattern: BitPattern) -> None:
    if length != pattern.length:
        raise LengthMismatch(f"{kind} length {length} != pattern length {pattern.length}")


def eval_basis(index: BasisIndex, pattern: BitPattern) -> int:
    """Evaluate phi_S(x) = prod_{l in S} (2x_l - 1) in {-1, +1}.

    Computed as (-1)^(number of zero coordinates inside S) via popcount;
    the equivalence with the literal product is property-tested.
    """
    _same_length("basis", index.length, pattern)
    zeros_in_subset = index.mask & ~pattern.word
    return -1 if zeros_in_subset.bit_count() & 1 else 1


def sign_bytes(flip_mask: int, length: int) -> bytes:
    """The signs (-1)^popcount(i & flip_mask) for i in 0..2^L-1, as int8 bytes.

    This is the Kronecker product of the pairs (1, -1) for the bits set in
    flip_mask and (1, 1) for the others, built by L doublings: each appends
    a copy of the pattern so far, negated byte-wise where the bit is set.
    Each doubling is one C-level bytes copy, so a short vector pays no numpy
    call per coordinate. Only the low L bits of flip_mask count, so ~x flips
    exactly where x is 0.
    """
    check_cap(length)
    pattern = b"\x01"
    for bit in range(length):
        pattern += pattern.translate(_NEGATE) if flip_mask >> bit & 1 else pattern
    return pattern


def sign_bits(flip_mask: int, length: int) -> int:
    """sign_bytes(flip_mask, length) as a bitset: bit y is set where sign y is -1.

    The same L doublings run on a Python int, complementing the copy where
    flip_mask's bit is set. Two bitsets multiply to -1 exactly where they
    differ, so a sum of 2^L sign products is 2^L - 2 * (a ^ b).bit_count().
    """
    check_cap(length)
    bits = 0
    for bit in range(length):
        width = 1 << bit
        bits |= (bits ^ ((1 << width) - 1) if flip_mask >> bit & 1 else bits) << width
    return bits


def sign_column(index_mask: int, length: int) -> np.ndarray:
    """Vector of phi_S(x) over all x in word order, for the subset mask S: a read-only int8 view.

    phi_S(x) is entry ~x of sign_bytes(S, L), so the column is those bytes
    read backwards, with no copy.
    """
    return np.frombuffer(sign_bytes(index_mask, length), np.int8)[::-1]


def sign_row(pattern_word: int, length: int) -> np.ndarray:
    """Vector of phi_S(x) over all subset masks S in mask order, for fixed x.

    The float64 signs of sign_bytes(~x, L), in the coefficients' dtype.
    """
    return np.frombuffer(sign_bytes(~pattern_word, length), np.int8).astype(np.float64)


def orthogonality_sum(i: BasisIndex, k: BasisIndex) -> int:
    """Sum phi_i(x)*phi_k(x) over all 2^L patterns, by explicit summation.

    The two sign columns are compared point by point as bitsets, with the
    points indexed by ~x, and every one of the 2^L products is counted: -1
    where the columns differ.
    """
    if i.length != k.length:
        raise LengthMismatch(f"basis lengths differ: {i.length} != {k.length}")
    column_i, column_k = sign_bits(i.mask, i.length), sign_bits(k.mask, i.length)
    return (1 << i.length) - 2 * (column_i ^ column_k).bit_count()


@dataclass(frozen=True)
class SignAssignment:
    """A fixed vector of L values, each -1 or +1."""

    values: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.values:
            raise RangeError("sign assignment needs at least one variable")
        for value in self.values:
            if value not in (-1, 1):
                raise RangeError(f"sign value {value} is not -1 or +1")

    @property
    def length(self) -> int:
        return len(self.values)

    @property
    def minus_count(self) -> int:
        return sum(1 for value in self.values if value == -1)

    @classmethod
    def from_string(cls, text: str) -> SignAssignment:
        """Parse a string like '+-+' into signs."""
        mapping = {"+": 1, "-": -1}
        try:
            return cls(tuple(mapping[char] for char in text))
        except KeyError as exc:
            raise RangeError(f"sign string {text!r} must contain only '+'/'-'") from exc


def lemma1_sum(assignment: SignAssignment) -> int:
    """Brute-force sum of all 2^L subset products of the sign variables.

    The Kronecker product of the pairs (1, a_p) lists every subset product
    (-1)^(number of -1 entries selected) exactly once, in subset-mask order:
    it is the sign pattern flipped at the -1 variables. The sum counts its
    -1 bits; exact integer arithmetic, no numpy.
    """
    minus_mask = 0
    for position, value in enumerate(assignment.values):
        if value == -1:
            minus_mask |= 1 << position
    return (1 << assignment.length) - 2 * sign_bits(minus_mask, assignment.length).bit_count()


def signed_binomial_row_sum(minus_count: int, plus_count: int) -> int:
    """Closed-form value of the subset-product sum via binomial rows.

    minus_count (m) and plus_count (k) are how many variables are -1 and
    +1; L = m + k. All-plus sums the plain binomial row to 2^L; any m >= 1
    contributes an alternating row summing to 0, scaled by 2^k.
    """
    if minus_count < 0 or plus_count < 0:
        raise RangeError("variable counts must be nonnegative")
    length = minus_count + plus_count
    if length < 1:
        raise RangeError("need at least one variable")
    if length > MAX_LENGTH:
        raise RangeError(f"L={length} exceeds {MAX_LENGTH}")
    if minus_count == 0:
        return sum(math.comb(length, row) for row in range(length + 1))
    alternating = sum(
        (-1) ** row * math.comb(minus_count, row) for row in range(minus_count + 1)
    )
    return (1 << plus_count) * alternating


def kernel_dirac(prototype: BitPattern, query: BitPattern) -> float:
    """Indicator kernel: 1 if the patterns agree elementwise, else 0."""
    _same_length("prototype", prototype.length, query)
    return 1.0 if prototype.word == query.word else 0.0


def kernel_sum(prototype: BitPattern, query: BitPattern) -> float:
    """Normalized basis-product sum, by explicit summation over all 2^L terms.

    Returns sum_i phi_i(prototype) * phi_i(query) / 2^L.
    """
    _same_length("prototype", prototype.length, query)
    length = prototype.length
    differ = sign_bits(~prototype.word, length) ^ sign_bits(~query.word, length)
    return ((1 << length) - 2 * differ.bit_count()) / (1 << length)


@dataclass(frozen=True, eq=False)
class Spectrum:
    """The 2^L basis coefficients estimated from a sample of size N.

    Two spectra are equal when their lengths, sample sizes and every
    coefficient are.
    """

    length: int
    sample_size: int
    coefficients: np.ndarray

    def __post_init__(self) -> None:
        if self.coefficients.shape != (1 << self.length,):
            raise ValueError("coefficient vector must have 2^L entries")
        self.coefficients.setflags(write=False)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            (self.length, self.sample_size) == (other.length, other.sample_size)
            and np.array_equal(self.coefficients, other.coefficients)
        )

    def __hash__(self) -> int:
        # + 0.0 turns -0.0 into 0.0, which array_equal counts as equal to it.
        return hash((self.length, self.sample_size, (self.coefficients + 0.0).tobytes()))

    def __reduce__(self) -> tuple:
        # Rebuilt through the constructor, so a pickled or deep-copied
        # spectrum's coefficients are read-only again.
        return Spectrum, (self.length, self.sample_size, self.coefficients)


def _count_vector(dataset: Dataset) -> np.ndarray:
    """The dataset's counts over all 2^L patterns, indexed by word, as float64."""
    check_cap(dataset.length)
    vector = np.zeros(1 << dataset.length)
    for word, count in dataset.counts.items():
        vector[word] = count
    return vector


def estimate_coefficients(dataset: Dataset) -> Spectrum:
    """Average phi_i over the sample, scaled by 1/2^L, for every basis index.

    The numerators sum_x count(x) * phi_S(x) are the forward transform of
    the count vector. Every partial sum is an integer of size at most N, so
    it is exact in float64 and the one division rounds each coefficient
    once. The fit costs O(L * 2^L) whatever the sample, and holds two
    float64 vectors; no BLAS call.
    """
    total = _butterfly(_count_vector(dataset), "forward")
    total /= dataset.size * (1 << dataset.length)
    return Spectrum(dataset.length, dataset.size, total)


def estimate_expansion(spectrum: Spectrum, query: BitPattern) -> float:
    """Reconstruct p(query) as the full coefficient-weighted basis sum."""
    _same_length("spectrum", spectrum.length, query)
    row = sign_row(query.word, spectrum.length)
    # Not np.dot: BLAS splits 2^14 or more float64 entries over its threads, and
    # on a 2-vCPU host waking the second stalled one query in four by ~8 ms.
    # Nor np.einsum, whose call costs ~2 us before it adds anything.
    row *= spectrum.coefficients
    return float(np.add.reduce(row))


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
    """fast_transform of a float64 2^L vector, through one second vector of 2^L.

    Per coordinate, this basis maps the pair (a, b) at x_p = 0, 1 to
    (a + b, b - a) going forward, and back with (a - b, a + b) / 2. These
    are the plain +/- butterfly with the sign flips of odd-order
    coefficients folded in, and give the same floats, since a negation
    rounds exactly. Each stage is constant-geometry (Pease 1968): it reads
    the pairs at 2i and 2i + 1 and writes their two results to i and
    i + 2^(L-1) of the other vector, so the lowest index bit moves to the
    top; after L stages every bit is back in place. The 1-D strided reads
    need no numpy buffer. The result is data at even L and the second
    vector at odd L; data is overwritten either way.
    """
    half = len(data) // 2
    other = np.empty_like(data)
    for _ in range(len(data).bit_length() - 1):
        low, high = data[0::2], data[1::2]
        if direction == "forward":
            np.add(low, high, out=other[:half])
            np.subtract(high, low, out=other[half:])
        else:
            np.subtract(low, high, out=other[:half])
            np.add(low, high, out=other[half:])
        data, other = other, data
    if direction == "inverse":
        data /= len(data)
    return data


def frequency_vector(dataset: Dataset) -> np.ndarray:
    """Empirical frequencies over all 2^L patterns, indexed by word."""
    freq = _count_vector(dataset)
    freq /= dataset.size
    return freq


def fwht_table(dataset: Dataset) -> np.ndarray:
    """The fwht estimate of every pattern, indexed by word: count/N, exactly.

    The round trip runs on the counts: every partial sum is an integer of
    size at most 2^L * N < 2^53, so it returns the counts exactly. The
    table is read-only, so no caller can change a later answer.
    """
    table = _butterfly(_butterfly(_count_vector(dataset), "forward"), "inverse")
    table /= dataset.size
    table.setflags(write=False)
    return table


def _read_table(table: np.ndarray, query: BitPattern) -> float:
    """p(query) read from an fwht_table: the entry at the query's word."""
    _same_length("table", len(table).bit_length() - 1, query)
    return float(table[query.word])


def estimate_fwht(dataset: Dataset, query: BitPattern) -> float:
    """Read p(query) from the fwht round trip of the whole dataset."""
    # Checked before the fit, so a wrong query costs no 2^L work.
    _same_length("dataset", dataset.length, query)
    return _read_table(fwht_table(dataset), query)
