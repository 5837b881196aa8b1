"""Verification oracles: the paths that show the expansion collapses to counting.

The package serves one estimate, count/N (diracpmf.estimators). Everything
here exists to check it on every input, and the serving path imports this
module only when one of these is asked for:

* the 2^L product-of-signs basis. phi_S multiplies the terms (2*x_l - 1)
  for the coordinates l in a subset S of {1..L}; the empty subset gives
  phi_0 = 1. The subset is encoded as an L-bit mask (bit l-1 set iff
  coordinate l participates), and the mask doubles as the basis index.
  phi_S is a tensor (Kronecker) product of one 2-vector per coordinate, so
  a whole sign vector is built by L doublings of an integer bitset, with no
  2^L index range and no cache (sign_bits states the convention). The
  bitset's low 9 coordinates come from _LOW_SIGNS, a 512-entry table built
  at import by the same doublings; the rest are doubled per call. The
  orthogonality, kernel and lemma sums are popcounts of XORed bitsets, and
  the numpy vectors (sign_row, sign_column) expand a bitset a byte at a
  time through _BYTE_SIGNS;
* the sign-variable lemma: for L variables a_1..a_L in {-1, +1}, the sum
  of all 2^L subset products equals 2^L when every variable is +1 and 0
  otherwise. It is what collapses the expansion to counting, so it gets a
  brute-force evaluator plus the closed-form binomial route it reduces to;
* the basis-product and indicator kernels;
* expansion -- p(x) as the spectrum's numerator-weighted basis sum / (N * 2^L);
* fwht -- round-trip the count vector through the fast transform and divide by N.
Both fit in integers (int32 while N < 2^30, int64 from there; no sum passes
2N) and divide once, so each returns count/N bit for bit. Both refuse, with
RangeError, a dataset whose N * 2^L reaches 2^53, past which the float64
coefficients numerators / (N * 2^L) stop being exact.
"""
from __future__ import annotations

import itertools
import math
import operator
from typing import Iterator, Literal, Sequence

import numpy as np

from .bitspace import MAX_LENGTH, BitPattern, Dataset, _check_length, _Frozen, check_cap
from .errors import LengthMismatch, NotPowerOfTwo, RangeError

class BasisIndex(_Frozen):
    """Subset mask identifying one basis polynomial of a given length.

    Immutable: two indices are equal, and hash equal, when their masks and lengths are.
    """

    __slots__ = ("mask", "length")
    mask: int
    length: int

    def __init__(self, mask: int, length: int) -> None:
        # operator.index refuses a float, and stores True or a numpy int as int.
        mask, length = operator.index(mask), _check_length(length)
        if not 0 <= mask < (1 << length):
            raise ValueError(f"mask {mask} outside 0..2^{length}-1")
        _set_mask(self, mask)
        _set_length(self, length)

    def _args(self) -> tuple:
        return self.mask, self.length


# The slot descriptors set the fields past _Frozen.__setattr__.
_set_mask = BasisIndex.mask.__set__
_set_length = BasisIndex.length.__set__


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


def sign_bits(flip_mask: int, length: int) -> int:
    """The signs (-1)^popcount(y & flip_mask), y < 2^L, as a bitset: bit y set where sign y is -1.

    The one sign convention: phi_S(x) is entry ~x of the vector of S and
    entry S of the vector of ~x. The vector is the Kronecker product of the
    pairs (1, -1) at the set bits among flip_mask's low L and (1, 1) at the
    others, so ~x flips exactly where x is 0. It is built by L doublings,
    each complementing the copy where the bit is set; the first 9 come from
    _LOW_SIGNS, built at import by the same doublings. Two bitsets multiply
    to -1 exactly where they differ, so a sum of 2^L sign products is
    2^L - 2 * (a ^ b).bit_count().
    """
    check_cap(length)
    return _sign_pair(flip_mask, 0, operator.index(length))[0]


def _sign_pair(mask_a: int, mask_b: int, length: int, start: int = 9) -> tuple[int, int]:
    """sign_bits of two flip masks at one (checked) length, doubled in one loop.

    The columns begin as the masks' _LOW_SIGNS entries, trimmed to 2^L bits
    below L=9; start=0 begins at the one point instead, which builds the table.
    """
    if start:
        a, b = _LOW_SIGNS[mask_a & 511], _LOW_SIGNS[mask_b & 511]
        if length < 9:
            ones = (1 << (1 << length)) - 1
            return a & ones, b & ones
    else:
        a = b = 0
    for bit in range(start, length):
        width = 1 << bit
        ones = (1 << width) - 1
        a |= (a ^ ones if mask_a >> bit & 1 else a) << width
        b |= (b ^ ones if mask_b >> bit & 1 else b) << width
    return a, b


#: sign_bits(m, 9) for every mask m of the low 9 coordinates: about 52 KB.
_LOW_SIGNS = tuple(_sign_pair(mask, 0, 9, start=0)[0] for mask in range(512))

#: Word b holds, as eight int8 bytes in memory order, the signs of the 8
#: points whose minus bits are byte b: 256 words, 2 KB, read-only.
_BYTE_SIGNS = np.where(np.arange(256)[:, None] >> np.arange(8) & 1, -1, 1).astype(np.int8)
_BYTE_SIGNS = _BYTE_SIGNS.view(np.uint64)[:, 0]
_BYTE_SIGNS.setflags(write=False)
# dtype objects, not scalar types, which numpy converts on each call (~60 ns).
_UINT8, _INT8 = np.dtype(np.uint8), np.dtype(np.int8)


def _int8_signs(bits: int, length: int) -> np.ndarray:
    """The 2^L int8 signs of a sign_bits bitset: one table word per byte of the bitset."""
    if length < 3:
        # Under 8 points the bitset is one byte: a read-only view of its word's first 2^L signs.
        return _BYTE_SIGNS[bits:bits + 1].view(_INT8)[:1 << length]
    minus_bytes = np.frombuffer(bits.to_bytes(1 << length - 3, "little"), _UINT8)
    return _BYTE_SIGNS.take(minus_bytes).view(_INT8)


def sign_column(index_mask: int, length: int) -> np.ndarray:
    """Vector of phi_S(x) over all x in word order, for the subset mask S: read-only int8.

    phi_S(x) is entry ~x of the signs of sign_bits(S, L), so the column is
    those signs read backwards.
    """
    column = _int8_signs(sign_bits(index_mask, length), length)[::-1]
    column.setflags(write=False)
    return column


def sign_row(pattern_word: int, length: int) -> np.ndarray:
    """Vector of phi_S(x) over all subset masks S in mask order, for fixed x.

    The signs of sign_bits(~x, L) as a new float64 array.
    """
    return _int8_signs(sign_bits(~pattern_word, length), length).astype(np.float64)


def orthogonality_sum(i: BasisIndex, k: BasisIndex) -> int:
    """Sum phi_i(x)*phi_k(x) over all 2^L patterns, by explicit summation.

    The two sign columns are compared point by point as bitsets, with the
    points indexed by ~x, and every one of the 2^L products is counted: -1
    where the columns differ.
    """
    length = i.length
    if length != k.length:
        raise LengthMismatch(f"basis lengths differ: {length} != {k.length}")
    check_cap(length)
    column_i, column_k = _sign_pair(i.mask, k.mask, length)
    return (1 << length) - 2 * (column_i ^ column_k).bit_count()


class SignAssignment(_Frozen):
    """A fixed vector of L values, each -1 or +1, held as a tuple."""

    __slots__ = ("values",)
    values: tuple[int, ...]

    def __init__(self, values: Sequence[int]) -> None:
        values = tuple(values)
        if not values:
            raise RangeError("sign assignment needs at least one variable")
        for value in values:
            if value not in (-1, 1):
                raise RangeError(f"sign value {value} is not -1 or +1")
        object.__setattr__(self, "values", values)

    def _args(self) -> tuple:
        return (self.values,)

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
    check_cap(length)
    column_p, column_q = _sign_pair(~prototype.word, ~query.word, length)
    return ((1 << length) - 2 * (column_p ^ column_q).bit_count()) / (1 << length)


class Spectrum(_Frozen):
    """The 2^L integer numerators sum_x count(x) * phi_S(x) of a sample of size N.

    Two spectra are equal when their lengths, sample sizes and numerator values are.
    """

    __slots__ = ("length", "sample_size", "numerators")
    length: int
    sample_size: int
    numerators: np.ndarray

    def __init__(self, length: int, sample_size: int, numerators: np.ndarray) -> None:
        if numerators.dtype.kind != "i":
            raise TypeError(f"numerators must be signed integers, not {numerators.dtype}")
        if numerators.shape != (1 << length,):
            raise ValueError("numerator vector must have 2^L entries")
        numerators.setflags(write=False)
        for name, value in zip(self.__slots__, (length, sample_size, numerators)):
            object.__setattr__(self, name, value)

    @property
    def coefficients(self) -> np.ndarray:
        """The basis coefficients numerators / (N * 2^L): a new read-only array each call."""
        coefficients = self.numerators / (self.sample_size << self.length)
        coefficients.setflags(write=False)
        return coefficients

    def _args(self) -> tuple:
        return self.length, self.sample_size, self.numerators

    def _key(self) -> tuple:
        return self.length, self.sample_size, self.numerators.astype(np.int64, copy=False).tobytes()


def _count_vector(dataset: Dataset) -> np.ndarray:
    """The counts over all 2^L patterns, indexed by word: int32 while N < 2^30, else int64."""
    check_cap(dataset.length)
    if dataset.size << dataset.length >= 1 << 53:
        raise RangeError(f"N={dataset.size} at L={dataset.length}: N*2^L must stay below 2^53")
    vector = np.zeros(1 << dataset.length, np.int32 if dataset.size < 1 << 30 else np.int64)
    # 1024 words at a time: the arrays beside the vector stay under 16 KiB.
    words, values = iter(dataset.counts), iter(dataset.counts.values())
    for block in [1024] * (len(dataset.counts) // 1024) + [len(dataset.counts) % 1024]:
        vector[np.fromiter(words, np.intp, block)] = np.fromiter(values, vector.dtype, block)
    return vector


def estimate_coefficients(dataset: Dataset) -> Spectrum:
    """The forward transform of the count vector, undivided (exact: see the module docstring).

    The fit costs O(L * 2^L) whatever the sample and holds two integer vectors; no BLAS call.
    """
    return Spectrum(dataset.length, dataset.size, _butterfly(_count_vector(dataset), "forward"))


def estimate_expansion(spectrum: Spectrum, query: BitPattern) -> float:
    """p(query): the full numerator-weighted basis sum / (N * 2^L) (see the module docstring)."""
    length, numerators = spectrum.length, spectrum.numerators
    _same_length("spectrum", length, query)
    row = _int8_signs(sign_bits(~query.word, length), length).astype(numerators.dtype)
    # Summed in int64: 2^L products of up to N each can pass int32.
    row *= numerators
    return int(np.add.reduce(row, dtype=np.int64)) / (spectrum.sample_size << length)


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
    """fast_transform of a float64 or integer 2^L vector, through one second vector of 2^L.

    Per coordinate, this basis maps the pair (a, b) at x_p = 0, 1 to
    (a + b, b - a) going forward, and back with (a - b, a + b) / 2: the plain
    +/- butterfly with the sign flips of odd-order coefficients folded in, and
    the same floats, as a negation rounds exactly. Halving rounds nothing
    either: * 0.5 on floats, >> 1 on a round trip's integers, all even. Each
    stage is constant-geometry (Pease 1968): it reads the pairs at 2i and
    2i + 1 and writes their two results to i and i + 2^(L-1) of the other
    vector, so the lowest index bit moves to the top; after L stages every bit
    is back in place. The 1-D strided reads need no numpy buffer. The result
    is data at even L and the second vector at odd L; data is overwritten.
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
            if other.dtype.kind == "f":
                other *= 0.5
            else:
                other >>= 1
        data, other = other, data
    return data


def frequency_vector(dataset: Dataset) -> np.ndarray:
    """Empirical frequencies over all 2^L patterns, indexed by word, as float64."""
    freq = _count_vector(dataset).astype(np.float64)
    freq /= dataset.size
    return freq


def fwht_table(dataset: Dataset) -> np.ndarray:
    """The fwht estimate of every pattern, indexed by word: count/N (see the module docstring).

    The round trip's integer counts are converted once to float64, and the
    table is read-only, so no caller can change a later answer.
    """
    table = _butterfly(_butterfly(_count_vector(dataset), "forward"), "inverse")
    table = table.astype(np.float64)
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
