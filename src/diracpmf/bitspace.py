"""Binary pattern and dataset representations, plus text ingestion.

A pattern is an ordered vector (x_1, ..., x_L) of bits. The leftmost
character of a text pattern is x_1, and internally bit l-1 of the packed
word holds x_l, so L <= 64 patterns fit one machine word.

Ingestion is words-first: each distinct line is validated and packed into
a word once, and a dataset stores only how often each word occurs.
BitPattern objects are built when a caller asks for one.
"""
from __future__ import annotations

import sys
from collections import Counter
from itertools import islice, repeat
from operator import index
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import (
    CapExceeded,
    DiracPmfError,
    EmptyDataset,
    EmptyInput,
    IllegalCharacter,
    LengthMismatch,
    LengthOutOfRange,
    RaggedLengths,
)

MAX_LENGTH = 64
#: No call enumerates more than 2^EXHAUSTIVE_CAP terms; each checks before it allocates.
EXHAUSTIVE_CAP = 24

#: Lines load_dataset reads and counts at a time.
_BLOCK_LINES = 1024


def _check_length(length: int) -> int:
    """Return length as an int, refusing a float with TypeError and one outside 1..64."""
    length = index(length)
    if not 1 <= length <= MAX_LENGTH:
        raise LengthOutOfRange(f"pattern length {length} outside 1..{MAX_LENGTH}")
    return length


def check_cap(length: int) -> None:
    """Refuse a walk over 2^length terms (a 4^L walk passes 2L) above 2^EXHAUSTIVE_CAP."""
    length = index(length)
    if length < 1:
        raise LengthOutOfRange(f"length {length} must be >= 1")
    if length > EXHAUSTIVE_CAP:
        raise CapExceeded(f"2^{length} terms requested, at most 2^{EXHAUSTIVE_CAP} allowed")


def _pack(text: str) -> tuple[str, int]:
    """Return the '0'/'1' digits of a pattern text, x_1 first, and their word.

    Commas and whitespace are dropped; any other character is rejected
    here, before int(..., 2) sees the digits, because int also accepts a
    '0b' prefix, '_' separators, a sign and non-ASCII decimal digits.
    """
    digits = text.strip()
    if not digits or not digits.isascii() or digits.encode().translate(None, b"01"):
        digits = "".join(digits.replace(",", " ").split())
        if illegal := next((char for char in digits if char not in "01"), None):
            raise IllegalCharacter(f"illegal character {illegal!r} in pattern {text!r}")
        if not digits:
            raise EmptyInput("pattern text contains no digits")
    if len(digits) > MAX_LENGTH:
        raise LengthOutOfRange(f"pattern length {len(digits)} exceeds {MAX_LENGTH}")
    return digits, int(digits[::-1], 2)


def _pack_block(keys: list[str], length: int) -> list[int] | None:
    """The words of '0'/'1' keys of one length, or None if a key has another character."""
    shift = max((length - 1).bit_length() - 3, 0)  # items of 8, 16, 32 or 64 bits
    pad = "0" * ((8 << shift) - length)
    joined = pad.join(keys) + pad
    if not joined.isascii() or joined.encode().translate(None, b"01"):
        return None
    # One base-2 parse: reversed, the padded keys are a number whose item i is key i's word.
    # In the host's byte order, item 0 comes first if it is little-endian, last if big-endian.
    data = int(joined[::-1], 2).to_bytes(len(joined) // 8, sys.byteorder)
    words = memoryview(data).cast("BHIQ"[shift]).tolist()
    return words if sys.byteorder == "little" else words[::-1]


class _Frozen:
    """An immutable value. Its fields refuse assignment; the rest comes from the class's _args().

    _args() is the constructor arguments, in the order of the leading __slots__: a copy
    calls the constructor with them and repr prints them. Values of one class are equal,
    and hash equal, when their _key()s are: _args() unless the class gives its own.
    """

    __slots__ = ()

    def _key(self) -> tuple:
        return self._args()

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __reduce__(self) -> tuple:
        return self.__class__, self._args()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._args()))
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")


class BitPattern(_Frozen):
    """An immutable L-bit binary vector, 1 <= L <= 64, held as its packed word.

    Two patterns are equal iff their words and lengths are, so "0" and "00"
    differ; ``bits`` is derived from the word on each access.
    """

    __slots__ = ("word", "length")
    word: int
    length: int

    def __init__(self, bits: Sequence[int]) -> None:
        _check_length(len(bits))
        word = 0
        for position, bit in enumerate(bits):
            if bit not in (0, 1):
                raise IllegalCharacter(f"bit value {bit!r} is not 0 or 1")
            word |= bit << position
        _set_word(self, int(word))
        _set_length(self, len(bits))

    @property
    def bits(self) -> tuple[int, ...]:
        """(x_1, ..., x_L) as 0/1 ints."""
        return tuple(map(int, render_pattern(self)))

    @classmethod
    def from_word(cls, word: int, length: int) -> BitPattern:
        """Unpack an integer whose bit l-1 is x_l."""
        word, length = index(word), _check_length(length)
        if word < 0 or word >> length:
            raise ValueError(f"word {word} does not fit in {length} bits")
        return _pattern(word, length)

    def _key(self) -> tuple:
        return self.word, self.length

    def __reduce__(self) -> tuple:
        return _pattern, self._key()

    def __repr__(self) -> str:
        return f"BitPattern(bits={self.bits!r}, word={self.word!r})"

    def __str__(self) -> str:
        return render_pattern(self)


# The slot descriptors set the fields past _Frozen.__setattr__.
_set_word = BitPattern.word.__set__
_set_length = BitPattern.length.__set__


def _pattern(word: int, length: int) -> BitPattern:
    """The one constructor behind every BitPattern of a checked word; no checks of its own."""
    pattern = object.__new__(BitPattern)
    _set_word(pattern, word)
    _set_length(pattern, length)
    return pattern


class Dataset(_Frozen):
    """N prototype patterns of a common length, held as their count map.

    ``counts`` maps each distinct packed word to its multiplicity, read-only,
    and ``size``, N, is the sum of the counts. No input order is kept: a
    dataset is a multiset, equal to another of the same length and counts,
    and iterates each pattern count times in word order. Build one with
    load_dataset, dataset_from_words or ``Dataset(counts, length)``, which
    keeps its own copy of the mapping.
    """

    __slots__ = ("counts", "length", "size", "_counts")
    length: int
    size: int
    counts: Mapping[int, int]

    def __init__(self, counts: Mapping[int, int], length: int) -> None:
        counts = dict(zip(map(index, counts), map(index, counts.values())))
        if not counts:
            raise EmptyDataset("a dataset needs at least one pattern")
        length = _check_length(length)
        low, high = min(counts), max(counts)
        if low < 0 or high >> length:
            raise ValueError(f"word {low if low < 0 else high} does not fit in {length} bits")
        if min(counts.values()) < 1:
            raise ValueError(f"count {min(counts.values())} is not positive")
        _fill(self, counts, length)

    def _args(self) -> tuple:
        return self._counts, self.length

    def _key(self) -> tuple:
        return self.length, frozenset(self._counts.items())

    def __iter__(self) -> Iterator[BitPattern]:
        length = self.length
        for word, count in sorted(self._counts.items()):
            yield from repeat(_pattern(word, length), count)


def _fill(dataset: Dataset, counts: dict[int, int], length: int) -> None:
    """Set a dataset's fields from a checked count map, which it keeps uncopied."""
    object.__setattr__(dataset, "length", length)
    object.__setattr__(dataset, "size", sum(counts.values()))
    object.__setattr__(dataset, "_counts", counts)
    object.__setattr__(dataset, "counts", MappingProxyType(counts))


def parse_pattern(text: str, expected_length: int | None = None) -> BitPattern:
    """Parse '0'/'1' text (commas optional) into a BitPattern."""
    digits, word = _pack(text)
    if expected_length is not None and len(digits) != expected_length:
        raise LengthMismatch(
            f"pattern {text!r} has length {len(digits)}, expected {expected_length}"
        )
    return _pattern(word, len(digits))


def render_pattern(pattern: BitPattern) -> str:
    """Inverse of parse_pattern: x_1 becomes the leftmost character."""
    return format(pattern.word, f"0{pattern.length}b")[::-1]


def load_dataset(lines: Iterable[str]) -> Dataset:
    """Read one pattern per nonblank line; '#' lines are comments.

    Accepts any iterable of strings, e.g. an open text file or
    ``text.splitlines()``, but not one str or bytes. A Counter counts the
    raw lines in C, a block at a time, and each distinct line is checked
    and parsed once, so memory and parse work are O(distinct lines). A
    block whose new lines are all canonical (after strip, '0'/'1' digits
    alone, of the dataset's one length) is checked in bulk and packed with
    one base-2 parse per canonical block; any other block takes the
    per-line loop. Raises with the first offending line's number on bad
    input (a byte that is not UTF-8, in a file opened with
    errors="surrogateescape", included) and RaggedLengths on mixed lengths.
    """
    if isinstance(lines, (str, bytes)):
        raise TypeError(
            f"load_dataset takes an iterable of lines, not one {type(lines).__name__};"
            " pass text.splitlines() or an open file"
        )
    line_counts: Counter[str] = Counter()
    words: list[int | None] = []  # the word of each key, in order; None for a blank or '#' line
    length: int | None = None
    first = 1  # the line number of block[0]
    lines = iter(lines)
    while block := list(islice(lines, _BLOCK_LINES)):
        seen = len(line_counts)
        line_counts.update(block)
        # The new keys, in order of first appearance: the first bad key is the first bad line.
        keys = list(islice(reversed(line_counts), len(line_counts) - seen))
        keys.reverse()
        stripped = list(map(str.strip, keys))
        sizes = set(map(len, stripped))
        size = sizes.pop() if len(sizes) == 1 else 0  # 0: no one length
        if (0 < size <= MAX_LENGTH and length in (None, size)
                and (packed := _pack_block(stripped, size)) is not None):
            length = size
            words += packed
        else:
            for raw in keys:
                try:
                    # surrogateescape decodes a byte that is not UTF-8 to U+DC80..U+DCFF.
                    if not raw.isascii():
                        for char in raw:
                            if "\udc80" <= char <= "\udcff":
                                raise DiracPmfError(f"byte {ord(char) - 0xDC00:#04x} is not UTF-8")
                    line = raw.strip()
                    if not line or line[0] == "#":
                        words.append(None)
                        continue
                    digits, word = _pack(line)
                    if len(digits) != length:
                        if length is not None:
                            raise RaggedLengths(
                                f"pattern {line!r} has length {len(digits)}, expected {length}"
                            )
                        length = len(digits)
                except DiracPmfError as exc:
                    raise type(exc)(f"line {first + block.index(raw)}: {exc}") from exc
                words.append(word)
        first += len(block)
    if length is None:
        raise EmptyDataset("no pattern lines in input")
    counts = dict(zip(words, line_counts.values()))
    if len(counts) < len(words):
        # "01", "0,1" and " 01\n" are three keys of one word, of which counts
        # kept the last key's count: sum every key of each word, in first-seen order.
        counts = dict.fromkeys(counts, 0)
        for word, count in zip(words, line_counts.values()):
            counts[word] += count
    counts.pop(None, None)
    dataset = object.__new__(Dataset)
    _fill(dataset, counts, length)
    return dataset


def all_patterns(length: int) -> Iterator[BitPattern]:
    """Enumerate {0,1}^L in word order. The length is checked on the call; caps are the caller's."""
    length = _check_length(length)
    return (_pattern(word, length) for word in range(1 << length))


def dataset_from_words(words: Iterable[int], length: int) -> Dataset:
    """A dataset of the given packed words; each must fit L bits."""
    return Dataset(Counter(words), length)
