"""Binary pattern and dataset representations, plus text ingestion.

A pattern is an ordered vector (x_1, ..., x_L) of bits. The leftmost
character of a text pattern is x_1, and internally bit l-1 of the packed
word holds x_l, so L <= 64 patterns fit one machine word.

Ingestion is words-first: text is validated and packed straight into a
word, and a dataset stores only its words. BitPattern objects are built
when a caller asks for one.
"""
from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from .errors import (
    CapExceeded,
    EmptyDataset,
    EmptyInput,
    IllegalCharacter,
    IndexOutOfRange,
    LengthMismatch,
    LengthOutOfRange,
    RaggedLengths,
)

MAX_LENGTH = 64
#: No call enumerates more than 2^EXHAUSTIVE_CAP terms; each checks before it allocates.
EXHAUSTIVE_CAP = 24

#: Deletes the digits, so a pattern of digits alone translates to "".
_DROP_DIGITS = str.maketrans("", "", "01")
#: Maps the ASCII digits b"0"/b"1" to the byte values 0/1.
_DIGIT_VALUES = bytes.maketrans(b"01", b"\x00\x01")


def _check_length(length: int) -> None:
    if not 1 <= length <= MAX_LENGTH:
        raise LengthOutOfRange(f"pattern length {length} outside 1..{MAX_LENGTH}")


def check_cap(length: int) -> None:
    """Refuse a walk over 2^length terms (a 4^L walk passes 2L) above 2^EXHAUSTIVE_CAP."""
    if length < 1:
        raise LengthOutOfRange(f"length {length} must be >= 1")
    if length > EXHAUSTIVE_CAP:
        raise CapExceeded(f"2^{length} terms requested, at most 2^{EXHAUSTIVE_CAP} allowed")


def _check_word(word: int, length: int) -> None:
    _check_length(length)
    if word < 0 or word >> length:
        raise ValueError(f"word {word} does not fit in {length} bits")


def _pack(text: str) -> tuple[str, int]:
    """Return the '0'/'1' digits of a pattern text, x_1 first, and their word.

    Commas and whitespace are dropped; any other character is rejected
    here, before int(..., 2) sees the digits, because int also accepts a
    '0b' prefix, '_' separators, a sign and non-ASCII decimal digits.
    """
    digits = text.strip()
    if not digits or digits.translate(_DROP_DIGITS):
        kept = []
        for char in digits:
            if char in "01":
                kept.append(char)
            elif char != "," and not char.isspace():
                raise IllegalCharacter(f"illegal character {char!r} in pattern {text!r}")
        digits = "".join(kept)
        if not digits:
            raise EmptyInput("pattern text contains no digits")
    if len(digits) > MAX_LENGTH:
        raise LengthOutOfRange(f"pattern length {len(digits)} exceeds {MAX_LENGTH}")
    return digits, int(digits[::-1], 2)


def _from_digits(digits: str, word: int) -> BitPattern:
    """Build a BitPattern from validated digits, skipping the per-bit checks."""
    pattern = object.__new__(BitPattern)
    object.__setattr__(pattern, "bits", tuple(digits.encode().translate(_DIGIT_VALUES)))
    object.__setattr__(pattern, "word", word)
    return pattern


@dataclass(frozen=True)
class BitPattern:
    """An immutable L-bit binary vector, 1 <= L <= 64."""

    bits: tuple[int, ...]
    word: int = field(init=False, compare=False)

    def __post_init__(self) -> None:
        _check_length(len(self.bits))
        word = 0
        for position, bit in enumerate(self.bits):
            if bit not in (0, 1):
                raise IllegalCharacter(f"bit value {bit!r} is not 0 or 1")
            word |= bit << position
        object.__setattr__(self, "word", word)

    @property
    def length(self) -> int:
        return len(self.bits)

    @classmethod
    def from_word(cls, word: int, length: int) -> BitPattern:
        """Unpack an integer whose bit l-1 is x_l."""
        _check_word(word, length)
        return _from_digits(format(word, f"0{length}b")[::-1], int(word))

    def __str__(self) -> str:
        return render_pattern(self)


@dataclass(frozen=True)
class Dataset:
    """N prototype patterns of a common length. Duplicates carry weight.

    ``words`` holds the N packed words in input order; ``counts`` maps each
    distinct word to its multiplicity and backs the O(1) counting
    estimator. Build one with load_dataset or dataset_from_words.
    """

    words: array
    length: int
    counts: dict[int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.words:
            raise EmptyDataset("a dataset needs at least one pattern")
        _check_length(self.length)
        if max(self.words) >> self.length:
            raise ValueError(f"a word does not fit in {self.length} bits")
        object.__setattr__(self, "counts", dict(Counter(self.words)))

    def __hash__(self) -> int:
        return hash((self.length, self.words.tobytes()))

    @property
    def size(self) -> int:
        return len(self.words)

    @property
    def patterns(self) -> tuple[BitPattern, ...]:
        """The N patterns in input order, built afresh on each access."""
        return tuple(self)

    def __iter__(self) -> Iterator[BitPattern]:
        return (BitPattern.from_word(word, self.length) for word in self.words)


def parse_pattern(text: str, expected_length: int | None = None) -> BitPattern:
    """Parse '0'/'1' text (commas optional) into a BitPattern."""
    digits, word = _pack(text)
    if expected_length is not None and len(digits) != expected_length:
        raise LengthMismatch(
            f"pattern {text!r} has length {len(digits)}, expected {expected_length}"
        )
    return _from_digits(digits, word)


def render_pattern(pattern: BitPattern) -> str:
    """Inverse of parse_pattern: x_1 becomes the leftmost character."""
    return format(pattern.word, f"0{pattern.length}b")[::-1]


def load_dataset(lines: Iterable[str]) -> Dataset:
    """Read one pattern per nonblank line; '#' lines are comments.

    Accepts any iterable of strings, e.g. an open text file or
    ``text.splitlines()``. Raises with the offending line number on bad
    input and RaggedLengths on mixed pattern lengths.
    """
    words = array("Q")
    append = words.append
    length: int | None = None
    for line_number, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line[0] == "#":
            continue
        try:
            digits, word = _pack(line)
        except (EmptyInput, IllegalCharacter, LengthOutOfRange) as exc:
            raise type(exc)(f"line {line_number}: {exc}") from exc
        if len(digits) != length:
            if length is not None:
                raise RaggedLengths(
                    f"line {line_number}: pattern {line!r} has length "
                    f"{len(digits)}, expected {length}"
                )
            length = len(digits)
        append(word)
    if length is None:
        raise EmptyDataset("no pattern lines in input")
    return Dataset(words, length)


def signed_value(pattern: BitPattern, index: int) -> int:
    """Return 2*x_l - 1 for the 1-based coordinate l."""
    if not 1 <= index <= pattern.length:
        raise IndexOutOfRange(f"index {index} outside 1..{pattern.length}")
    return 2 * pattern.bits[index - 1] - 1


def all_patterns(length: int) -> Iterator[BitPattern]:
    """Enumerate {0,1}^L in word order. Caller is responsible for caps."""
    for word in range(1 << length):
        yield BitPattern.from_word(word, length)


def dataset_from_words(words: Sequence[int], length: int) -> Dataset:
    """A dataset of the given packed words, after checking each fits L bits."""
    for word in words:
        _check_word(word, length)
    return Dataset(array("Q", words), length)
