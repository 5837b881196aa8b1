"""Exception types shared across the package."""
from __future__ import annotations


class DiracPmfError(Exception):
    """Base class for all errors raised by this package."""


class EmptyInput(DiracPmfError, ValueError):
    """A pattern string contained no digits."""


class IllegalCharacter(DiracPmfError, ValueError):
    """A pattern string contained something other than '0', '1', ',' or whitespace."""


class LengthMismatch(DiracPmfError, ValueError):
    """Two patterns (or a pattern and an expectation) disagree in length."""


class LengthOutOfRange(DiracPmfError, ValueError):
    """Pattern length outside the supported range 1..64."""


class EmptyDataset(DiracPmfError, ValueError):
    """A dataset with zero patterns was supplied where N >= 1 is required."""


class RaggedLengths(DiracPmfError, ValueError):
    """Dataset lines have mixed pattern lengths."""


class CapExceeded(DiracPmfError, ValueError):
    """An enumeration of more than 2^EXHAUSTIVE_CAP terms was requested."""


class NotPowerOfTwo(DiracPmfError, ValueError):
    """Transform input length is not a power of two."""


class RangeError(DiracPmfError, ValueError):
    """Combinatorial arguments outside their supported integer range."""
