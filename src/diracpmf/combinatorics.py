"""Sign-variable subset sums and the binomial identities behind them.

For L variables a_1..a_L in {-1, +1}, the sum of all 2^L subset products
equals 2^L when every variable is +1 and 0 otherwise. This is the
combinatorial engine that collapses the basis expansion to pattern
counting, so it gets a brute-force evaluator plus the closed-form
binomial routes it reduces to.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .bitspace import check_cap
from .errors import RangeError

MAX_BINOMIAL_N = 60


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

    The subset product is (-1)^(number of -1 entries selected), accumulated
    over every subset mask; exact integer arithmetic.
    """
    length = assignment.length
    check_cap(length)
    minus_mask = 0
    for position, value in enumerate(assignment.values):
        if value == -1:
            minus_mask |= 1 << position
    total = 0
    for subset in range(1 << length):
        total += -1 if (subset & minus_mask).bit_count() & 1 else 1
    return total


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
    if length > MAX_BINOMIAL_N:
        raise RangeError(f"L={length} exceeds the binomial range {MAX_BINOMIAL_N}")
    if minus_count == 0:
        return sum(math.comb(length, row) for row in range(length + 1))
    alternating = sum(
        (-1) ** row * math.comb(minus_count, row) for row in range(minus_count + 1)
    )
    return (1 << plus_count) * alternating


def check_pascal_identities(n: int, r: int) -> bool:
    """Verify the three binomial identities the scenario reduction leans on.

    I:   C(n, r) = C(n-1, r) + C(n-1, r-1), with C(n-1, -1) = 0;
    II:  C(n+r, n+r) = C(n+r-1, n+r-1) = 1;
    III: C(n+r, 0) = C(n+r-1, 0) = 1.
    """
    if not 0 <= r <= n <= MAX_BINOMIAL_N:
        raise RangeError(f"need 0 <= r <= n <= {MAX_BINOMIAL_N}, got n={n} r={r}")

    def c(top: int, bottom: int) -> int:
        # C(anything, -1) = 0 and C(anything, 0) = 1; only top >= bottom >= 1
        # reaches math.comb.
        if bottom < 0:
            return 0
        if bottom == 0:
            return 1
        return math.comb(top, bottom)

    identity_1 = c(n, r) == c(n - 1, r) + c(n - 1, r - 1)
    identity_2 = math.comb(n + r, n + r) == 1 and (
        n + r == 0 or math.comb(n + r - 1, n + r - 1) == 1
    )
    identity_3 = math.comb(n + r, 0) == 1 and (
        n + r == 0 or math.comb(n + r - 1, 0) == 1
    )
    return identity_1 and identity_2 and identity_3
