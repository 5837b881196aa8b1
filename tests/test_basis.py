import math
import random
from collections import Counter

import pytest

from diracpmf import (
    BasisIndex,
    BitPattern,
    CapExceeded,
    LengthMismatch,
    all_patterns,
    enumerate_basis,
    eval_basis,
    orthogonality_sum,
    signed_value,
)
from diracpmf.basis import sign_row


def product_oracle(index: BasisIndex, pattern: BitPattern) -> int:
    """Definitional product of (2x_l - 1) over the participating coordinates."""
    result = 1
    for member in index.members:
        result *= signed_value(pattern, member)
    return result


class TestEvalBasis:
    def test_empty_subset_is_one(self):
        assert eval_basis(BasisIndex(0, 2), BitPattern((0, 1))) == 1

    def test_single_factor(self):
        index = BasisIndex.from_members([1], 2)
        assert eval_basis(index, BitPattern((1, 0))) == 1

    def test_two_factor_product(self):
        index = BasisIndex.from_members([1, 3], 3)
        pattern = BitPattern((0, 1, 0))
        assert product_oracle(index, pattern) == 1
        assert eval_basis(index, pattern) == 1

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            eval_basis(BasisIndex(0, 2), BitPattern((0, 1, 0)))

    def test_popcount_form_matches_product_exhaustive(self):
        # closed form (-1)^(zeros inside S) vs. the literal product
        for length in range(1, 9):
            for mask in range(1 << length):
                index = BasisIndex(mask, length)
                for pattern in all_patterns(length):
                    assert eval_basis(index, pattern) == product_oracle(index, pattern)

    def test_range_is_plus_minus_one(self):
        for length in range(1, 11):
            pattern = BitPattern.from_word(length * 37 % (1 << length), length)
            for mask in range(1 << length):
                assert eval_basis(BasisIndex(mask, length), pattern) in (-1, 1)

    def test_multiplicativity_on_disjoint_subsets(self):
        rng = random.Random(7)
        for _ in range(300):
            length = rng.randint(1, 16)
            s = rng.getrandbits(length)
            t = rng.getrandbits(length) & ~s
            x = BitPattern.from_word(rng.getrandbits(length), length)
            assert eval_basis(BasisIndex(s | t, length), x) == eval_basis(
                BasisIndex(s, length), x
            ) * eval_basis(BasisIndex(t, length), x)


class TestEnumerateBasis:
    def test_length_one(self):
        table = enumerate_basis(1)
        assert [entry.mask for entry in table.entries] == [0, 1]

    def test_by_cardinality_two(self):
        table = enumerate_basis(2, ordering="by_cardinality")
        assert [entry.members for entry in table.entries] == [(), (1,), (2,), (1, 2)]

    def test_by_cardinality_counts_three(self):
        table = enumerate_basis(3, ordering="by_cardinality")
        assert len(table.entries) == 8
        histogram = Counter(entry.order for entry in table.entries)
        assert [histogram[order] for order in range(4)] == [1, 3, 3, 1]

    @pytest.mark.parametrize("length", range(1, 11))
    def test_completeness_and_binomial_histogram(self, length):
        table = enumerate_basis(length)
        masks = {entry.mask for entry in table.entries}
        assert len(masks) == 1 << length
        histogram = Counter(entry.order for entry in table.entries)
        for order in range(length + 1):
            assert histogram[order] == math.comb(length, order)

    def test_by_cardinality_sorted_within_order(self):
        table = enumerate_basis(4, ordering="by_cardinality")
        pairs = [entry for entry in table.entries if entry.order == 2]
        assert [entry.members for entry in pairs] == [
            (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)
        ]

    def test_cap(self):
        with pytest.raises(CapExceeded):
            enumerate_basis(30)
        # configurable
        with pytest.raises(CapExceeded):
            enumerate_basis(5, cap=4)


class TestOrthogonality:
    def test_paper_contract_values(self):
        both = BasisIndex(0b11, 2)
        assert orthogonality_sum(both, both) == 4
        assert orthogonality_sum(BasisIndex(0b01, 2), BasisIndex(0b10, 2)) == 0
        empty = BasisIndex(0, 1)
        assert orthogonality_sum(empty, empty) == 2

    @pytest.mark.parametrize("length", range(1, 7))
    def test_exhaustive_pairs(self, length):
        for i in range(1 << length):
            for k in range(1 << length):
                expected = (1 << length) if i == k else 0
                assert (
                    orthogonality_sum(BasisIndex(i, length), BasisIndex(k, length))
                    == expected
                )

    def test_random_pairs_larger(self):
        rng = random.Random(11)
        for _ in range(400):
            length = rng.randint(7, 12)
            i = rng.getrandbits(length)
            k = rng.getrandbits(length)
            expected = (1 << length) if i == k else 0
            assert (
                orthogonality_sum(BasisIndex(i, length), BasisIndex(k, length))
                == expected
            )

    def test_errors(self):
        with pytest.raises(LengthMismatch):
            orthogonality_sum(BasisIndex(0, 2), BasisIndex(0, 3))
        with pytest.raises(CapExceeded):
            orthogonality_sum(BasisIndex(0, 30), BasisIndex(0, 30))


def test_sign_row_matches_coefficient_dtype():
    # A float64 row keeps the expansion query a float.float dot.
    row = sign_row(0b0110, 4)
    assert row.dtype.name == "float64"
    assert list(row) == [eval_basis(BasisIndex(mask, 4), BitPattern.from_word(0b0110, 4))
                         for mask in range(16)]
