import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from diracpmf import BitPattern, CapExceeded, LengthMismatch, LengthOutOfRange, all_patterns
from diracpmf.verify import (
    BasisIndex,
    eval_basis,
    iter_basis,
    orthogonality_sum,
    sign_bits,
    sign_bytes,
    sign_column,
    sign_row,
)


def members(mask: int, length: int) -> tuple[int, ...]:
    """Participating coordinates of a subset mask, 1-based, ascending."""
    return tuple(position + 1 for position in range(length) if mask >> position & 1)


def product_oracle(index: BasisIndex, pattern: BitPattern) -> int:
    """Definitional product of (2x_l - 1) over the participating coordinates."""
    result = 1
    for member in members(index.mask, index.length):
        result *= 2 * pattern.bits[member - 1] - 1
    return result


class TestEvalBasis:
    def test_empty_subset_is_one(self):
        assert eval_basis(BasisIndex(0, 2), BitPattern((0, 1))) == 1

    def test_single_factor(self):
        index = BasisIndex(0b01, 2)
        assert eval_basis(index, BitPattern((1, 0))) == 1

    def test_two_factor_product(self):
        index = BasisIndex(0b101, 3)
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
        assert list(iter_basis(1)) == [0, 1]

    def test_by_cardinality_two(self):
        masks = list(iter_basis(2, ordering="by_cardinality"))
        assert [members(mask, 2) for mask in masks] == [(), (1,), (2,), (1, 2)]

    def test_by_cardinality_counts_three(self):
        masks = list(iter_basis(3, ordering="by_cardinality"))
        assert len(masks) == 8
        histogram = Counter(mask.bit_count() for mask in masks)
        assert [histogram[order] for order in range(4)] == [1, 3, 3, 1]

    @pytest.mark.parametrize("length", range(1, 11))
    def test_completeness_and_binomial_histogram(self, length):
        for ordering in ("canonical", "by_cardinality"):
            masks = list(iter_basis(length, ordering))
            assert sorted(masks) == list(range(1 << length))
            histogram = Counter(mask.bit_count() for mask in masks)
            for order in range(length + 1):
                assert histogram[order] == math.comb(length, order)

    def test_by_cardinality_sorted_within_order(self):
        masks = iter_basis(4, ordering="by_cardinality")
        pairs = [members(mask, 4) for mask in masks if mask.bit_count() == 2]
        assert pairs == [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]

    def test_cap(self):
        with pytest.raises(CapExceeded):
            iter_basis(30)
        with pytest.raises(ValueError, match="unknown ordering"):
            iter_basis(3, "shuffled")


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

    def test_random_pairs_match_literal_point_products(self):
        rng = random.Random(23)
        for length in [*range(1, 13), *(rng.randint(9, 12) for _ in range(4))]:
            i = BasisIndex(rng.getrandbits(length), length)
            k = BasisIndex(rng.choice((i.mask, rng.getrandbits(length))), length)
            total = sum(
                product_oracle(i, pattern) * product_oracle(k, pattern)
                for pattern in all_patterns(length)
            )
            assert orthogonality_sum(i, k) == total

    def test_errors(self):
        with pytest.raises(LengthMismatch):
            orthogonality_sum(BasisIndex(0, 2), BasisIndex(0, 3))
        with pytest.raises(CapExceeded):
            orthogonality_sum(BasisIndex(0, 30), BasisIndex(0, 30))


def test_basis_index_takes_integers_only():
    for mask, length in [(2.5, 2), (1.0, 2), (1, 2.0), ("1", 2)]:
        with pytest.raises(TypeError):
            BasisIndex(mask, length)
    for mask, length in [(True, 2), (np.int64(3), np.uint8(2)), (np.uint64(1), True)]:
        index = BasisIndex(mask, length)
        assert type(index.mask) is int and type(index.length) is int
        assert index == BasisIndex(int(mask), int(length))
        assert orthogonality_sum(index, index) == 1 << index.length
    with pytest.raises(LengthOutOfRange):
        BasisIndex(0, np.int64(65))
    with pytest.raises(ValueError, match="outside 0..2"):
        BasisIndex(np.int64(4), 2)


def test_sign_row_matches_coefficient_dtype():
    # A float64 row keeps the expansion query a float.float dot.
    row = sign_row(0b0110, 4)
    assert row.dtype.name == "float64"
    assert list(row) == [eval_basis(BasisIndex(mask, 4), BitPattern.from_word(0b0110, 4))
                         for mask in range(16)]


@pytest.mark.parametrize("length", range(1, 9))
def test_sign_vectors_match_eval_basis_everywhere(length):
    size = 1 << length
    patterns = [BitPattern.from_word(word, length) for word in range(size)]
    for word, pattern in enumerate(patterns):
        assert list(sign_row(word, length)) == [
            eval_basis(BasisIndex(mask, length), pattern) for mask in range(size)
        ]
    for mask in range(size):
        index = BasisIndex(mask, length)
        assert sign_column(mask, length).dtype == np.int8
        assert list(sign_column(mask, length)) == [
            eval_basis(index, pattern) for pattern in patterns
        ]


@st.composite
def subset_and_pattern(draw):
    length = draw(st.integers(min_value=1, max_value=16))
    mask = draw(st.integers(min_value=0, max_value=(1 << length) - 1))
    word = draw(st.integers(min_value=0, max_value=(1 << length) - 1))
    return length, mask, word


@given(subset_and_pattern())
def test_sign_vectors_match_eval_basis_at_drawn_points(case):
    length, mask, word = case
    want = eval_basis(BasisIndex(mask, length), BitPattern.from_word(word, length))
    assert sign_row(word, length)[mask] == want
    assert sign_column(mask, length)[word] == want


def minus_bits(signs: bytes) -> int:
    """The bitset of the -1 (0xff) bytes of an int8 sign vector: bit x for byte x."""
    minus = np.frombuffer(signs, np.uint8) == 0xFF
    return int.from_bytes(np.packbits(minus, bitorder="little").tobytes(), "little")


@pytest.mark.parametrize("length", range(1, 9))
def test_sign_bits_are_the_minus_bytes_of_sign_bytes(length):
    for mask in range(1 << length):
        # The one convention: phi_S(x) is byte ~x of sign_bytes(S, L).
        column = sign_column(mask, length)
        assert column[::-1].tobytes() == sign_bytes(mask, length)
        assert not column.flags.writeable
        for flip_mask in (mask, ~mask):
            assert sign_bits(flip_mask, length) == minus_bits(sign_bytes(flip_mask, length))


@pytest.mark.parametrize("length", [12, 16])
def test_sign_bits_are_the_minus_bytes_of_sign_bytes_at_random_masks(length):
    rng = random.Random(length)
    for _ in range(50):
        mask = rng.getrandbits(length)
        assert sign_bits(mask, length) == minus_bits(sign_bytes(mask, length))


@pytest.mark.parametrize("length", range(1, 7))
def test_sign_bits_match_eval_basis_everywhere(length):
    patterns = [BitPattern.from_word(word, length) for word in range(1 << length)]
    for mask in range(1 << length):
        index = BasisIndex(mask, length)
        column = sign_bits(mask, length)  # bit y is phi_mask at the point ~y
        for word, pattern in enumerate(patterns):
            want = eval_basis(index, pattern) == -1
            assert (column >> (~word & ((1 << length) - 1)) & 1 == 1) == want
            assert (sign_bits(~word, length) >> mask & 1 == 1) == want
