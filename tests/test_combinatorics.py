import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from diracpmf import BitPattern, CapExceeded, RangeError, all_patterns
from diracpmf.verify import (
    BasisIndex,
    SignAssignment,
    eval_basis,
    lemma1_sum,
    signed_binomial_row_sum,
)


class TestLemma1Sum:
    def test_all_plus_three(self):
        assert lemma1_sum(SignAssignment((1, 1, 1))) == 8

    def test_all_minus_two(self):
        assert lemma1_sum(SignAssignment((-1, -1))) == 0

    def test_mixed_three(self):
        assert lemma1_sum(SignAssignment((-1, 1, 1))) == 0

    def test_mixed_matches_subset_enumeration_oracle(self):
        # brute force with explicit tuple products, no bit tricks
        values = (-1, 1, 1)
        total = 0
        for mask in range(8):
            product = 1
            for position in range(3):
                if (mask >> position) & 1:
                    product *= values[position]
            total += product
        assert total == lemma1_sum(SignAssignment(values))

    def test_exhaustive_dichotomy(self):
        for length in range(1, 9):
            for minus_mask in range(1 << length):
                values = tuple(
                    -1 if (minus_mask >> p) & 1 else 1 for p in range(length)
                )
                expected = (1 << length) if minus_mask == 0 else 0
                assert lemma1_sum(SignAssignment(values)) == expected

    @given(st.permutations(list(range(8))), st.integers(min_value=0, max_value=255))
    def test_permutation_invariance(self, order, minus_mask):
        values = tuple(-1 if (minus_mask >> p) & 1 else 1 for p in range(8))
        shuffled = tuple(values[p] for p in order)
        assert lemma1_sum(SignAssignment(values)) == lemma1_sum(SignAssignment(shuffled))

    def test_cap(self):
        with pytest.raises(CapExceeded):
            lemma1_sum(SignAssignment((1,) * 25))

    def test_random_assignments_match_literal_subset_products(self):
        rng = random.Random(21)
        for length in [*range(1, 13), *(rng.randint(9, 12) for _ in range(8))]:
            values = tuple(rng.choice((-1, 1)) for _ in range(length))
            total = 0
            for subset in range(1 << length):
                product = 1
                for position in range(length):
                    if subset >> position & 1:
                        product *= values[position]
                total += product
            assert lemma1_sum(SignAssignment(values)) == total

    def test_bridge_to_kernel_products(self):
        # a_l = (2x_jl - 1)(2x_l - 1) turns the lemma sum into the
        # basis-product sum over all subsets
        for length in range(1, 7):
            rng = random.Random(length)
            for _ in range(5):
                x_j = BitPattern.from_word(rng.getrandbits(length), length)
                x = BitPattern.from_word(rng.getrandbits(length), length)
                signs = tuple(
                    (2 * x_j.bits[p] - 1) * (2 * x.bits[p] - 1)
                    for p in range(length)
                )
                basis_sum = sum(
                    eval_basis(BasisIndex(mask, length), x_j)
                    * eval_basis(BasisIndex(mask, length), x)
                    for mask in range(1 << length)
                )
                assert lemma1_sum(SignAssignment(signs)) == basis_sum
                assert basis_sum == ((1 << length) if x_j == x else 0)


class TestSignedBinomialRowSum:
    def test_all_plus(self):
        assert signed_binomial_row_sum(0, 4) == 16

    def test_all_minus(self):
        assert signed_binomial_row_sum(5, 0) == 0

    def test_mixed(self):
        assert signed_binomial_row_sum(2, 3) == 0
        # expand 2^3 * (1 - 2 + 1) by hand
        assert (1 << 3) * (1 - 2 + 1) == 0

    def test_matches_lemma_sum(self):
        for minus in range(0, 5):
            for plus in range(0, 5):
                if minus + plus == 0:
                    continue
                values = (-1,) * minus + (1,) * plus
                assert signed_binomial_row_sum(minus, plus) == lemma1_sum(
                    SignAssignment(values)
                )

    def test_errors(self):
        with pytest.raises(RangeError):
            signed_binomial_row_sum(0, 0)
        with pytest.raises(RangeError):
            signed_binomial_row_sum(-1, 2)
        with pytest.raises(RangeError):
            signed_binomial_row_sum(40, 40)

    def test_range_is_the_pattern_range(self):
        # 1 <= L <= 64, the range of every other length in the package.
        assert signed_binomial_row_sum(0, 64) == 1 << 64
        assert signed_binomial_row_sum(1, 63) == 0
        for minus, plus in [(0, 65), (65, 0)]:
            with pytest.raises(RangeError):
                signed_binomial_row_sum(minus, plus)


def test_sign_assignment_validation():
    with pytest.raises(RangeError):
        SignAssignment(())
    with pytest.raises(RangeError):
        SignAssignment((1, 0))
    # An unhashable value and NaN are named, like any other bad value.
    with pytest.raises(RangeError, match=r"^sign value \[1\] is not -1 or \+1$"):
        SignAssignment((1, [1]))
    with pytest.raises(RangeError, match=r"^sign value nan is not -1 or \+1$"):
        SignAssignment((1, float("nan")))
    assert SignAssignment((np.int64(-1), True)).minus_count == 1
    assert SignAssignment.from_string("+-+").values == (1, -1, 1)
    assert SignAssignment.from_string("-").minus_count == 1
    with pytest.raises(RangeError):
        SignAssignment.from_string("+x")


def test_sign_assignment_stores_a_tuple():
    from_list, from_tuple = SignAssignment([1, -1]), SignAssignment((1, -1))
    assert from_list == from_tuple and hash(from_list) == hash(from_tuple)
    assert repr(from_list) == repr(from_tuple) == "SignAssignment(values=(1, -1))"
    assert from_list.values == (1, -1)
