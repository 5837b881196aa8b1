import math
import random

import numpy as np
import pytest

from diracpmf import (
    BasisIndex,
    BitPattern,
    CapExceeded,
    Dataset,
    LengthMismatch,
    NotPowerOfTwo,
    PmfEstimate,
    all_patterns,
    dataset_from_words,
    estimate_coefficients,
    estimate_dirac,
    estimate_expansion,
    estimate_fwht,
    eval_basis,
    fast_transform,
    gram_matrix,
    kernel_dirac,
    kernel_sum,
    load_dataset,
    parse_pattern,
)

TOL = 1e-12


def random_dataset(rng: random.Random, length: int, size: int) -> Dataset:
    return dataset_from_words(
        [rng.getrandbits(length) for _ in range(size)], length
    )


def counting_oracle(dataset: Dataset, query: BitPattern) -> float:
    return sum(1 for p in dataset if p == query) / dataset.size


def naive_transform(values, length):
    """O(4^L) double loop, independent of the butterfly path."""
    size = 1 << length
    out = []
    for mask in range(size):
        total = 0.0
        for word in range(size):
            zeros = bin(mask & ~word & (size - 1)).count("1")
            total += values[word] * (-1 if zeros % 2 else 1)
        out.append(total)
    return out


class TestKernels:
    def test_equal_patterns_give_one(self):
        x = parse_pattern("101")
        assert kernel_sum(x, x) == pytest.approx(1.0, abs=TOL)
        assert kernel_dirac(x, x) == 1.0

    def test_different_patterns_give_zero(self):
        assert kernel_sum(parse_pattern("00"), parse_pattern("01")) == pytest.approx(0.0, abs=TOL)
        assert kernel_dirac(parse_pattern("00"), parse_pattern("01")) == 0.0

    def test_two_term_hand_expansion(self):
        # L=1, both [0]: (1*1 + (-1)*(-1)) / 2 = 1
        zero = parse_pattern("0")
        assert kernel_sum(zero, zero) == pytest.approx(1.0, abs=TOL)

    def test_dirac_sums_to_one_over_space(self):
        prototype = parse_pattern("101")
        assert sum(kernel_dirac(prototype, x) for x in all_patterns(3)) == 1.0

    def test_sum_matches_dirac_exhaustively(self):
        for length in range(1, 6):
            for a in all_patterns(length):
                for b in all_patterns(length):
                    assert abs(kernel_sum(a, b) - kernel_dirac(a, b)) <= TOL

    def test_symmetry(self):
        rng = random.Random(3)
        for _ in range(100):
            length = rng.randint(1, 10)
            a = BitPattern.from_word(rng.getrandbits(length), length)
            b = BitPattern.from_word(rng.getrandbits(length), length)
            assert kernel_sum(a, b) == kernel_sum(b, a)
            assert kernel_dirac(a, b) == kernel_dirac(b, a)

    def test_errors(self):
        with pytest.raises(LengthMismatch):
            kernel_sum(parse_pattern("0"), parse_pattern("00"))
        with pytest.raises(LengthMismatch):
            kernel_dirac(parse_pattern("0"), parse_pattern("00"))
        long = BitPattern.from_word(0, 30)
        with pytest.raises(CapExceeded):
            kernel_sum(long, long)


class TestCoefficients:
    def test_alpha_zero_is_fixed(self):
        rng = random.Random(5)
        for _ in range(20):
            length = rng.randint(1, 8)
            spectrum = estimate_coefficients(random_dataset(rng, length, rng.randint(1, 30)))
            assert spectrum.coefficients[0] == 1.0 / (1 << length)

    def test_single_sample_hand_values(self):
        spectrum = estimate_coefficients(load_dataset(["00"]))
        assert list(spectrum.coefficients) == [0.25, -0.25, -0.25, 0.25]

    def test_one_of_each_kills_higher_coefficients(self):
        for length in range(1, 7):
            dataset = dataset_from_words(list(range(1 << length)), length)
            spectrum = estimate_coefficients(dataset)
            assert spectrum.coefficients[0] == 1.0 / (1 << length)
            assert not np.any(spectrum.coefficients[1:])

    def test_definitional_oracle(self):
        # Eq.-style average of basis values over the sample, term by term.
        rng = random.Random(9)
        dataset = random_dataset(rng, 4, 11)
        spectrum = estimate_coefficients(dataset)
        for mask in range(16):
            index = BasisIndex(mask, 4)
            expected = sum(eval_basis(index, p) for p in dataset) / (11 * 16)
            assert spectrum.coefficients[mask] == pytest.approx(expected, abs=TOL)

    def test_bound_and_integrality(self):
        rng = random.Random(13)
        for _ in range(50):
            length = rng.randint(1, 10)
            size = rng.randint(1, 40)
            spectrum = estimate_coefficients(random_dataset(rng, length, size))
            scaled = spectrum.coefficients * size * (1 << length)
            assert np.all(np.abs(spectrum.coefficients) <= 1.0 / (1 << length) + TOL)
            assert np.allclose(scaled, np.round(scaled), atol=1e-9)


class TestEstimates:
    def test_single_sample_self_query(self):
        dataset = load_dataset(["101"])
        spectrum = estimate_coefficients(dataset)
        assert estimate_expansion(spectrum, parse_pattern("101")) == pytest.approx(1.0, abs=TOL)

    def test_counting_oracle_two_thirds(self):
        dataset = load_dataset(["01", "01", "11"])
        query = parse_pattern("01")
        assert counting_oracle(dataset, query) == pytest.approx(2 / 3)
        spectrum = estimate_coefficients(dataset)
        assert estimate_expansion(spectrum, query) == pytest.approx(2 / 3, abs=TOL)
        assert estimate_dirac(dataset, query) == pytest.approx(2 / 3)
        assert estimate_fwht(dataset, query) == pytest.approx(2 / 3, abs=TOL)

    def test_unseen_pattern_is_zero(self):
        dataset = load_dataset(["01", "01", "11"])
        query = parse_pattern("00")
        spectrum = estimate_coefficients(dataset)
        assert estimate_expansion(spectrum, query) == pytest.approx(0.0, abs=TOL)
        assert estimate_dirac(dataset, query) == 0.0

    def test_dirac_exact_match(self):
        assert estimate_dirac(load_dataset(["1"]), parse_pattern("1")) == 1.0

    def test_fwht_single_mismatch(self):
        dataset = load_dataset(["10"])
        assert estimate_fwht(dataset, parse_pattern("01")) == pytest.approx(0.0, abs=TOL)

    def test_fwht_uniform_quarter(self):
        dataset = dataset_from_words([0, 1, 2, 3], 2)
        assert estimate_fwht(dataset, parse_pattern("10")) == pytest.approx(0.25, abs=TOL)

    def test_three_paths_agree_exhaustive(self):
        rng = random.Random(17)
        for length in range(1, 6):
            for _ in range(10):
                dataset = random_dataset(rng, length, rng.randint(1, 25))
                spectrum = estimate_coefficients(dataset)
                for query in all_patterns(length):
                    dirac = estimate_dirac(dataset, query)
                    assert abs(estimate_expansion(spectrum, query) - dirac) <= TOL
                    assert abs(estimate_fwht(dataset, query) - dirac) <= TOL
                    assert dirac == counting_oracle(dataset, query)

    def test_equivalence_random_large(self):
        rng = random.Random(19)
        for _ in range(30):
            length = rng.randint(9, 16)
            dataset = random_dataset(rng, length, rng.randint(1, 30))
            spectrum = estimate_coefficients(dataset)
            for _ in range(5):
                query = BitPattern.from_word(rng.getrandbits(length), length)
                assert abs(
                    estimate_expansion(spectrum, query) - estimate_dirac(dataset, query)
                ) <= TOL

    def test_normalization_and_nonnegativity(self):
        rng = random.Random(23)
        for _ in range(20):
            length = rng.randint(1, 9)
            dataset = random_dataset(rng, length, rng.randint(1, 30))
            spectrum = estimate_coefficients(dataset)
            expansion = [estimate_expansion(spectrum, x) for x in all_patterns(length)]
            dirac = [estimate_dirac(dataset, x) for x in all_patterns(length)]
            assert math.fsum(expansion) == pytest.approx(1.0, abs=1e-9)
            assert math.fsum(dirac) == pytest.approx(1.0, abs=1e-9)
            assert all(p >= -TOL for p in expansion)
            assert all(p >= 0.0 for p in dirac)

    def test_exact_recovery_of_target_pmf(self):
        # multiplicities proportional to a target PMF reproduce it exactly
        rng = random.Random(29)
        length = 4
        multiplicities = [rng.randint(0, 5) for _ in range(1 << length)]
        multiplicities[3] += 1  # keep N >= 1
        words = [w for w, m in enumerate(multiplicities) for _ in range(m)]
        dataset = dataset_from_words(words, length)
        spectrum = estimate_coefficients(dataset)
        total = sum(multiplicities)
        for word, m in enumerate(multiplicities):
            query = BitPattern.from_word(word, length)
            assert estimate_expansion(spectrum, query) == pytest.approx(m / total, abs=TOL)

    def test_pmf_estimate_wrapper(self):
        dataset = load_dataset(["01", "01", "11"])
        query = parse_pattern("01")
        for method in ("expansion", "dirac", "fwht"):
            estimate = PmfEstimate.fit(dataset, method)
            assert estimate(query) == pytest.approx(2 / 3, abs=TOL)
        with pytest.raises(LengthMismatch):
            PmfEstimate.fit(dataset, "dirac")(parse_pattern("0"))


class TestFastTransform:
    def test_constant_function(self):
        for length in (1, 3, 5):
            out = fast_transform([1.0] * (1 << length), "forward")
            assert out[0] == 1 << length
            assert not np.any(out[1:])

    def test_point_mass_at_zero(self):
        assert list(fast_transform([1.0, 0.0], "forward")) == [1.0, -1.0]

    @pytest.mark.parametrize("length", range(1, 9))
    def test_matches_naive_double_loop(self, length):
        rng = random.Random(31 + length)
        values = [rng.random() for _ in range(1 << length)]
        fast = fast_transform(values, "forward")
        assert np.allclose(fast, naive_transform(values, length), atol=TOL)

    def test_inverse_forward_identity(self):
        rng = random.Random(37)
        for length in range(1, 13):
            values = np.array([rng.random() for _ in range(1 << length)])
            round_trip = fast_transform(fast_transform(values, "forward"), "inverse")
            assert np.allclose(round_trip, values, atol=TOL)

    def test_errors(self):
        with pytest.raises(NotPowerOfTwo):
            fast_transform([1.0, 2.0, 3.0], "forward")
        with pytest.raises(NotPowerOfTwo):
            fast_transform([1.0], "forward")
        with pytest.raises(CapExceeded):
            fast_transform([0.0] * (1 << 5), "forward", cap=4)
        with pytest.raises(ValueError):
            fast_transform([1.0, 2.0], "sideways")


class TestGramMatrix:
    def test_distinct_patterns_identity(self):
        dataset = dataset_from_words([0, 1, 2, 3], 2)
        for method in ("dirac", "sum"):
            assert np.array_equal(gram_matrix(dataset, method), np.eye(4))

    def test_duplicates_all_ones(self):
        dataset = load_dataset(["0", "0"])
        assert np.array_equal(gram_matrix(dataset, "dirac"), np.ones((2, 2)))

    def test_methods_agree(self):
        rng = random.Random(41)
        for length in range(1, 7):
            dataset = random_dataset(rng, length, 8)
            assert np.allclose(
                gram_matrix(dataset, "sum"), gram_matrix(dataset, "dirac"), atol=TOL
            )

    def test_block_structure(self):
        # grouping equal patterns makes a 0/1 block-diagonal matrix
        dataset = load_dataset(["00", "00", "11", "01"])
        gram = gram_matrix(dataset, "dirac")
        assert np.array_equal(gram, gram.T)
        assert set(np.unique(gram)) <= {0.0, 1.0}
        assert np.array_equal(np.diag(gram), np.ones(4))
        expected = np.zeros((4, 4))
        expected[:2, :2] = 1
        expected[2, 2] = expected[3, 3] = 1
        assert np.array_equal(gram, expected)

    def test_input_order(self):
        lines = ["11", "00", "11", "01", "00"]
        dataset = load_dataset(lines)
        expected = np.array([[float(a == b) for b in lines] for a in lines])
        for method in ("dirac", "sum"):
            assert np.array_equal(gram_matrix(dataset, method), expected)
