import ast
import inspect
import math
import pickle
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracpmf import (
    BasisIndex,
    BitPattern,
    CapExceeded,
    Dataset,
    LengthMismatch,
    LengthOutOfRange,
    NotPowerOfTwo,
    PmfEstimate,
    RangeError,
    Spectrum,
    all_patterns,
    dataset_from_words,
    estimate_coefficients,
    estimate_dirac,
    estimate_expansion,
    estimate_fwht,
    eval_basis,
    fast_transform,
    kernel_dirac,
    kernel_sum,
    load_dataset,
    parse_pattern,
)
from diracpmf import cli, verify

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

    def test_sum_equals_dirac_exactly(self):
        # The sum counts integer sign products and divides once by 2^L, so it
        # is exactly 1.0 or 0.0, with no rounding to forgive.
        for length in range(1, 7):
            for a in all_patterns(length):
                for b in all_patterns(length):
                    assert kernel_sum(a, b) == kernel_dirac(a, b)

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

    @pytest.mark.parametrize(
        "length, counts",
        [
            pytest.param(length, [1 + i % 3 for i in range(distinct)], id=f"{length}-{distinct}")
            for length, distinct in [(1, 1), (1, 2), (10, 1), (10, 9), (10, 300), (18, 1), (18, 2)]
        ]
        + [
            # Large counts, up to 2000, summed exactly by the butterfly; odd
            # L takes an odd number of butterfly stages, which end in the
            # transform's second vector.
            pytest.param(length, counts, id=f"{length}-{len(counts)}-max{max(counts)}")
            for length, counts in [
                (1, [128, 1]),
                (2, [1, 3, 3, 300]),
                (3, [1, 2, 16, 1, 1]),
                (6, [2] * 19 + [1] * 17),
                (8, [1 + 7 * i for i in range(40)]),
                (11, [15, 16, 127, 128, 2000] * 8),
                (13, [1, 15, 16, 300] * 5),
            ]
        ],
    )
    def test_equals_per_word_basis_sum(self, length, counts):
        rng = random.Random(length * 1000 + len(counts))
        words = rng.sample(range(1 << length), len(counts))
        dataset = dataset_from_words(
            [word for word, count in zip(words, counts) for _ in range(count)], length
        )
        spectrum = estimate_coefficients(dataset)
        patterns = [BitPattern.from_word(word, length) for word in words]
        masks = range(1 << length)
        if length > 13:
            masks = [0, (1 << length) - 1] + rng.sample(masks, 2000)
        coefficients = spectrum.coefficients
        for mask in masks:
            index = BasisIndex(mask, length)
            total = sum(
                count * eval_basis(index, pattern) for pattern, count in zip(patterns, counts)
            )
            assert spectrum.numerators[mask] == total
            assert coefficients[mask] == total / (dataset.size * (1 << length))

    def test_bound_and_integrality(self):
        rng = random.Random(13)
        for _ in range(50):
            length = rng.randint(1, 10)
            size = rng.randint(1, 40)
            spectrum = estimate_coefficients(random_dataset(rng, length, size))
            scaled = spectrum.coefficients * size * (1 << length)
            assert np.all(np.abs(spectrum.coefficients) <= 1.0 / (1 << length) + TOL)
            assert np.allclose(scaled, np.round(scaled), atol=1e-9)


#: The butterfly's callers, each given a random vector and a dataset of one L.
TRANSFORMS = {
    "fast_transform": lambda values, dataset: fast_transform(values),
    "fwht_table": lambda values, dataset: verify.fwht_table(dataset),
    "estimate_coefficients": lambda values, dataset: estimate_coefficients(dataset),
}


#: Datasets on which the fit's peak must not grow with the distinct words or
#: their counts: (L, distinct words, count of the i-th word, id).
SPREAD_DATASETS = [
    *[
        (length, distinct, lambda i: 1, f"{length}-{distinct}")
        for length, distinct in [
            (13, 1), (13, 8192), (14, 1), (14, 9), (14, 5000), (14, 16384),
            (15, 9), (15, 5000), (18, 3),
        ]
    ],
    (14, 16384, lambda i: 3, "14-16384-each-thrice"),
    *[
        (length, 5000, lambda i: 1 + i % 40, f"{length}-5000-mixed-counts")
        for length in (13, 14, 15)
    ],
]


@pytest.mark.parametrize(
    "name, length, spread",
    [
        pytest.param(name, length, None, id=f"{name}-{length}")
        for name in TRANSFORMS
        for length in [10, 13, 14, 16]
    ]
    + [
        pytest.param(
            "estimate_coefficients", length, (distinct, count), id=f"estimate_coefficients-{case}"
        )
        for length, distinct, count, case in SPREAD_DATASETS
    ],
)
def test_transform_peak_is_two_tables(name, length, spread):
    # In float64 tables of 2^L: fast_transform holds its float64 copy and the
    # butterfly's second vector (2); the fits, fwht_table's too, hold two int32
    # vectors (1). A stage that made numpy buffer its operands would add
    # 3 x 64 KiB at L <= 14.
    rng = random.Random(length)
    values = np.array([rng.random() for _ in range(1 << length)])
    if spread is None:
        dataset = random_dataset(rng, length, 2000)
    else:
        distinct, count = spread
        words = random.Random(distinct).sample(range(1 << length), distinct)
        dataset = dataset_from_words(
            [word for i, word in enumerate(words) for _ in range(count(i))], length
        )
    tracemalloc.start()
    try:
        TRANSFORMS[name](values, dataset)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    tables = {"fast_transform": 2.0, "fwht_table": 1.0, "estimate_coefficients": 1.0}[name]
    assert peak <= tables * (8 << length) + (16 << 10)


def test_no_oracle_calls_blas():
    # A float64 product of 2^14 entries or more goes to BLAS, whose threads
    # can stall a call on a small host; the oracles and the CLI checks
    # multiply and add instead.
    blas = {"dot", "matmul", "einsum", "tensordot", "inner", "vdot"}
    sources = [inspect.getsource(module) for module in (cli, verify)]
    nodes = [node for source in sources for node in ast.walk(ast.parse(source))]
    assert not [node for node in nodes if isinstance(node, ast.MatMult)]
    # As np.dot, as a bare dot after an import, or as the imported name.
    names = [getattr(node, field, None) for node in nodes for field in ("attr", "id", "name")]
    assert blas.isdisjoint(names)


class TestSpectrum:
    def test_equal_spectra_compare_and_hash_equal(self, copies):
        dataset = load_dataset(["01", "01", "11"])
        spectrum = estimate_coefficients(dataset)
        for other in [estimate_coefficients(dataset), *copies(spectrum)]:
            assert type(other) is Spectrum
            assert other == spectrum and hash(other) == hash(spectrum)
            assert not other.coefficients.flags.writeable
        assert spectrum != estimate_coefficients(load_dataset(["01", "11"]))
        assert spectrum != Spectrum(2, 4, spectrum.numerators.copy())
        assert spectrum != "spectrum"
        assert len({spectrum, *copies(spectrum)}) == 1

    def test_coefficients_are_numerators_over_n_times_2_to_the_l(self):
        rng = random.Random(21)
        for length in (1, 3, 8, 12):
            dataset = random_dataset(rng, length, rng.randint(1, 5000))
            spectrum = estimate_coefficients(dataset)
            numerators = spectrum.numerators
            assert numerators.dtype == np.int32
            assert np.all(np.abs(numerators) <= dataset.size)
            coefficients = spectrum.coefficients
            assert np.array_equal(coefficients, numerators / (dataset.size << length))
            # Computed on every access, not cached, and read-only each time.
            assert coefficients is not spectrum.coefficients
            with pytest.raises(ValueError, match="read-only"):
                coefficients[0] = 0.0
            with pytest.raises(AttributeError):
                spectrum.coefficients = coefficients

    def test_numerators_are_signed_integers_of_any_width(self):
        for numerators in [[0.0, -0.0], [np.nan, 0.0], [True, False], np.array([0, 1], np.uint8)]:
            with pytest.raises(TypeError, match="^numerators must be signed integers"):
                Spectrum(1, 1, np.array(numerators))
        narrow = Spectrum(1, 1, np.array([3, -1], np.int32))
        wide = Spectrum(1, 1, np.array([3, -1], np.int64))
        assert narrow == wide and hash(narrow) == hash(wide)
        assert narrow != Spectrum(1, 1, np.array([3, 1], np.int32))
        assert narrow != Spectrum(1, 3, np.array([3, -1], np.int64))

    def test_length_and_sample_size_are_checked(self):
        with pytest.raises(LengthOutOfRange, match="^pattern length 0 outside 1..64$"):
            Spectrum(0, 1, np.array([5]))
        with pytest.raises(LengthOutOfRange, match="^pattern length -1 outside 1..64$"):
            Spectrum(-1, 1, np.zeros(2, np.int64))
        for size in (0, -1):
            with pytest.raises(ValueError, match=f"^sample size {size} is not positive$"):
                Spectrum(1, size, np.zeros(2, np.int64))
        spectrum = Spectrum(np.int64(1), 1, np.array([1, -1]))
        assert type(spectrum.length) is int and spectrum == Spectrum(1, 1, np.array([1, -1]))

    def test_sample_size_is_an_int(self):
        for size in (1.5, 1.0, np.float64(2.0)):
            with pytest.raises(TypeError):
                Spectrum(1, size, np.array([3, -1]))
        for size, stored in ((True, 1), (np.int64(3), 3)):
            spectrum = Spectrum(1, size, np.array([3, -1]))
            want = Spectrum(1, stored, np.array([3, -1]))
            assert type(spectrum.sample_size) is int and repr(spectrum) == repr(want)
            assert np.array_equal(spectrum.coefficients, want.coefficients)


class TestEstimates:
    def test_single_sample_self_query(self):
        dataset = load_dataset(["101"])
        spectrum = estimate_coefficients(dataset)
        assert estimate_expansion(spectrum, parse_pattern("101")) == 1.0

    def test_counting_oracle_two_thirds(self):
        dataset = load_dataset(["01", "01", "11"])
        query = parse_pattern("01")
        assert counting_oracle(dataset, query) == pytest.approx(2 / 3)
        spectrum = estimate_coefficients(dataset)
        assert estimate_expansion(spectrum, query) == 2 / 3
        assert estimate_dirac(dataset, query) == pytest.approx(2 / 3)
        assert estimate_fwht(dataset, query) == 2 / 3

    def test_unseen_pattern_is_zero(self):
        dataset = load_dataset(["01", "01", "11"])
        query = parse_pattern("00")
        spectrum = estimate_coefficients(dataset)
        assert estimate_expansion(spectrum, query) == 0.0
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
                    assert estimate_expansion(spectrum, query) == dirac
                    assert estimate_fwht(dataset, query) == dirac
                    assert dirac == counting_oracle(dataset, query)

    def test_equivalence_random_large(self):
        rng = random.Random(19)
        for _ in range(30):
            length = rng.randint(9, 16)
            dataset = random_dataset(rng, length, rng.randint(1, 30))
            spectrum = estimate_coefficients(dataset)
            for _ in range(5):
                query = BitPattern.from_word(rng.getrandbits(length), length)
                assert estimate_expansion(spectrum, query) == estimate_dirac(dataset, query)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 12).flatmap(lambda length: st.tuples(
        st.just(length), st.lists(st.integers(0, (1 << length) - 1), min_size=1, max_size=300),
    )))
    def test_fwht_is_count_over_n_exactly(self, case):
        length, words = case
        dataset = dataset_from_words(words, length)
        table = verify.fwht_table(dataset)
        assert table.dtype == np.int32 and not table.flags.writeable
        fwht = PmfEstimate.fit(dataset, "fwht")
        expansion = PmfEstimate.fit(dataset, "expansion")
        for query in all_patterns(length):
            dirac = estimate_dirac(dataset, query)
            assert table.item(query.word) == dataset.counts.get(query.word, 0)
            answer = table.item(query.word) / dataset.size
            assert answer == fwht(query) == expansion(query) == dirac
        for word in {words[0], words[-1], (1 << length) - 1}:
            query = BitPattern.from_word(word, length)
            assert estimate_fwht(dataset, query) == estimate_dirac(dataset, query)

    def test_fwht_is_count_over_n_exactly_at_l18(self):
        dataset = random_dataset(random.Random(18), 18, 10**5)
        dirac, counts = np.zeros(1 << 18), np.zeros(1 << 18, np.int32)
        for word, count in dataset.counts.items():
            dirac[word] = estimate_dirac(dataset, BitPattern.from_word(word, 18))
            counts[word] = count
        assert np.array_equal(verify.fwht_table(dataset), counts)
        fwht = PmfEstimate.fit(dataset, "fwht")
        assert fwht.table.dtype == np.int32 and np.array_equal(fwht.table, counts)
        assert np.array_equal(fwht.table / dataset.size, dirac)
        expansion = PmfEstimate.fit(dataset, "expansion")
        unseen = next(word for word in range(1 << 18) if word not in dataset.counts)
        for word in (next(iter(dataset.counts)), unseen):
            query = BitPattern.from_word(word, 18)
            assert estimate_fwht(dataset, query) == fwht(query) == estimate_dirac(dataset, query)
            assert expansion(query) == estimate_dirac(dataset, query)
        # Every partial sum of a row here is an integer up to 2^18 * 10^5, about 2^34.6.
        rng = random.Random(1018)
        for word in (rng.getrandbits(18) for _ in range(100)):
            assert expansion(BitPattern.from_word(word, 18)) == dirac[word]

    @pytest.mark.parametrize(
        "path", [estimate_coefficients, verify.fwht_table, verify.frequency_vector])
    def test_reference_paths_refuse_n_times_2_to_the_l_at_2_53(self, path):
        # Past 2^53 the float64 coefficients numerators / (N * 2^L) round.
        dataset = Dataset({0: 16854035630840075, 1: 323235362292765}, 1)
        with pytest.raises(RangeError, match=r"^N=17177270993132840 at L=1: .*2\^53$"):
            path(dataset)

    def test_reference_paths_are_exact_up_to_2_53(self):
        # About 800 words whose counts sum to N = 2^41 - 1, so N * 2^12 = 2^53 - 2^12.
        rng = random.Random(41)
        size = (1 << 41) - 1
        cuts = sorted(rng.sample(range(1, size), 799))
        words = rng.sample(range(1 << 12), 800)
        counts = dict(zip(words, np.diff([0, *cuts, size]).tolist()))
        dataset = Dataset(counts, 12)
        assert dataset.size == size
        expansion = PmfEstimate.fit(dataset, "expansion")
        fwht = PmfEstimate.fit(dataset, "fwht")
        for query in all_patterns(12):
            assert expansion(query) == fwht(query) == estimate_dirac(dataset, query)
        counts[words[0]] += 1
        for method in ("expansion", "fwht"):
            with pytest.raises(RangeError, match=r"^N=2199023255552 at L=12: "):
                PmfEstimate.fit(Dataset(counts, 12), method)

    @pytest.mark.parametrize("length", [1, 2])
    @pytest.mark.parametrize("size, dtype", [((1 << 30) - 1, np.int32), (1 << 30, np.int64)])
    def test_numerators_widen_to_int64_at_n_2_30(self, size, dtype, length):
        # One word holds all the count, or all but 1. At N = 2^30 the first
        # makes an inverse stage's sum a + b reach 2N = 2^31, one past int32.
        top = (1 << length) - 1
        for counts in [{top: size}, {top: size - 1, 0: 1}]:
            dataset = Dataset(counts, length)
            assert estimate_coefficients(dataset).numerators.dtype == dtype
            expansion = PmfEstimate.fit(dataset, "expansion")
            fwht = PmfEstimate.fit(dataset, "fwht")
            for query in all_patterns(length):
                assert expansion(query) == fwht(query) == estimate_dirac(dataset, query)

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
            assert estimate_expansion(spectrum, query) == m / total

    def test_pmf_estimate_wrapper(self):
        dataset = load_dataset(["01", "01", "11"])
        query = parse_pattern("01")
        for method in ("expansion", "dirac", "fwht"):
            estimate = PmfEstimate.fit(dataset, method)
            assert estimate(query) == 2 / 3
        with pytest.raises(LengthMismatch):
            PmfEstimate.fit(dataset, "dirac")(parse_pattern("0"))


    @pytest.mark.parametrize(
        "path, fitted",
        [
            (estimate_dirac, lambda dataset: dataset),
            (estimate_expansion, estimate_coefficients),
            (estimate_fwht, lambda dataset: dataset),
        ],
        ids=["dirac", "expansion", "fwht"],
    )
    def test_public_paths_refuse_a_wrong_length_query(self, path, fitted):
        # A served estimate answers through these functions, so this is its check too.
        reference = fitted(load_dataset(["01", "01", "11"]))
        for query in (parse_pattern("0"), parse_pattern("011")):
            with pytest.raises(LengthMismatch, match=f"length 2 != pattern length {query.length}$"):
                path(reference, query)


class TestFastTransform:
    def test_constant_function(self):
        for length in (1, 3, 5):
            out = fast_transform([1.0] * (1 << length), "forward")
            assert out[0] == 1 << length
            assert not np.any(out[1:])

    def test_point_mass_at_zero(self):
        assert list(fast_transform([1.0, 0.0], "forward")) == [1.0, -1.0]

    @pytest.mark.parametrize(
        "length, integral",
        [pytest.param(length, False, id=str(length)) for length in range(1, 9)]
        + [pytest.param(length, True, id=f"integers-{length}") for length in range(1, 9)],
    )
    def test_matches_naive_double_loop(self, length, integral):
        rng = random.Random(31 + length)
        if integral:
            # Counts-like integers: every partial sum is exact in float64, so
            # the butterfly must equal the double loop, as the fit relies on.
            values = [float(rng.randint(-2000, 2000)) for _ in range(1 << length)]
            assert list(fast_transform(values, "forward")) == naive_transform(values, length)
        else:
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
        with pytest.raises(NotPowerOfTwo):
            fast_transform(np.zeros((2, 2)), "forward")
        with pytest.raises(NotPowerOfTwo):
            fast_transform([[1.0, 2.0], [3.0, 4.0]], "forward")
        with pytest.raises(CapExceeded):
            fast_transform(np.broadcast_to(0.0, 1 << 25), "forward")
        with pytest.raises(ValueError):
            fast_transform([1.0, 2.0], "sideways")


def indicator_gram(dataset: Dataset) -> np.ndarray:
    """The N x N indicator-kernel matrix over the dataset's patterns, pair by pair."""
    return np.array([[kernel_dirac(a, b) for b in dataset] for a in dataset])


class TestGramMatrix:
    """The indicator kernel over a sample, in the order the dataset yields its patterns."""

    def test_distinct_patterns_identity(self):
        dataset = dataset_from_words([0, 1, 2, 3], 2)
        assert np.array_equal(indicator_gram(dataset), np.eye(4))

    def test_duplicates_all_ones(self):
        dataset = load_dataset(["0", "0"])
        assert np.array_equal(indicator_gram(dataset), np.ones((2, 2)))

    def test_methods_agree(self):
        # The basis-product kernel's Gram matrix, entry by entry, is the indicator one.
        rng = random.Random(41)
        for length in range(1, 7):
            dataset = random_dataset(rng, length, 8)
            by_sums = [[kernel_sum(a, b) for b in dataset] for a in dataset]
            assert np.allclose(by_sums, indicator_gram(dataset), atol=TOL)

    def test_block_structure(self):
        # grouping equal patterns makes a 0/1 block-diagonal matrix
        dataset = load_dataset(["00", "00", "11", "01"])
        gram = indicator_gram(dataset)
        assert np.array_equal(gram, gram.T)
        assert set(np.unique(gram)) <= {0.0, 1.0}
        assert np.array_equal(np.diag(gram), np.ones(4))
        expected = np.zeros((4, 4))
        expected[:2, :2] = 1
        expected[2, 2] = expected[3, 3] = 1
        assert np.array_equal(gram, expected)

    def test_word_order(self):
        lines = ["11", "00", "11", "01", "00"]
        dataset = load_dataset(lines)
        # Words 3, 0, 3, 2, 0: rows and columns follow the word order.
        ordered = ["00", "00", "01", "11", "11"]
        assert [str(pattern) for pattern in dataset] == ordered
        expected = np.array([[float(a == b) for b in ordered] for a in ordered])
        assert np.array_equal(indicator_gram(dataset), expected)
        blocks = np.zeros((5, 5))
        blocks[:2, :2] = blocks[2, 2] = blocks[3:, 3:] = 1
        assert np.array_equal(indicator_gram(dataset), blocks)


class TestPmfEstimateBehaviour:
    """The estimate binds its query at construction; it still pickles, copies and refuses assignment."""

    METHODS = ("expansion", "dirac", "fwht")

    @pytest.mark.parametrize("method", METHODS)
    def test_copies_answer_identically(self, method, copies):
        dataset = random_dataset(random.Random(6), 6, 40)
        estimate = PmfEstimate.fit(dataset, method)
        queries = list(all_patterns(6))
        want = [estimate(query) for query in queries]
        for other in copies(estimate):
            assert type(other) is PmfEstimate
            assert other.method == method
            assert other.dataset == dataset
            assert [other(query) for query in queries] == want
            with pytest.raises(LengthMismatch):
                other(parse_pattern("0"))

    @pytest.mark.parametrize("method", METHODS)
    def test_copies_compare_equal(self, method, copies):
        dataset = load_dataset(["01", "01", "11"])
        estimate = PmfEstimate.fit(dataset, method)
        rebuilt = eval(repr(estimate), {"PmfEstimate": PmfEstimate, "Dataset": Dataset})
        for other in [PmfEstimate.fit(load_dataset(["01", "01", "11"]), method), rebuilt,
                      *copies(estimate)]:
            assert other == estimate and hash(other) == hash(estimate)
        assert estimate != PmfEstimate.fit(load_dataset(["01", "11"]), method)
        assert len({PmfEstimate.fit(dataset, other) for other in self.METHODS}) == 3

    @pytest.mark.parametrize("method", METHODS)
    def test_arrays_are_read_only(self, method, copies):
        def arrays(estimate):
            spectrum = estimate.spectrum
            found = (estimate.table, getattr(spectrum, "numerators", None),
                     getattr(spectrum, "coefficients", None))
            return [array for array in found if array is not None]

        estimate = PmfEstimate.fit(load_dataset(["01", "01", "11"]), method)
        fresh = arrays(PmfEstimate.fit(load_dataset(["01", "11", "01"]), method))
        queries = list(all_patterns(2))
        want = [estimate(query) for query in queries]
        count = {"dirac": 0, "fwht": 1, "expansion": 2}[method]
        for other in [estimate, *copies(estimate)]:
            # A copy refits: its arrays equal a fresh fit's, and are read-only again.
            assert len(arrays(other)) == len(fresh) == count
            for array, fitted in zip(arrays(other), fresh):
                assert np.array_equal(array, fitted)
                with pytest.raises(ValueError, match="read-only"):
                    array[1] = 1.0
            assert [other(query) for query in queries] == want

    def test_pickle_carries_no_table(self):
        # The table is 2^16 int32 counts, 256 KiB; the pickle holds the count map only.
        dataset = random_dataset(random.Random(16), 16, 1000)
        estimate = PmfEstimate.fit(dataset, "fwht")
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert len(pickle.dumps(estimate, protocol)) < 64 * 1024

    @pytest.mark.parametrize("method", METHODS)
    def test_fields_stay_readable_and_fixed(self, method):
        dataset = load_dataset(["01", "01", "11"])
        estimate = PmfEstimate.fit(dataset, method)
        assert estimate.method == method
        assert estimate.dataset is dataset
        assert (estimate.spectrum is not None) is (method == "expansion")
        assert (estimate.table is not None) is (method == "fwht")
        for name in ("method", "dataset", "spectrum", "table", "other"):
            with pytest.raises(AttributeError):
                setattr(estimate, name, None)
        assert estimate.method == method

    def test_unknown_method_is_refused(self):
        dataset = load_dataset(["01"])
        with pytest.raises(ValueError, match="unknown estimation method 'kernel'"):
            PmfEstimate.fit(dataset, "kernel")
        with pytest.raises(ValueError, match="unknown estimation method 'kernel'"):
            PmfEstimate("kernel", dataset)

    def test_wrong_arrays_are_refused(self):
        # The constructor fits and takes no arrays at all, not even its own method's.
        dataset = load_dataset(["011", "110"])
        spectrum = estimate_coefficients(dataset)
        table = PmfEstimate.fit(dataset, "fwht").table
        for method, args, kwargs in [
            ("expansion", (spectrum,), {}),
            ("expansion", (), {"spectrum": spectrum}),
            ("fwht", (None, table), {}),
            ("fwht", (), {"table": table}),
            ("dirac", (), {"spectrum": None, "table": None}),
        ]:
            with pytest.raises(TypeError):
                PmfEstimate(method, dataset, *args, **kwargs)
        query = parse_pattern("011")
        for method in self.METHODS:
            assert PmfEstimate(method, dataset)(query) == pytest.approx(0.5, abs=TOL)

    def test_spectrum_of_another_sample_size_is_refused(self):
        # Another sample's spectrum of the same L cannot get in; the fit's has this N.
        dataset = load_dataset(["01"])
        other = estimate_coefficients(load_dataset(["11", "11", "10"]))
        assert other.length == dataset.length
        with pytest.raises(TypeError):
            PmfEstimate("expansion", dataset, other)
        own = PmfEstimate("expansion", dataset)
        assert own.spectrum == estimate_coefficients(dataset)
        assert own.spectrum.sample_size == dataset.size
        assert own(parse_pattern("01")) == pytest.approx(1.0, abs=TOL)

    @pytest.mark.parametrize("method", ["expansion", "fwht"])
    def test_reference_answers_equal_the_functions(self, method):
        dataset = random_dataset(random.Random(14), 10, 300)
        estimate = PmfEstimate.fit(dataset, method)
        spectrum = estimate_coefficients(dataset)
        for query in all_patterns(10):
            if method == "expansion":
                assert estimate(query) == estimate_expansion(spectrum, query)
            else:
                assert estimate(query) == estimate_fwht(dataset, query)
