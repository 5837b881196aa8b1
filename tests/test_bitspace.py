import io
import random
import sys
import tracemalloc
from collections import Counter
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracpmf import (
    BitPattern,
    Dataset,
    DiracPmfError,
    EmptyDataset,
    EmptyInput,
    IllegalCharacter,
    LengthMismatch,
    LengthOutOfRange,
    PmfEstimate,
    RaggedLengths,
    all_patterns,
    dataset_from_words,
    load_dataset,
    parse_pattern,
    render_pattern,
)
from diracpmf import bitspace


class TestParsePattern:
    def test_single_digit(self):
        assert parse_pattern("0").bits == (0,)

    def test_direct_mapping(self):
        assert parse_pattern("101").bits == (1, 0, 1)

    def test_commas_are_stripped(self):
        assert parse_pattern("1,0,1").bits == (1, 0, 1)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            parse_pattern("10", expected_length=3)

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            parse_pattern("   ")
        with pytest.raises(EmptyInput):
            parse_pattern(",,")

    def test_illegal_character(self):
        with pytest.raises(IllegalCharacter):
            parse_pattern("102")

    def test_length_out_of_range(self):
        with pytest.raises(LengthOutOfRange):
            parse_pattern("0" * 65)

    def test_leftmost_is_x1(self):
        pattern = parse_pattern("100")
        assert pattern.bits == (1, 0, 0)
        assert pattern.word == 0b001


class TestLoadDataset:
    def test_direct_construction(self):
        dataset = load_dataset(io.StringIO("01\n01\n11"))
        assert (dataset.length, dataset.size) == (2, 3)

    def test_comments_and_blanks_skipped(self):
        dataset = load_dataset(io.StringIO("# c\n1\n\n0\n"))
        assert (dataset.length, dataset.size) == (1, 2)

    def test_ragged_lengths(self):
        with pytest.raises(RaggedLengths):
            load_dataset(io.StringIO("01\n011"))

    def test_empty_dataset(self):
        with pytest.raises(EmptyDataset):
            load_dataset(io.StringIO("# only a comment\n\n"))

    def test_parse_error_carries_line_number(self):
        with pytest.raises(IllegalCharacter, match="line 2"):
            load_dataset(io.StringIO("01\n0x\n11"))

    def test_multiplicity_preserved(self):
        lines = ["01", "11", "01", "01"]
        dataset = load_dataset(lines)
        assert sorted(str(p) for p in dataset) == sorted(lines)
        assert dataset.counts[parse_pattern("01").word] == 3


def test_round_trip_exhaustive_up_to_ten():
    for length in range(1, 11):
        for pattern in all_patterns(length):
            assert parse_pattern(render_pattern(pattern)) == pattern


@given(st.lists(st.sampled_from([0, 1]), min_size=1, max_size=64))
def test_round_trip_random(bits):
    pattern = BitPattern(tuple(bits))
    assert parse_pattern(render_pattern(pattern)) == pattern
    assert BitPattern.from_word(pattern.word, pattern.length) == pattern


def test_equality_is_elementwise():
    assert parse_pattern("01") == parse_pattern("0,1")
    assert parse_pattern("01") != parse_pattern("10")
    # same word, different length: distinct patterns
    assert parse_pattern("1") != parse_pattern("10")


def reference_bits(text):
    """Per-character reference parser: '0'/'1' kept, commas and whitespace dropped."""
    bits = []
    for char in text:
        if char in "01":
            bits.append(int(char))
        elif not (char == "," or char.isspace()):
            raise ValueError(f"illegal character {char!r}")
    return tuple(bits)


def reference_load(lines):
    return [
        reference_bits(line.strip())
        for line in lines
        if line.strip() and not line.strip().startswith("#")
    ]


@st.composite
def decorated_dataset(draw):
    """Pattern lines of one length with commas, inner whitespace, comments,
    blank lines and mixed LF/CRLF endings."""
    length = draw(st.integers(min_value=1, max_value=64))
    separator = st.sampled_from(["", "", "", ",", " ", "\t", ", ", "\u00a0"])
    lines = []
    for bits in draw(
        st.lists(st.lists(st.sampled_from("01"), min_size=length, max_size=length),
                 min_size=1, max_size=12)
    ):
        for _ in range(draw(st.integers(min_value=0, max_value=2))):
            lines.append(draw(st.sampled_from(["", "  ", "\t", "# comment", "  #01 x"])))
        text = bits[0] + "".join(draw(separator) + bit for bit in bits[1:])
        padding = draw(st.sampled_from(["", " ", "\t"]))
        lines.append(padding + text + padding)
    ending = st.sampled_from(["\n", "\r\n"])
    return "".join(line + draw(ending) for line in lines)


@given(decorated_dataset())
def test_ingest_matches_reference_parser(text):
    lines = io.StringIO(text).readlines()
    expected = reference_load(lines)
    dataset = load_dataset(io.StringIO(text))
    assert dataset.length == len(expected[0])
    words = [sum(bit << position for position, bit in enumerate(bits)) for bits in expected]
    assert dataset.counts == dict(Counter(words))
    assert dataset.size == len(expected)
    assert [pattern.bits for pattern in dataset] == sorted(expected, key=reference_word)
    assert [pattern.word for pattern in dataset] == sorted(words)
    for line in lines:
        if line.strip() and not line.strip().startswith("#"):
            pattern = parse_pattern(line, expected_length=dataset.length)
            assert pattern.bits == reference_bits(line)
            assert pattern.word == sum(b << p for p, b in enumerate(pattern.bits))


@pytest.mark.parametrize("bad", ["0b101", "1_0", "+1", "\u0661\u0660"])
def test_int_syntax_is_rejected_with_line_number(bad):
    # int(text, 2) accepts each of these; the parser must not.
    with pytest.raises(IllegalCharacter):
        parse_pattern(bad)
    with pytest.raises(IllegalCharacter, match="^line 3: "):
        load_dataset(["10", "# comment", bad, "01"])


def test_all_ones_round_trip_at_64():
    text = "1" * 64
    pattern = parse_pattern(text)
    assert pattern.word == (1 << 64) - 1
    assert pattern.bits == (1,) * 64
    assert render_pattern(pattern) == text
    dataset = load_dataset([text])
    assert dataset.counts == {(1 << 64) - 1: 1} and dataset.size == 1
    assert tuple(dataset) == (pattern,)
    assert tuple(dataset_from_words([(1 << 64) - 1], 64)) == (pattern,)
    assert Dataset({(1 << 64) - 1: 1}, 64) == dataset
    assert BitPattern.from_word(pattern.word, 64) == pattern


def test_patterns_iterate_in_word_order():
    lines = ["11", "00", "11", "01"]
    dataset = load_dataset(lines)
    # Words 3, 0, 3, 2: each distinct pattern, count times, by word.
    assert [str(pattern) for pattern in dataset] == ["00", "01", "11", "11"]
    assert tuple(dataset_from_words([3, 0, 3, 2], 2)) == tuple(dataset)
    assert tuple(dataset_from_words([2, 3, 0, 3], 2)) == tuple(dataset)
    assert tuple(Dataset({3: 2, 2: 1, 0: 1}, 2)) == tuple(dataset)


def test_equal_datasets_hash_equal():
    dataset = load_dataset(["11", "00", "01", "11"])
    for same in (
        dataset_from_words([3, 0, 2, 3], 2),
        dataset_from_words([0, 3, 3, 2], 2),
        Dataset({2: 1, 3: 2, 0: 1}, 2),
    ):
        assert dataset == same and hash(dataset) == hash(same)
    # A dataset is a multiset: a count, a word or the length tells two apart.
    assert dataset != dataset_from_words([3, 0, 2], 2)
    assert dataset != dataset_from_words([3, 0, 2, 2], 2)
    assert dataset != dataset_from_words([3, 0, 1, 3], 2)
    assert dataset != dataset_from_words([3, 0, 2, 3], 3)
    assert dataset != dataset.counts


def test_ragged_lengths_carry_line_number():
    with pytest.raises(RaggedLengths, match="^line 3: "):
        load_dataset(["01", "", "0,1,1"])


def test_dataset_from_words_range_checks():
    for bad in (4, -1, 1 << 64):
        with pytest.raises(ValueError, match=f"word {bad} does not fit in 2 bits"):
            dataset_from_words([0, bad], 2)
    with pytest.raises(LengthOutOfRange):
        dataset_from_words([0], 65)
    with pytest.raises(EmptyDataset):
        dataset_from_words([], 3)
    with pytest.raises(ValueError, match="^word 5 does not fit in 2 bits$"):
        Dataset({1: 1, 5: 2}, 2)


# A pattern is its (word, length); these check it against the bits tuple it
# replaced as the stored value, over every route that builds one.


def reference_word(bits):
    return sum(bit << position for position, bit in enumerate(bits))


def every_route(bits):
    """The same pattern built by each public route."""
    text = "".join(map(str, bits))
    word, length = reference_word(bits), len(bits)
    return [
        BitPattern(tuple(bits)),
        BitPattern(bits=tuple(bits)),
        parse_pattern(text),
        parse_pattern(",".join(text), expected_length=length),
        BitPattern.from_word(word, length),
        next(iter(dataset_from_words([word], length))),
        next(iter(load_dataset([text]))),
    ]


bit_lists = st.lists(st.sampled_from([0, 1]), min_size=1, max_size=64)


@st.composite
def bit_list_pairs(draw):
    """Two bit lists: unrelated, equal, or one the other plus trailing zeros
    (equal words, different lengths, as "0" and "00")."""
    first = draw(bit_lists)
    kind = draw(st.sampled_from(["other", "same", "padded"]))
    if kind == "same":
        return first, list(first)
    if kind == "padded" and len(first) < 64:
        return first, first + [0] * draw(st.integers(1, 64 - len(first)))
    return first, draw(bit_lists)


@given(bit_list_pairs())
def test_pattern_agrees_with_its_bits_tuple(pair):
    first, second = pair
    for bits in (first, second):
        for pattern in every_route(bits):
            assert type(pattern) is BitPattern
            assert pattern.bits == tuple(bits)
            assert pattern.word == reference_word(bits)
            assert pattern.length == len(bits)
            assert str(pattern) == "".join(map(str, bits))
    same = tuple(first) == tuple(second)
    for a in every_route(first):
        for b in every_route(second):
            assert (a == b) is same
            assert (a != b) is (not same)
            assert (b in {a}) is same
            assert (b in {a.bits: a}.values()) is same
            if same:
                assert hash(a) == hash(b)


def test_equal_words_of_different_lengths_differ():
    short, long = parse_pattern("0"), parse_pattern("00")
    assert short.word == long.word == 0
    assert short != long
    assert len({short, long, BitPattern((0,)), BitPattern.from_word(0, 2)}) == 2
    assert parse_pattern("1") != object()
    assert parse_pattern("1") != 1


def test_bits_constructor_keeps_its_error_types():
    with pytest.raises(IllegalCharacter):
        BitPattern((0, 2))
    with pytest.raises(IllegalCharacter):
        BitPattern((1, -1, 0))
    with pytest.raises(LengthOutOfRange):
        BitPattern(())
    with pytest.raises(LengthOutOfRange):
        BitPattern((0,) * 65)
    assert BitPattern((1,) * 64).word == (1 << 64) - 1


@pytest.mark.parametrize("name", ["word", "length", "bits", "other"])
def test_pattern_and_dataset_refuse_assignment(name):
    pattern = parse_pattern("0110")
    dataset = load_dataset(["01", "11"])
    for target in (pattern, dataset):
        with pytest.raises(AttributeError):
            setattr(target, name, 1)
        with pytest.raises(AttributeError):
            delattr(target, name)
    assert pattern == parse_pattern("0110")
    assert dataset == load_dataset(["01", "11"])


@pytest.mark.parametrize("text", ["0", "00", "1" * 64, "0110"])
def test_pattern_copies_are_equal(text, copies):
    pattern = parse_pattern(text)
    for other in copies(pattern):
        assert type(other) is BitPattern
        assert other == pattern and hash(other) == hash(pattern)
        assert (other.bits, other.word, other.length) == (pattern.bits, pattern.word, pattern.length)


def test_dataset_copies_are_equal(copies):
    dataset = load_dataset(["11", "00", "11", "01"])
    for other in copies(dataset):
        assert type(other) is Dataset
        assert other == dataset and hash(other) == hash(dataset)
        assert other.counts == dataset.counts == {3: 2, 0: 1, 2: 1}
        assert (other.length, other.size) == (2, 4)
        assert tuple(other) == tuple(dataset)
        assert other.counts is not dataset.counts


def test_dataset_words_and_counts_cannot_be_changed():
    dataset = load_dataset(["01", "01", "11"])
    estimate = PmfEstimate.fit(dataset, "dirac")
    query = parse_pattern("01")
    with pytest.raises(TypeError):
        dataset.counts[query.word] = 3
    with pytest.raises(TypeError):
        del dataset.counts[query.word]
    with pytest.raises(AttributeError):
        dataset.counts.update({3: 5})
    # The count map is the only copy of the words; there is no second one.
    assert not hasattr(dataset, "words")
    assert estimate(query) == 2 / 3
    assert [str(pattern) for pattern in dataset] == ["01", "01", "11"]
    assert dataset.counts == {2: 2, 3: 1} and dataset.size == 3


def test_dataset_keeps_its_own_copy_of_the_words():
    words = [2, 2, 3]
    from_words = dataset_from_words(words, 2)
    counts = {2: 2, 3: 1}
    from_counts = Dataset(counts, 2)
    words[0] = 3
    words.append(1)
    counts[2] = 7
    counts[1] = 1
    for dataset in (from_words, from_counts):
        assert dataset.counts == {2: 2, 3: 1} and dataset.size == 3
        assert dataset == load_dataset(["01", "01", "11"])



@pytest.mark.parametrize(
    "counts, length, error, match",
    [
        ({}, 3, EmptyDataset, "at least one pattern"),
        ({0: 1}, 0, LengthOutOfRange, "outside 1..64"),
        ({0: 1}, 65, LengthOutOfRange, "outside 1..64"),
        ({0: 1}, 2.0, TypeError, "float"),
        ({0: 1, 4: 1}, 2, ValueError, "^word 4 does not fit in 2 bits$"),
        ({-1: 1, 1: 1}, 2, ValueError, "^word -1 does not fit in 2 bits$"),
        ({1 << 64: 1}, 64, ValueError, f"^word {1 << 64} does not fit in 64 bits$"),
        ({1.0: 1}, 2, TypeError, "float"),
        ({0: 1, 3: 0}, 2, ValueError, "^count 0 is not positive$"),
        ({0: 1, 2: -2}, 2, ValueError, "^count -2 is not positive$"),
        ({0: 1.5}, 2, TypeError, "float"),
        ({0: "1"}, 2, TypeError, "str"),
    ],
)
def test_dataset_from_counts_refuses_bad_input(counts, length, error, match):
    with pytest.raises(error, match=match):
        Dataset(counts, length)


@pytest.mark.parametrize(
    "build",
    [
        lambda: Dataset({1: 1}, 2.0),
        lambda: dataset_from_words([1], 2.0),
        lambda: BitPattern.from_word(1, 2.0),
        lambda: next(all_patterns(2.0)),
        lambda: bitspace.check_cap(2.0),
    ],
    ids=["Dataset", "dataset_from_words", "from_word", "all_patterns", "check_cap"],
)
def test_float_length_is_refused_as_not_an_integer(build):
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        build()


def test_from_word_takes_integer_words_only():
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        BitPattern.from_word(1.0, 2)
    for word in (np.uint64(3), np.int8(3)):
        pattern = BitPattern.from_word(word, 2)
        assert type(pattern.word) is int and pattern == BitPattern.from_word(3, 2)
    assert type(BitPattern.from_word(True, 2).word) is int


@pytest.mark.parametrize(
    "length, error", [(0, LengthOutOfRange), (65, LengthOutOfRange), (2.0, TypeError)]
)
def test_all_patterns_checks_its_length_on_the_call(length, error):
    # The call itself raises, before anything is iterated, as iter_basis does.
    with pytest.raises(error):
        all_patterns(length)


def test_numpy_length_is_stored_as_int():
    assert type(Dataset({1: 1}, np.int64(2)).length) is int
    assert type(dataset_from_words([1], np.uint8(2)).length) is int
    assert type(BitPattern.from_word(1, np.int64(2)).length) is int
    assert {type(pattern.length) for pattern in all_patterns(np.int64(2))} == {int}


def test_surrogateescape_handle_names_the_bad_line(tmp_path):
    path = tmp_path / "data.txt"
    path.write_bytes("# café\n01\n\u00a011\n".encode() + b"0\xe91\n")
    with open(path, encoding="utf-8", errors="surrogateescape") as handle:
        with pytest.raises(DiracPmfError, match="^line 4: byte 0xe9 is not UTF-8$"):
            load_dataset(handle)
    # Valid non-ASCII text, a comment and a no-break space, still loads.
    path.write_text("# café\n01\n\u00a011\n", encoding="utf-8")
    with open(path, encoding="utf-8", errors="surrogateescape") as handle:
        assert load_dataset(handle) == load_dataset(["01", "11"])


@pytest.mark.parametrize(
    "counts",
    [
        Counter([3, 0, 3]),
        MappingProxyType({3: 2, 0: 1}),
        {np.uint64(3): np.int64(2), np.uint8(0): True},
    ],
)
def test_dataset_from_counts_takes_any_mapping_of_ints(counts):
    dataset = Dataset(counts, 2)
    assert dataset == load_dataset(["11", "00", "11"]) and dataset.size == 3
    assert repr(dataset) == "Dataset(counts={3: 2, 0: 1}, length=2)"
    assert {type(value) for item in dataset.counts.items() for value in item} == {int}


@pytest.mark.parametrize(
    "counts, length",
    [
        ({0: 1}, 1),
        ({(1 << 64) - 1: 3, 0: 1}, 64),
        ({word: word % 7 + 1 for word in range(0, 1 << 16, 97)}, 16),
        ({5: 10**20}, 3),
    ],
)
def test_dataset_round_trips(counts, length, copies):
    dataset = Dataset(counts, length)
    assert dataset.size == sum(counts.values())
    for other in [*copies(dataset), eval(repr(dataset))]:
        assert type(other) is Dataset
        assert other == dataset and hash(other) == hash(dataset)
        assert (other.counts, other.length, other.size) == (counts, length, dataset.size)
        assert type(other.counts) is MappingProxyType
        if dataset.size < 10**6:
            assert list(other) == list(dataset)


@given(st.data())
def test_word_order_does_not_matter(data):
    length = data.draw(st.integers(1, 8))
    words = data.draw(st.lists(st.integers(0, (1 << length) - 1), min_size=1, max_size=30))
    shuffled = data.draw(st.permutations(words))
    dataset, permuted = dataset_from_words(words, length), dataset_from_words(shuffled, length)
    text = [format(word, f"0{length}b")[::-1] for word in shuffled]
    for other in (permuted, load_dataset(text)):
        assert other == dataset and hash(other) == hash(dataset)
        assert other.counts == dataset.counts == dict(Counter(words))
        assert other.size == dataset.size == len(words)
        assert list(other) == list(dataset)
    patterns = list(dataset)
    assert [pattern.word for pattern in patterns] == sorted(words)


def test_ingest_memory_does_not_grow_with_lines():
    # Only the count map outlives a line: at most 2^8 words here, however
    # many lines are read.
    def peak(lines):
        source = (format(index % 256, "08b") for index in range(lines))
        tracemalloc.start()
        try:
            dataset = load_dataset(source)
            return tracemalloc.get_traced_memory()[1], dataset
        finally:
            tracemalloc.stop()

    small, small_dataset = peak(2 * 10**3)
    large, large_dataset = peak(2 * 10**5)
    assert (small_dataset.size, large_dataset.size) == (2 * 10**3, 2 * 10**5)
    assert len(large_dataset.counts) == 256
    assert abs(large - small) <= 64 * 1024, (small, large)


# load_dataset counts raw lines a block at a time and parses each distinct
# line once; these hold it to a per-line reference loop.


def per_line_load(lines):
    """The per-line ingest loop: (counts, length), or the error it raises."""
    counts = {}
    length = None
    for line_number, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line[0] == "#":
            continue
        try:
            digits, word = bitspace._pack(line)
        except (EmptyInput, IllegalCharacter, LengthOutOfRange) as exc:
            raise type(exc)(f"line {line_number}: {exc}") from exc
        if len(digits) != length:
            if length is not None:
                raise RaggedLengths(
                    f"line {line_number}: pattern {line!r} has length "
                    f"{len(digits)}, expected {length}"
                )
            length = len(digits)
        counts[word] = counts.get(word, 0) + 1
    if length is None:
        raise EmptyDataset("no pattern lines in input")
    return counts, length


def ingest_outcome(load, lines):
    try:
        result = load(lines)
    except DiracPmfError as exc:
        return type(exc), str(exc)
    if isinstance(result, Dataset):
        return dict(result.counts), result.length, result.size
    counts, length = result
    return counts, length, sum(counts.values())


@st.composite
def lines_across_blocks(draw):
    """Up to three blocks of pattern lines in a few raw spellings, with bad,
    ragged, blank and comment lines drawn around the block edges."""
    block = bitspace._BLOCK_LINES
    length = draw(st.integers(1, 64))
    pool = draw(st.lists(st.text("01", min_size=length, max_size=length), min_size=1, max_size=4))
    spellings = [text + end for text in pool for end in ("", "\n", " \r\n")]
    spellings.append(" " + ",".join(pool[0]) + "\n")
    # A seeded Random, not st.randoms(): one integer shrinks fast.
    rng = random.Random(draw(st.integers(0, 2**32)))
    lines = rng.choices(spellings, k=draw(st.integers(0, 3 * block + 2)))
    odd = ["", " \n", "# 0x\n", "0x\n", "1" * (length + 1) + "\n", "1" * 65, ",,\n", "0b1\n"]
    for _ in range(draw(st.integers(0, 3)) if lines else 0):
        edge = draw(st.integers(0, 3)) * block + draw(st.integers(-2, 2))
        lines[min(max(edge, 0), len(lines) - 1)] = draw(st.sampled_from(odd))
    return lines


@settings(max_examples=60, deadline=None)
@given(lines_across_blocks(), st.sampled_from(["list", "generator", "StringIO"]))
def test_ingest_matches_the_per_line_loop(lines, kind):
    text = "".join(line if line.endswith("\n") else line + "\n" for line in lines)
    source = {
        "list": lambda: list(lines),
        "generator": lambda: (line for line in lines),
        "StringIO": lambda: io.StringIO(text),
    }[kind]
    expected = ingest_outcome(per_line_load, io.StringIO(text) if kind == "StringIO" else lines)
    assert ingest_outcome(load_dataset, source()) == expected


def _count_packs(monkeypatch):
    """Record every text load_dataset hands to _pack."""
    packed = []
    pack = bitspace._pack
    monkeypatch.setattr(bitspace, "_pack", lambda text: packed.append(text) or pack(text))
    return packed


def test_each_distinct_line_is_packed_once(monkeypatch):
    packed = _count_packs(monkeypatch)
    patterns = ["0110", " 1,0,0,1", "1111"]
    lines = (patterns[number % 3] for number in range(3000))
    dataset = load_dataset(lines)
    assert packed == ["0110", "1,0,0,1", "1111"]
    assert dataset.counts == {0b0110: 1000, 0b1001: 1000, 0b1111: 1000}
    assert dataset.size == 3000


def _count_block_packs(monkeypatch):
    """Record how many keys each call to _pack_block is handed."""
    sizes = []
    pack_block = bitspace._pack_block

    def spy(keys, length):
        sizes.append(len(keys))
        return pack_block(keys, length)

    monkeypatch.setattr(bitspace, "_pack_block", spy)
    return sizes


@pytest.mark.parametrize("ending", ["\n", "\r\n", " \n"])
def test_canonical_blocks_pack_in_bulk(monkeypatch, ending):
    packed = _count_packs(monkeypatch)
    block_sizes = _count_block_packs(monkeypatch)
    block = bitspace._BLOCK_LINES
    words = [(number * 2654435761) % (1 << 12) for number in range(3 * block + 5)]
    lines = [format(word, "012b")[::-1] + ending for word in words]
    dataset = load_dataset(lines)
    # One base-2 parse per block of distinct lines, and none per line.
    assert block_sizes == [block, block, block, 5]
    assert packed == []
    assert (dataset.counts, dataset.length, dataset.size) == (Counter(words), 12, len(words))


@pytest.mark.parametrize("length", [1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64])
def test_bulk_pack_matches_the_per_line_loop_at_each_item_width(monkeypatch, length):
    # Keys pack into items of 8, 16, 32 or 64 bits: these lengths sit at each
    # width's edges. Every block holds the all-zeros and the all-ones word,
    # in a spelling of its own, so each block packs them again.
    block = bitspace._BLOCK_LINES
    rng = random.Random(length)
    lines = []
    for ending in ("\n", "\r\n", " \n"):
        words = [0, (1 << length) - 1, *(rng.getrandbits(length) for _ in range(block - 2))]
        rng.shuffle(words)
        lines += [format(word, f"0{length}b")[::-1] + ending for word in words]
    packed = _count_packs(monkeypatch)
    dataset = load_dataset(lines)
    assert packed == []
    counts, _ = per_line_load(lines)
    assert (dataset.counts, list(dataset.counts), dataset.length, dataset.size) == (
        counts, list(counts), length, 3 * block)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="Python before 3.10.7 has no int-string limit")
def test_a_block_parse_is_exempt_from_the_int_string_limit(monkeypatch):
    # 1024 distinct 64-digit lines are one 65,536-digit base-2 parse. The
    # limit binds only bases that are not powers of two, so 640, its least
    # value, must not refuse the block.
    packed = _count_packs(monkeypatch)
    words = [(number * 0x9E3779B97F4A7C15) % (1 << 64) for number in range(bitspace._BLOCK_LINES)]
    lines = [format(word, "064b")[::-1] + "\n" for word in words]
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        dataset = load_dataset(lines)
    finally:
        sys.set_int_max_str_digits(limit)
    assert packed == []
    assert dataset.counts == dict.fromkeys(words, 1)
    assert (dataset.length, dataset.size) == (64, len(words))


def test_a_block_with_one_odd_line_falls_back_alone(monkeypatch):
    packed = _count_packs(monkeypatch)
    block = bitspace._BLOCK_LINES
    lines = [format(number, "012b") for number in range(3 * block)]
    lines[block + 7] = " " + ",".join(lines[block + 7])
    dataset = load_dataset(lines)
    # Only the second block's lines reach _pack, each stripped once.
    assert packed == [line.strip() for line in lines[block:2 * block]]
    assert dataset.counts == {int(line.replace(",", "")[::-1], 2): 1 for line in lines}
    assert (dataset.length, dataset.size) == (12, 3 * block)


def test_a_block_of_65_digit_lines_is_refused():
    # One length, digits alone, and still not a pattern: the bulk check holds L <= 64.
    with pytest.raises(LengthOutOfRange, match="^line 1: pattern length 65 exceeds 64$"):
        load_dataset(["1" * 65, "0" * 65 + "\n"])


@pytest.mark.parametrize("text", ["0101\n0011\n", b"0101\n0011\n"], ids=["str", "bytes"])
def test_one_string_is_refused_not_read_as_characters(text):
    with pytest.raises(TypeError, match=r"not one (str|bytes); pass text\.splitlines\(\)"):
        load_dataset(text)
    assert load_dataset(io.StringIO("0101\n0011\n")).length == 4


@pytest.mark.parametrize(
    "bad, error, message",
    [
        ("0x", IllegalCharacter, "illegal character 'x' in pattern '0x'"),
        ("011", RaggedLengths, "pattern '011' has length 3, expected 2"),
        ("0\udce91", DiracPmfError, "byte 0xe9 is not UTF-8"),
        ("1" * 65, LengthOutOfRange, "pattern length 65 exceeds 64"),
        # Non-ASCII digits of the right length: int() would read them, the bulk check must not.
        ("0\u0661", IllegalCharacter, "illegal character '\u0661' in pattern '0\u0661'"),
        ("0\uff10", IllegalCharacter, "illegal character '\uff10' in pattern '0\uff10'"),
    ],
)
def test_bad_line_past_the_second_block_keeps_its_number(bad, error, message):
    # Two blocks of canonical lines, in three spellings, go in bulk; the bad
    # line is the first, a middle or the last line of the third block.
    block = bitspace._BLOCK_LINES
    spellings = ["01\n", "10\r\n", "11 \n", "00"]
    for bad_number in (2 * block + 1, 2 * block + 17, 3 * block):
        bad_lines = {bad_number, bad_number + 23}
        lines = (
            bad if number in bad_lines else spellings[number % 4]
            for number in range(1, 3 * block + 30)
        )
        with pytest.raises(error, match=f"^line {bad_number}: {message}$"):
            load_dataset(lines)


@pytest.mark.parametrize("before", [6, 2 * bitspace._BLOCK_LINES + 6], ids=["first", "third"])
def test_a_last_line_without_its_newline_adds_to_its_word(before):
    # The bare last line and its earlier "...\n" spelling are two keys of one
    # word, in the first block or in the third.
    words = [(number * 2654435761) % (1 << 12) for number in range(before)]
    lines = [format(word, "012b")[::-1] + "\n" for word in words]
    for repeated in (lines[0], lines[-1], lines[-3]):
        with_newline = load_dataset([*lines, repeated])
        without = load_dataset([*lines, repeated.rstrip("\n")])
        assert (without.counts, without.size, without.length) == (
            with_newline.counts, with_newline.size, with_newline.length)
        assert without.counts == Counter([*words, int(repeated[::-1], 2)])
        assert without.size == before + 1
    # A comment, a blank line and the comma spelling of an earlier line are
    # more keys of known words: the sums keep the first-seen order of words.
    comma = ",".join(lines[1].strip()) + "\n"
    mixed = load_dataset([*lines, "# comment\n", "\n", comma])
    canonical = load_dataset([*lines, lines[1]])
    assert (mixed.counts, mixed.size, mixed.length, list(mixed.counts)) == (
        canonical.counts, canonical.size, canonical.length, list(canonical.counts))
