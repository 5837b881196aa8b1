import io
from array import array
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from diracpmf import (
    BitPattern,
    Dataset,
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
    assert [pattern.bits for pattern in dataset] == expected
    words = [sum(bit << position for position, bit in enumerate(bits)) for bits in expected]
    assert list(dataset.words) == words
    assert dataset.counts == dict(Counter(words))
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
    assert list(dataset.words) == [(1 << 64) - 1]
    assert tuple(dataset) == (pattern,)
    assert tuple(dataset_from_words([(1 << 64) - 1], 64)) == (pattern,)
    assert BitPattern.from_word(pattern.word, 64) == pattern


def test_patterns_keep_input_order():
    lines = ["11", "00", "11", "01"]
    dataset = load_dataset(lines)
    assert [str(pattern) for pattern in dataset] == lines
    assert tuple(dataset_from_words([3, 0, 3, 2], 2)) == tuple(dataset)


def test_equal_datasets_hash_equal():
    dataset = load_dataset(["11", "00", "01"])
    assert dataset == dataset_from_words([3, 0, 2], 2)
    assert hash(dataset) == hash(dataset_from_words([3, 0, 2], 2))
    assert dataset != dataset_from_words([0, 3, 2], 2)


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
    with pytest.raises(ValueError, match="does not fit in 2 bits"):
        Dataset(array("Q", [1, 5]), 2)


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
        assert other.counts == dataset.counts
        assert (other.length, other.size, list(other.words)) == (2, 4, [3, 0, 3, 2])
        assert tuple(other) == tuple(dataset)


def test_dataset_words_and_counts_cannot_be_changed():
    dataset = load_dataset(["01", "01", "11"])
    estimate = PmfEstimate.fit(dataset, "dirac")
    query = parse_pattern("01")
    with pytest.raises(TypeError):
        dataset.counts[query.word] = 3
    with pytest.raises(TypeError):
        del dataset.counts[query.word]
    with pytest.raises(TypeError):
        dataset.words[0] = 3
    assert estimate(query) == 2 / 3
    assert list(dataset.words) == [2, 2, 3]
    assert dataset.counts == {2: 2, 3: 1}


def test_dataset_keeps_its_own_copy_of_the_words():
    words = array("Q", [2, 2, 3])
    dataset = Dataset(words, 2)
    words[0] = 3
    words.append(1)
    assert list(dataset.words) == [2, 2, 3]
    assert dataset.counts == {2: 2, 3: 1}
    assert dataset == load_dataset(["01", "01", "11"])
