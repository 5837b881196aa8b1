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
    IndexOutOfRange,
    LengthMismatch,
    LengthOutOfRange,
    RaggedLengths,
    all_patterns,
    dataset_from_words,
    load_dataset,
    parse_pattern,
    render_pattern,
    signed_value,
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
        assert signed_value(pattern, 1) == 1
        assert signed_value(pattern, 2) == -1


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


class TestSignedValue:
    @pytest.mark.parametrize(
        "text,index,expected",
        [("0", 1, -1), ("1", 1, 1), ("101", 2, -1), ("101", 3, 1)],
    )
    def test_examples(self, text, index, expected):
        assert signed_value(parse_pattern(text), index) == expected

    def test_index_out_of_range(self):
        pattern = parse_pattern("10")
        for bad in (0, 3, -1):
            with pytest.raises(IndexOutOfRange):
                signed_value(pattern, bad)

    def test_range_exhaustive_small(self):
        for length in range(1, 6):
            for pattern in all_patterns(length):
                assert all(
                    signed_value(pattern, l) in (-1, 1)
                    for l in range(1, length + 1)
                )


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
    assert [pattern.bits for pattern in dataset.patterns] == expected
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
    assert dataset.patterns == (pattern,)
    assert dataset_from_words([(1 << 64) - 1], 64).patterns == (pattern,)
    assert BitPattern.from_word(pattern.word, 64) == pattern


def test_patterns_keep_input_order():
    lines = ["11", "00", "11", "01"]
    dataset = load_dataset(lines)
    assert [str(pattern) for pattern in dataset.patterns] == lines
    assert [str(pattern) for pattern in dataset] == lines
    assert dataset_from_words([3, 0, 3, 2], 2).patterns == dataset.patterns


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
