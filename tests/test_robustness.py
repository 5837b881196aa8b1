import random
import tracemalloc

import pytest

from diracpmf import BitPattern, verify
from diracpmf.verify import BasisIndex, eval_basis, sign_row
from diracpmf.cli import main


@pytest.mark.parametrize(
    "command", [["estimate", "--query", "01"], ["spectrum"]], ids=["estimate", "spectrum"]
)
@pytest.mark.parametrize(
    "data, line",
    [
        (b"\xff01\n11\n", 1),
        # Far past the decoder's first read-ahead chunk.
        (b"01\n" * 5000 + b"1\xe90\n", 5001),
        # A lone CR ends a line in text mode, as load_dataset counts lines.
        (b"01\r01\r1\xff\r", 3),
        # Comments are checked too, though they are never parsed.
        (b"01\n# caf\xe9\n11\n", 2),
    ],
    ids=["first-byte", "past-first-chunk", "cr-line-ends", "bad-byte-in-comment"],
)
def test_non_utf8_byte_exits_one_naming_its_line(capsys, tmp_path, command, data, line):
    path = tmp_path / "data.txt"
    path.write_bytes(data)
    code = main([command[0], "--input", str(path), *command[1:]])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert f"error: DiracPmfError: line {line}: byte 0x" in captured.err
    assert "not UTF-8" in captured.err


@pytest.mark.parametrize(
    "command", [["estimate", "--query", "01"], ["spectrum"]], ids=["estimate", "spectrum"]
)
def test_first_bad_line_is_reported(capsys, tmp_path, command):
    # The bad byte lies past the decoder's first read-ahead chunk; the bad pattern comes first.
    path = tmp_path / "data.txt"
    path.write_bytes(b"01\n11\n0x\n" + b"01\n" * 796 + b"1\xff\n")
    code = main([command[0], "--input", str(path), *command[1:]])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == (
        "error: IllegalCharacter: line 3: illegal character 'x' in pattern '0x'\n"
    )


def test_bench_length_not_integers_exits_one(capsys):
    code = main(["bench", "--length", "abc"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "--length must be comma-separated integers" in captured.err


def test_sign_vectors_leave_no_array_behind():
    tracemalloc.start()
    try:
        sign_row(0, 12)
        row = sign_row(0b1011, 20)
        pattern = BitPattern.from_word(0b1011, 20)
        rng = random.Random(5)
        for mask in [0, (1 << 20) - 1] + [rng.getrandbits(20) for _ in range(50)]:
            assert row[mask] == eval_basis(BasisIndex(mask, 20), pattern)
        del row
        held = tracemalloc.take_snapshot().filter_traces(
            [tracemalloc.Filter(True, verify.__file__)]
        )
    finally:
        tracemalloc.stop()
    # A cache of index ranges or rows would still hold its bytes here.
    assert sum(trace.size for trace in held.traces) == 0
