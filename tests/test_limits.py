"""One enumeration limit: no call walks more than 2^24 terms, and a refusal
comes before the walk's first 2^L allocation."""
import inspect
import os
import random
import subprocess
import sys
import tempfile
import tracemalloc

import numpy as np
import pytest

import diracpmf
from diracpmf import (
    BitPattern,
    CapExceeded,
    PmfEstimate,
    bitspace,
    cli,
    dataset_from_words,
    estimators,
    verify,
)
from diracpmf.cli import main
from diracpmf.verify import (
    BasisIndex,
    SignAssignment,
    estimate_coefficients,
    estimate_fwht,
    fast_transform,
    frequency_vector,
    iter_basis,
    kernel_sum,
    lemma1_sum,
    orthogonality_sum,
)

REFUSED_25 = r"2\^25 terms requested, at most 2\^24 allowed"


def one_word(length):
    return dataset_from_words([0], length)


#: Every public 2^L walk, called at L.
WALKS = {
    "iter_basis": lambda length: iter_basis(length),
    "orthogonality_sum": lambda length: orthogonality_sum(
        BasisIndex(0, length), BasisIndex(0, length)
    ),
    "lemma1_sum": lambda length: lemma1_sum(SignAssignment((1,) * length)),
    "kernel_sum": lambda length: kernel_sum(*[BitPattern.from_word(0, length)] * 2),
    "estimate_coefficients": lambda length: estimate_coefficients(one_word(length)),
    "fast_transform": lambda length: fast_transform(np.broadcast_to(0.0, 1 << length)),
    "frequency_vector": lambda length: frequency_vector(one_word(length)),
    "estimate_fwht": lambda length: estimate_fwht(
        one_word(length), BitPattern.from_word(0, length)
    ),
    "fit-expansion": lambda length: PmfEstimate.fit(one_word(length), "expansion"),
    "fit-fwht": lambda length: PmfEstimate.fit(one_word(length), "fwht"),
    "sign_column": lambda length: verify.sign_column(0, length),
    "sign_bits": lambda length: verify.sign_bits(0, length),
}


class Accepted(Exception):
    """Raised by the stand-in check_cap once the real check has passed."""


@pytest.fixture
def stop_after_check(monkeypatch):
    """Run every caller's check_cap for real, then stop the call before it walks."""
    def check_then_stop(length):
        bitspace.check_cap(length)
        raise Accepted
    for module in (cli, verify):
        monkeypatch.setattr(module, "check_cap", check_then_stop)


@pytest.mark.parametrize("name", WALKS)
def test_walk_accepts_l24_and_refuses_l25(stop_after_check, name):
    with pytest.raises(Accepted):
        WALKS[name](24)
    with pytest.raises(CapExceeded, match=REFUSED_25):
        WALKS[name](25)


@pytest.mark.parametrize("name", WALKS)
def test_refusal_allocates_nothing(name):
    tracemalloc.start()
    try:
        with pytest.raises(CapExceeded, match=REFUSED_25):
            WALKS[name](25)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("name", ["sign_column", "sign_bits"])
def test_sign_vector_at_l40_is_refused_before_allocating(name):
    tracemalloc.start()
    try:
        with pytest.raises(CapExceeded, match=r"2\^40 terms requested"):
            WALKS[name](40)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


#: The 4^L CLI checks, which pass 2L to check_cap.
PAIRWISE_CHECKS = pytest.mark.parametrize(
    "argv", [["basis", "--check", "orthogonality"], ["lemma"]], ids=["orthogonality", "lemma"]
)


@PAIRWISE_CHECKS
def test_pairwise_cli_checks_accept_l12_and_refuse_l13(capsys, stop_after_check, argv):
    with pytest.raises(Accepted):
        main([*argv, "--length", "12"])
    code = main([*argv, "--length", "13"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "error: CapExceeded: 2^26 terms requested, at most 2^24 allowed" in captured.err


@pytest.mark.parametrize(
    "argv", [["basis", "--check", "orthogonality"], ["lemma"], ["basis", "--check", "table"]],
    ids=["orthogonality", "lemma", "table"],
)
@pytest.mark.parametrize("length", [-1, 0, 65])
def test_pairwise_cli_checks_name_the_given_length(capsys, argv, length):
    # The length is checked before it is doubled or walked, so the message names what was typed.
    code = main([*argv, "--length", str(length)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"error: LengthOutOfRange: pattern length {length} outside 1..64\n"


def test_fwht_estimate_on_l40_file_exits_one_without_traceback(capsys, tmp_path):
    path = tmp_path / "wide.txt"
    path.write_text("01" * 20 + "\n")
    code = main(["estimate", "--input", str(path), "--query", "0" * 40, "--method", "fwht"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: CapExceeded: 2^40 terms requested")
    assert "Traceback" not in captured.err


def run_cli(*argvs):
    """Run diracpmf.cli.main(argv) for each argv in its own fresh child, side by side.

    Returns one (exit code, stdout, peak RSS in KiB) per argv. The child
    writes the command's stdout to a file: a pipe's reader or a StringIO
    holding it would itself raise the RSS being measured.
    """
    source = os.path.dirname(os.path.dirname(diracpmf.__file__))
    path = os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))
    children = []
    try:
        for argv in argvs:
            measured = (
                "import resource, sys\n"
                "from diracpmf.cli import main\n"
                f"status = main({list(argv)!r})\n"
                "sys.stdout.flush()\n"
                "print(status, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr)\n"
            )
            # ru_maxrss also counts the image a process replaced at exec, here the
            # forking process; so the command runs from a small launcher, not
            # straight from this large test process. The launcher needs no site (-S).
            launcher = (
                "import subprocess, sys\n"
                f"sys.exit(subprocess.run([sys.executable, '-c', {measured!r}]).returncode)\n"
            )
            out = tempfile.TemporaryFile("w+")
            children.append((out, subprocess.Popen(
                [sys.executable, "-S", "-c", launcher], env=dict(os.environ, PYTHONPATH=path),
                stdout=out, stderr=subprocess.PIPE, text=True,
            )))
        results = []
        for out, child in children:
            err = child.communicate(timeout=300)[1]
            assert child.returncode == 0, err
            status, max_rss_kb = err.splitlines()[-1].split()
            out.seek(0)
            results.append((int(status), out.read(), int(max_rss_kb)))
        return results
    finally:
        for out, child in children:
            child.kill()
            out.close()


def words_file(directory, length):
    """200 random words of the given length, one a line."""
    rng = random.Random(16)
    path = directory / f"l{length}.txt"
    path.write_text("".join(f"{rng.getrandbits(length):0{length}b}\n" for _ in range(200)))
    return str(path)


def assert_streams(argv_at):
    """The command argv_at(16) writes its 2^16 entries in under 8 MiB more
    peak RSS than the same command at L=1."""
    (code, out, peak), (base_code, _, base_peak) = run_cli(argv_at(16), argv_at(1))
    assert code == base_code == 0
    assert out.count('"mask": ') == 1 << 16
    assert peak - base_peak < 8 << 10


@pytest.mark.parametrize("flag", ["--json", "--pretty"])
def test_spectrum_writes_its_entries_without_holding_them(tmp_path, flag):
    # The fit's two float64 vectors of 2^16 take 1 MB. A writer holding every
    # entry grew the peak by 26 MiB (--json) and 68 MiB (--pretty).
    inputs = {length: words_file(tmp_path, length) for length in (1, 16)}
    assert_streams(lambda length: ["spectrum", "--input", inputs[length], flag])


@pytest.mark.parametrize(
    "ordering, flag",
    [("canonical", "--json"), ("by_cardinality", "--json"), ("canonical", "--pretty")],
    ids=["canonical", "by_cardinality", "canonical-pretty"],
)
def test_basis_table_writes_its_entries_without_holding_them(ordering, flag):
    # 1024 entries at a time take ~3 MB. A writer holding every entry grew
    # the peak by 35 MiB (--json) and 116 MiB (--pretty).
    assert_streams(lambda length: [
        "basis", "--length", str(length), "--ordering", ordering, flag,
    ])


def test_no_function_takes_a_cap():
    modules = (diracpmf, estimators, verify)
    routines = []
    for module in modules:
        for name in dir(module):
            obj = getattr(module, name)
            if inspect.isclass(obj):
                routines += [member for _, member in inspect.getmembers(obj, inspect.isfunction)]
                routines += [member for _, member in inspect.getmembers(obj, inspect.ismethod)]
            elif inspect.isfunction(obj):
                routines.append(obj)
    assert routines
    assert [
        routine.__qualname__ for routine in routines
        if "cap" in inspect.signature(routine).parameters
    ] == []


def test_one_enumeration_constant():
    modules = (diracpmf, bitspace, cli, estimators, verify)
    caps = {name for module in modules for name in dir(module) if name.endswith("_CAP")}
    assert caps == {"EXHAUSTIVE_CAP", "BENCH_EXPANSION_CAP"}
    assert diracpmf.EXHAUSTIVE_CAP == 24


def test_orthogonality_check_at_l12_stays_under_64_mb():
    # The command reports its own peak RSS, so nothing else this process ran
    # counts. All 2^12 x 2^12 signs and their Gram product in float64 peaked
    # near 300 MB; one sign column and its float64 transform at a time stay
    # under 64 MB.
    [(code, report, max_rss_kb)] = run_cli(["basis", "--length", "12", "--check", "orthogonality"])
    assert report == '{"L": 12, "check": "orthogonality", "pairs": 16777216, "pass": true}\n'
    assert code == 0
    assert max_rss_kb < 64 << 10
