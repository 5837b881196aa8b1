"""One enumeration limit: no call walks more than 2^24 terms, and a refusal
comes before the walk's first 2^L allocation."""
import contextlib
import inspect
import os
import random
import subprocess
import sys
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
    "sign_row": lambda length: verify.sign_row(0, length),
    "sign_column": lambda length: verify.sign_column(0, length),
    "sign_bytes": lambda length: verify.sign_bytes(0, length),
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


@pytest.mark.parametrize("name", ["sign_row", "sign_column", "sign_bytes", "sign_bits"])
def test_sign_vector_at_l40_is_refused_before_allocating(name):
    tracemalloc.start()
    try:
        with pytest.raises(CapExceeded, match=r"2\^40 terms requested"):
            WALKS[name](40)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize(
    "argv", [["basis", "--check", "orthogonality"], ["lemma"]], ids=["orthogonality", "lemma"]
)
def test_pairwise_cli_checks_accept_l12_and_refuse_l13(capsys, stop_after_check, argv):
    with pytest.raises(Accepted):
        main([*argv, "--length", "12"])
    code = main([*argv, "--length", "13"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "error: CapExceeded: 2^26 terms requested, at most 2^24 allowed" in captured.err


def test_fwht_estimate_on_l40_file_exits_one_without_traceback(capsys, tmp_path):
    path = tmp_path / "wide.txt"
    path.write_text("01" * 20 + "\n")
    code = main(["estimate", "--input", str(path), "--query", "0" * 40, "--method", "fwht"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: CapExceeded: 2^40 terms requested")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("flag", ["--json", "--pretty"])
def test_spectrum_writes_its_entries_without_holding_them(tmp_path, flag):
    rng = random.Random(16)
    path = tmp_path / "l16.txt"
    path.write_text("".join(f"{rng.getrandbits(16):016b}\n" for _ in range(200)))
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        tracemalloc.start()
        try:
            code = main(["spectrum", "--input", str(path), flag])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert code == 0
    # The fit's two float64 vectors of 2^16 take 1 MB; a list of all 2^16
    # entry dicts would take ~25 MB more.
    assert peak < 8 << 20


@pytest.mark.parametrize("ordering", ["canonical", "by_cardinality"])
def test_basis_table_writes_its_entries_without_holding_them(ordering):
    # --json only: --pretty streams through the same writer, and tracing the
    # pure-Python indenting encoder would take tens of seconds at L=16.
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        tracemalloc.start()
        try:
            code = main(["basis", "--length", "16", "--ordering", ordering, "--json"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert code == 0
    # 1024 entries at a time take ~3 MB; all 2^16 entry dicts and the whole
    # JSON text would take ~30 MB more.
    assert peak < 8 << 20


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
    measured = (
        "import resource\n"
        "from diracpmf.cli import main\n"
        "status = main(['basis', '--length', '12', '--check', 'orthogonality'])\n"
        "print(status, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
    )
    # ru_maxrss also counts the image a process replaced at exec, here the
    # forking process; so the command runs from a small launcher, not
    # straight from this large test process.
    launcher = (
        "import subprocess, sys\n"
        f"sys.exit(subprocess.run([sys.executable, '-c', {measured!r}]).returncode)\n"
    )
    source = os.path.dirname(os.path.dirname(diracpmf.__file__))
    path = os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", launcher], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=300, check=True,
    )
    report, status = proc.stdout.splitlines()
    assert report == '{"L": 12, "check": "orthogonality", "pairs": 16777216, "pass": true}'
    exit_code, max_rss_kb = status.split()
    assert exit_code == "0"
    assert int(max_rss_kb) < 64 << 10
