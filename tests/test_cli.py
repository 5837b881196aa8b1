import json
import random

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from diracpmf import load_dataset, verify
from diracpmf.verify import estimate_coefficients
from diracpmf.cli import main


@pytest.fixture
def dataset_file(tmp_path):
    path = tmp_path / "data.txt"
    path.write_text("# sample\n01\n01\n11\n")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEstimate:
    def test_dirac(self, capsys, dataset_file):
        code, out, _ = run(
            capsys, "estimate", "--input", dataset_file, "--query", "01",
            "--method", "dirac",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload == {
            "L": 2, "N": 3, "method": "dirac", "query": "01",
            "p": 0.6666666666666666,
        }

    def test_expansion_unseen(self, capsys, dataset_file):
        code, out, _ = run(
            capsys, "estimate", "--input", dataset_file, "--query", "00",
            "--method", "expansion",
        )
        assert code == 0
        assert abs(json.loads(out)["p"]) <= 1e-12

    def test_fwht(self, capsys, dataset_file):
        code, out, _ = run(
            capsys, "estimate", "--input", dataset_file, "--query", "11",
            "--method", "fwht",
        )
        assert code == 0
        assert json.loads(out)["p"] == pytest.approx(1 / 3, abs=1e-12)

    def test_pretty_is_the_indented_dump(self, capsys, dataset_file):
        code, out, _ = run(capsys, "estimate", "--input", dataset_file, "--query", "01", "--pretty")
        assert code == 0
        payload = {"L": 2, "N": 3, "method": "dirac", "query": "01", "p": 2 / 3}
        assert out == json.dumps(payload, indent=2) + "\n"

    def test_length_mismatch_exits_one(self, capsys, dataset_file):
        code, out, err = run(
            capsys, "estimate", "--input", dataset_file, "--query", "0",
        )
        assert code == 1
        assert out == ""
        assert "LengthMismatch" in err
        assert "Traceback" not in err

    def test_missing_file_exits_one(self, capsys):
        code, _, err = run(
            capsys, "estimate", "--input", "/nonexistent/file", "--query", "0",
        )
        assert code == 1
        assert err


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["estimate", "--query", "01"],
             "diracpmf estimate: the following arguments are required: --input"),
            (["nosuch"], "diracpmf: argument command: invalid choice: 'nosuch'"),
            (["estimate", "--input", "data.txt", "--query", "-x"],
             "diracpmf estimate: argument --query: expected one argument"),
            (["bench", "--length", "4", "--samples", "x"],
             "diracpmf bench: argument --samples: invalid int value: 'x'"),
        ],
    )
    def test_exit_one_with_one_error_line(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: DiracPmfError: {message}")
        assert err.count("\n") == 1 and err.endswith("\n")

    def test_quoted_argument_stays_on_one_line(self, capsys):
        # argparse quotes "--=..." in an ambiguous-option message.
        code, out, err = run(capsys, "estimate", "--input", "data.txt", "--query", "--=\n")
        assert (code, out) == (1, "")
        assert err.startswith("error: DiracPmfError: ") and err.count("\n") == 1

    def test_help_still_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["estimate", "--help"])
        assert exit_info.value.code == 0
        assert "--query" in capsys.readouterr().out


@st.composite
def fuzz_case(draw):
    """File bytes and query text. Lines hold at most 12 bytes, so a file's
    L stays small enough for every method. Half the files are well-formed,
    patterns of one length among comments and blanks, so both exit codes
    occur; the others mix in arbitrary bytes."""
    length = draw(st.integers(1, 12))
    pattern = st.binary(min_size=length, max_size=length).map(
        lambda raw: bytes(b"01"[byte & 1] for byte in raw)
    )
    line = st.one_of(pattern, st.sampled_from([b"", b" \t", b"# 01x"]))
    if draw(st.booleans()):
        line = st.one_of(
            line,
            st.binary(max_size=12),
            st.lists(st.sampled_from(b"01, \t#-x\xff\xc3"), max_size=12).map(bytes),
        )
    ending = st.sampled_from([b"\n", b"\r\n", b"\r"])
    data = b"".join(draw(st.lists(st.tuples(line, ending), max_size=8).map(
        lambda pairs: [part for pair in pairs for part in pair]
    )))
    query = draw(st.one_of(pattern.map(bytes.decode), st.text(max_size=14)))
    return data, query


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(fuzz_case())
def test_estimate_ends_in_a_result_or_one_error_line(tmp_path, capsys, case):
    data, query = case
    path = tmp_path / "fuzz.txt"
    path.write_bytes(data)
    for method in ("expansion", "dirac", "fwht"):
        code, out, err = run(
            capsys, "estimate", "--input", str(path), "--query", query, "--method", method,
        )
        assert code in (0, 1)
        event(f"{method} exit {code}")
        if code == 0:
            assert err == "" and json.loads(out)["method"] == method
        else:
            assert out == ""
            assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
        assert "Traceback" not in err


class TestSpectrum:
    def test_dump(self, capsys, dataset_file):
        code, out, _ = run(capsys, "spectrum", "--input", dataset_file, "--pretty")
        assert code == 0
        payload = json.loads(out)
        assert payload["L"] == 2 and payload["N"] == 3
        entries = payload["spectrum"]
        assert [entry["mask"] for entry in entries] == [0, 1, 2, 3]
        assert [entry["order"] for entry in entries] == [0, 1, 1, 2]
        assert entries[0]["alpha"] == 0.25

    @pytest.mark.parametrize("flag", ["--json", "--pretty"])
    @pytest.mark.parametrize("length", [1, 10, 11])
    def test_bytes_match_one_dump_of_the_whole_payload(self, capsys, tmp_path, flag, length):
        rng = random.Random(length)
        lines = [format(rng.getrandbits(length), f"0{length}b") for _ in range(50)]
        path = tmp_path / "data.txt"
        path.write_text("\n".join(lines) + "\n")
        spectrum = estimate_coefficients(load_dataset(lines))
        entries = [
            {"mask": mask, "order": mask.bit_count(), "alpha": float(alpha)}
            for mask, alpha in enumerate(spectrum.coefficients)
        ]
        payload = {"L": length, "N": 50, "spectrum": entries}
        want = json.dumps(payload, indent=2 if flag == "--pretty" else None) + "\n"
        code, out, _ = run(capsys, "spectrum", "--input", str(path), flag)
        assert code == 0
        assert out == want


def _negate_first_of_column_5(real, mask, length):
    # The real view is read-only, so the change goes to a copy.
    column = real(mask, length).copy()
    if mask == 5:
        column[0] = -column[0]
    return column


class TestBasis:
    def test_table(self, capsys):
        code, out, _ = run(capsys, "basis", "--length", "2", "--check", "table")
        assert code == 0
        entries = json.loads(out)["entries"]
        assert len(entries) == 4
        assert sorted(entry["order"] for entry in entries) == [0, 1, 1, 2]

    def test_table_by_cardinality(self, capsys):
        code, out, _ = run(
            capsys, "basis", "--length", "2", "--ordering", "by_cardinality",
        )
        assert code == 0
        entries = json.loads(out)["entries"]
        assert [entry["order"] for entry in entries] == [0, 1, 1, 2]

    def test_orthogonality_pass(self, capsys):
        code, out, _ = run(capsys, "basis", "--length", "3", "--check", "orthogonality")
        assert code == 0
        payload = json.loads(out)
        assert payload["pass"] is True
        assert payload["pairs"] == 64

    @pytest.mark.parametrize(
        "length, column, violation",
        [
            # A zero vector breaks the diagonal: phi_0 . phi_0 sums to 0, not 4.
            (2, lambda real, mask, length: real(mask, length) * (mask != 0),
             {"i": 0, "k": 0, "sum": 0.0}),
            # phi_1 replaced by phi_0 breaks an off-diagonal pair.
            (2, lambda real, mask, length: real(mask & ~1, length),
             {"i": 0, "k": 1, "sum": 4.0}),
            # One flipped entry mid-matrix: phi_0 . phi_5 at L=3 sums to -2, not 0.
            (3, _negate_first_of_column_5, {"i": 0, "k": 5, "sum": -2.0}),
            # The last column is checked too: phi_3 replaced by phi_0.
            (2, lambda real, mask, length: real(mask % 3, length),
             {"i": 0, "k": 3, "sum": 4.0}),
        ],
        ids=["diagonal", "off-diagonal", "column-5", "last-column"],
    )
    def test_orthogonality_reports_true_sum(self, capsys, monkeypatch, length, column, violation):
        real = verify.sign_column
        monkeypatch.setattr(verify, "sign_column", lambda mask, length: column(real, mask, length))
        code, out, _ = run(capsys, "basis", "--length", str(length), "--check", "orthogonality")
        assert code == 2
        payload = json.loads(out)
        assert payload["pass"] is False
        assert payload["first_violation"] == violation

    @pytest.mark.parametrize("length", [1, 10, 11])
    @pytest.mark.parametrize("ordering", ["canonical", "by_cardinality"])
    @pytest.mark.parametrize("flag", ["--json", "--pretty"])
    def test_table_bytes_match_one_dump_of_the_whole_payload(self, capsys, flag, ordering, length):
        # The whole table, ordered by a sort rather than by the streaming generator.
        entries = []
        for mask in range(1 << length):
            members = [position + 1 for position in range(length) if mask >> position & 1]
            entries.append({"mask": mask, "order": len(members), "members": members})
        if ordering == "by_cardinality":
            entries.sort(key=lambda entry: (entry["order"], entry["members"]))
        payload = {"L": length, "ordering": ordering, "entries": entries}
        want = json.dumps(payload, indent=2 if flag == "--pretty" else None) + "\n"
        code, out, _ = run(
            capsys, "basis", "--length", str(length), "--ordering", ordering, flag
        )
        assert code == 0
        assert out == want

    def test_orthogonality_cap(self, capsys):
        code, _, err = run(capsys, "basis", "--length", "20", "--check", "orthogonality")
        assert code == 1
        assert "CapExceeded" in err


class TestLemma:
    def test_all_plus(self, capsys):
        code, out, _ = run(capsys, "lemma", "--length", "4", "--signs", "++++")
        assert code == 0
        payload = json.loads(out)
        assert payload["sum"] == 16 and payload["expected"] == 16

    def test_mixed(self, capsys):
        code, out, _ = run(capsys, "lemma", "--length", "4", "--signs", "+-+-")
        assert code == 0
        payload = json.loads(out)
        assert payload["sum"] == 0 and payload["expected"] == 0

    def test_exhaustive(self, capsys):
        code, out, _ = run(capsys, "lemma", "--length", "10")
        assert code == 0
        payload = json.loads(out)
        assert payload["all_pass"] is True
        assert payload["assignments"] == 1024

    @pytest.mark.parametrize("wrong_mask", [0, 15], ids=["first", "last"])
    def test_exhaustive_wrong_sum_exits_two(self, capsys, monkeypatch, wrong_mask):
        real, calls = verify.lemma1_sum, []

        def wrong_once(assignment):
            calls.append(assignment)
            mask = sum(1 << p for p, value in enumerate(assignment.values) if value == -1)
            return real(assignment) + (mask == wrong_mask)

        monkeypatch.setattr(verify, "lemma1_sum", wrong_once)
        code, out, _ = run(capsys, "lemma", "--length", "4")
        assert code == 2
        assert json.loads(out) == {"L": 4, "assignments": 16, "all_pass": False}
        # The walk stops at the first wrong sum.
        assert len(calls) == wrong_mask + 1

    def test_signs_wrong_sum_exits_two(self, capsys, monkeypatch):
        monkeypatch.setattr(verify, "lemma1_sum", lambda assignment: 1)
        code, out, _ = run(capsys, "lemma", "--length", "3", "--signs", "+-+")
        assert code == 2
        assert json.loads(out) == {"L": 3, "signs": "+-+", "sum": 1, "expected": 0, "pass": False}

    def test_bad_signs(self, capsys):
        code, _, err = run(capsys, "lemma", "--length", "3", "--signs", "+0-")
        assert code == 1
        assert err

    def test_wrong_sign_length(self, capsys):
        code, _, err = run(capsys, "lemma", "--length", "3", "--signs", "+-")
        assert code == 1
        assert err


class TestBench:
    def test_small_run_agrees(self, capsys):
        code, out, _ = run(
            capsys, "bench", "--length", "4", "--samples", "30",
            "--queries", "25", "--seed", "7",
        )
        assert code == 0
        report = json.loads(out)["reports"][0]
        assert report["agreement"] is True
        assert report["speedup_expansion_over_dirac"] > 0
        for method in ("expansion", "dirac", "fwht"):
            assert report["methods"][method]["build_s"] >= 0
            assert report["methods"][method]["per_query_s"] >= 0

    def test_deterministic_structure(self, capsys):
        args = ("bench", "--length", "3,5", "--samples", "10", "--queries", "5",
                "--seed", "42")
        code, out, _ = run(capsys, *args)
        assert code == 0
        assert [r["L"] for r in json.loads(out)["reports"]] == [3, 5]

    def test_zero_queries(self, capsys):
        code, out, _ = run(
            capsys, "bench", "--length", "4", "--samples", "10", "--queries", "0",
        )
        assert code == 0
        report = json.loads(out)["reports"][0]
        assert report["agreement"] is True
        assert "per_query_s" not in report["methods"]["dirac"]
        assert "speedup_expansion_over_dirac" not in report

    def test_nan_answer_disagrees(self, capsys, monkeypatch):
        monkeypatch.setattr(verify, "_read_table", lambda table, query: float("nan"))
        code, out, err = run(
            capsys, "bench", "--length", "4", "--samples", "30",
            "--queries", "25", "--seed", "7",
        )
        assert code == 2
        assert json.loads(out)["reports"][0]["agreement"] is False
        assert err == "error: estimation paths disagree\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            pytest.param(["--length", "4", flag, "-1"],
                         f"DiracPmfError: {flag} must be >= 0, got -1", id=flag)
            for flag in ("--samples", "--queries")
        ] + [
            pytest.param([f"--length={length}"], message, id=f"--length={length}")
            for length, message in [
                ("-1", "LengthOutOfRange: pattern length -1 outside 1..64"),
                ("0", "LengthOutOfRange: pattern length 0 outside 1..64"),
                ("65", "LengthOutOfRange: pattern length 65 outside 1..64"),
                ("25", "CapExceeded: 2^25 terms requested, at most 2^24 allowed"),
                # The L=30 cell is refused before the L=4 one runs.
                ("4,30", "CapExceeded: 2^30 terms requested, at most 2^24 allowed"),
            ]
        ],
    )
    def test_negative_counts_exit_one(self, capsys, monkeypatch, argv, message):
        """A negative count or a length bench cannot run exits 1 with one line, fitting nothing."""

        def no_fit(*args):
            raise AssertionError("fitted before the arguments were checked")

        monkeypatch.setattr("diracpmf.cli.PmfEstimate.fit", no_fit)
        code, out, err = run(capsys, "bench", *argv)
        assert code == 1
        assert out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("length", [20, 21])
    def test_expansion_skipped_above_cap(self, capsys, length):
        # L=20 is the cap itself, so expansion is still timed there.
        code, out, _ = run(
            capsys, "bench", "--length", str(length), "--samples", "5", "--queries", "3",
        )
        assert code == 0
        report = json.loads(out)["reports"][0]
        if length == 20:
            assert "per_query_s" in report["methods"]["expansion"]
            assert report["notes"] == []
        else:
            assert "expansion" not in report["methods"]
            assert report["notes"] == ["expansion skipped: L=21 exceeds cap 20"]
        assert report["agreement"] is True
