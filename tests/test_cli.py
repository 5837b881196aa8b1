import json
import random

import pytest

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
        "column, violation",
        [
            # A zero vector breaks the diagonal: phi_0 . phi_0 sums to 0, not 4.
            (lambda real, mask, length: real(mask, length) * (mask != 0),
             {"i": 0, "k": 0, "sum": 0.0}),
            # phi_1 replaced by phi_0 breaks an off-diagonal pair.
            (lambda real, mask, length: real(mask & ~1, length),
             {"i": 0, "k": 1, "sum": 4.0}),
        ],
        ids=["diagonal", "off-diagonal"],
    )
    def test_orthogonality_reports_true_sum(self, capsys, monkeypatch, column, violation):
        real = verify.sign_column
        monkeypatch.setattr(verify, "sign_column", lambda mask, length: column(real, mask, length))
        code, out, _ = run(capsys, "basis", "--length", "2", "--check", "orthogonality")
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

    def test_expansion_skipped_above_cap(self, capsys):
        code, out, _ = run(
            capsys, "bench", "--length", "22", "--samples", "5", "--queries", "3",
        )
        assert code == 0
        report = json.loads(out)["reports"][0]
        assert "expansion" not in report["methods"]
        assert any("expansion skipped" in note for note in report["notes"])
        assert report["agreement"] is True
