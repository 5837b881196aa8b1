"""tools/bench_record.py's summary and verdicts, on synthetic pairs of runs."""
import importlib.util
from pathlib import Path

import pytest

SPEC = importlib.util.spec_from_file_location(
    "bench_record", Path(__file__).resolve().parents[1] / "tools" / "bench_record.py"
)
bench_record = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_record)

DECLARED = [
    {"name": "query_us_p95", "unit": "us", "better": "lower", "bound": 0.2},
    {"name": "success_ratio", "unit": "ratio", "better": "higher", "bound": 0.01},
]


def pairs(parent: list[float], change: list[float], name: str = "query_us_p95") -> list[dict]:
    """Runs as bench_record keeps them: per pair, each side's result metrics."""
    def side(value):
        return {"result": {"metrics": {name: {"value": value, "unit": "us"}}}}
    return [{"parent": side(p), "change": side(c)} for p, c in zip(parent, change)]


def summary(parent, change, name="query_us_p95"):
    declared = [metric for metric in DECLARED if metric["name"] == name]
    return bench_record.summarise(pairs(parent, change, name), declared)[name]


PARENT = [10.0, 10.2, 9.8, 10.1, 9.9, 10.3, 9.7, 10.0, 10.4, 9.6]


def test_summary_keeps_every_field_and_adds_the_bound_and_verdict():
    entry = summary(PARENT, PARENT)
    assert entry["unit"] == "us" and entry["better"] == "lower"
    assert entry["parent"]["median"] == 10.0
    assert entry["parent"]["values"] == PARENT
    assert len(entry["parent"]["quartiles"]) == 3
    assert entry["change_wins"] == 0  # ties count for neither side
    assert entry["pairs"] == 10
    assert entry["bound"] == 0.2
    assert entry["verdict"] == "within bound"


def test_gain_needs_nine_wins_of_ten_and_a_gap_past_the_parents_quartile_spread():
    low, _, high = summary(PARENT, PARENT)["parent"]["quartiles"]
    assert high - low == pytest.approx(0.45)
    assert summary(PARENT, [value - 1.0 for value in PARENT])["verdict"] == "gain"
    # Nine wins of ten still gain; eight do not.
    nine = [value - 1.0 for value in PARENT[:9]] + [PARENT[9] + 1.0]
    assert summary(PARENT, nine)["change_wins"] == 9
    assert summary(PARENT, nine)["verdict"] == "gain"
    eight = [value - 1.0 for value in PARENT[:8]] + [value + 1.0 for value in PARENT[8:]]
    assert summary(PARENT, eight)["verdict"] == "within bound"
    # Ten wins by less than the spread are no gain either.
    assert summary(PARENT, [value - 0.1 for value in PARENT])["verdict"] == "within bound"


def test_worse_is_a_median_past_the_bound():
    assert summary(PARENT, [value * 1.19 for value in PARENT])["verdict"] == "within bound"
    assert summary(PARENT, [value * 1.21 for value in PARENT])["verdict"] == "worse"


def test_a_higher_is_better_metric_reads_its_direction():
    parent = [0.99, 1.0, 0.98, 1.0, 0.99, 1.0, 0.97, 1.0, 0.99, 1.0]
    assert summary(parent, [1.0] * 10, "success_ratio")["change_wins"] == 5
    assert summary(parent, [0.95] * 10, "success_ratio")["verdict"] == "worse"
    assert summary(parent, [0.99] * 10, "success_ratio")["verdict"] == "within bound"


def test_verdict_table_lists_each_metric():
    workloads = {"verify-L14": {"metrics": {"query_us_p95": summary(PARENT, PARENT)}}}
    table = bench_record.verdict_table(workloads).splitlines()
    assert table[0].split() == ["workload", "metric", "parent", "change", "delta", "wins",
                                "verdict"]
    assert table[1].split() == ["verify-L14", "query_us_p95", "10", "10", "+0.0%", "0/10",
                                "within", "bound"]
