"""``tools/pair_bench.py``'s number format and table, on fixed runs; no benchmark runs."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import pair_bench  # noqa: E402

METRICS = [{"name": "wall_s", "better": "lower"}, {"name": "ops_per_s", "better": "higher"}]


def runs(pairs):
    return [{"wall_s": wall, "ops_per_s": ops} for wall, ops in pairs]


@pytest.mark.parametrize("value, text", [
    (999.95, "1,000"), (-999.96, "-1,000"), (999.94, "999.9"), (23422.4, "23,422"),
    (9.99951, "10.00"), (0.00099996, "0.001000"), (0.0012345, "0.001234"), (0.1542, "0.1542"),
    (1.0, "1.000"), (100.0, "100.0"), (0.0, "0.0"),
])
def test_fmt_prints_four_significant_digits_and_separates_thousands(value, text):
    assert pair_bench.fmt(value) == text


def test_table_prints_medians_quartiles_and_change():
    parent = runs([(0.15, 23000.0), (0.16, 22000.0), (0.14, 24000.0), (0.155, 23500.0)])
    change = runs([(0.15, 23500.0), (0.15, 22000.0), (0.145, 23000.0), (0.16, 24000.0)])
    assert pair_bench.table("trace-wide", METRICS, parent, change) == [
        "| workload | metric | parent | change | won |",
        "|---|---|---|---|---|",
        "| trace-wide | `wall_s` | 0.1525 [0.1475–0.1562] | 0.1500 [0.1487–0.1525] (−1.6%) | 1/4 |",
        "| trace-wide | `ops_per_s` | 23,250 [22,750–23,625] | 23,250 [22,750–23,625] (+0.0%) | 2/4 |",
    ]


def won(metric: dict, parent: list[dict], change: list[dict]) -> int:
    return int(pair_bench.table("w", [metric], parent, change)[-1].rsplit("| ", 1)[1].split("/")[0])


def test_a_tie_counts_for_neither_side_and_lower_and_higher_count_opposite_wins():
    parent = runs([(1.0, 1.0), (2.0, 2.0), (3.0, 3.0), (4.0, 4.0), (5.0, 5.0)])
    change = runs([(1.0, 1.0), (1.5, 1.5), (2.5, 2.5), (4.5, 4.5), (5.0, 5.0)])  # two ties, two lower, one higher
    for name in ("wall_s", "ops_per_s"):
        assert won({"name": name, "better": "lower"}, parent, change) == 2
        assert won({"name": name, "better": "higher"}, parent, change) == 1
        assert won({"name": name, "better": "lower"}, parent, parent) == 0
        assert won({"name": name, "better": "higher"}, parent, parent) == 0


def test_no_percent_when_the_parent_median_is_zero():
    parent = [{"zero": 0.0}, {"zero": 0.0}, {"zero": 1.0}]
    change = [{"zero": 0.5}, {"zero": 0.0}, {"zero": 0.0}]
    row = pair_bench.table("w", [{"name": "zero", "better": "lower"}], parent, change)[-1]
    assert row == "| w | `zero` | 0.0 [0.0–0.5000] | 0.0 [0.0–0.2500] | 1/3 |"
    assert "%" not in row


def test_pass_counts_prints_each_sides_median_number_of_passes():
    assert pair_bench.pass_counts([71, 71, 100], [85, 85, 116]) == \
        "untraced passes per run, median: parent 71, change 85"
    assert pair_bench.pass_counts([60, 61], [70, 80]) == "untraced passes per run, median: parent 60.5, change 75"
