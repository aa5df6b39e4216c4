"""Compare two checkouts on one benchmark workload in alternating pairs of runs.

    python3 tools/pair_bench.py --parent ../base --workload solve-grid --pairs 10 --seed 2201

Each pair runs ``perfbench/run.py --workload W --seed S --trace 0`` once in
the parent checkout and once in the checkout this script sits in, the change,
with the same seed; pair k uses seed S + k.  Runs are as long as
``tools/bench_json.py`` makes them: ``BENCHMARK.json``'s ``run_seconds``.
The side that runs first swaps from one pair to the next, so a host that
drifts over a pair does not always favour the same side.  Every run must
read ``correct`` with no failed operations; otherwise the script stops and
exits with status 1.

For each end-to-end metric in ``BENCHMARK.json`` it prints one Markdown table
row: the parent's median with its quartiles, the change's median with its
quartiles and its difference from the parent's median in percent, and the
number of pairs in which the change's value was better (lower or higher, as
``BENCHMARK.json`` says).  Below the table it prints each side's median
number of untraced passes per run: the harness keeps every operation's time,
so a side that completes more passes in a run reads a higher ``peak_rss_mb``.
Progress goes to standard error.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from pathlib import Path

from bench_json import ROOT, run_workload


def run_once(checkout: Path, workload: str, seed: int) -> tuple[dict, int]:
    """One untraced perfbench run in ``checkout``: its end-to-end metrics and pass count, or an error if not correct."""
    result = run_workload(workload, seed, 0, checkout)
    if not result["correct"] or result["failed"]:
        problems = "; ".join(dict.fromkeys(result["problems"]))  # a failed check repeats in every pass
        raise SystemExit(f"error: {checkout}: {result['command']}: correct {result['correct']}, "
                         f"failed {result['failed']} of {result['attempted']}: {problems[:500]}")
    return result["end_to_end"], len(result["passes"])


def fmt(value: float) -> str:
    """Four significant digits, thousands separated from 1000 up."""
    if value == 0 or not math.isfinite(value):
        return str(value)
    exponent = int(f"{value:.3e}".split("e")[1])  # of the value rounded to four digits: 999.95 is 1.000e+03
    if exponent >= 3:
        return f"{value:,.0f}"
    return f"{value:.{max(0, 3 - exponent)}f}"


def quartiles(values: list[float]) -> str:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"[{fmt(q1)}–{fmt(q3)}]"


def table(workload: str, metrics: list[dict], parent: list[dict], change: list[dict]) -> list[str]:
    """The Markdown rows, one per metric, as the paired tables in CHANGES.md show them."""
    rows = ["| workload | metric | parent | change | won |", "|---|---|---|---|---|"]
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        base = [run[name] for run in parent]
        new = [run[name] for run in change]
        base_median, new_median = statistics.median(base), statistics.median(new)
        delta = f" ({(new_median / base_median - 1) * 100:+.1f}%)".replace("-", "−") if base_median else ""
        won = sum((b > n) if lower else (n > b) for b, n in zip(base, new))
        rows.append(f"| {workload} | `{name}` | {fmt(base_median)} {quartiles(base)} | "
                    f"{fmt(new_median)} {quartiles(new)}{delta} | {won}/{len(base)} |")
    return rows


def pass_counts(parent: list[int], change: list[int]) -> str:
    """Each side's median number of untraced passes per run, the line printed below the table."""
    return (f"untraced passes per run, median: parent {statistics.median(parent):g}, "
            f"change {statistics.median(change):g}")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="root of the parent checkout")
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, required=True, help="the first pair's seed")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, to give quartiles")
    if not (args.parent / "perfbench" / "run.py").is_file():
        parser.error(f"{args.parent} has no perfbench/run.py")
    checkouts = {"parent": args.parent, "change": ROOT}

    runs, passes = {"parent": [], "change": []}, {"parent": [], "change": []}
    for k in range(args.pairs):
        seed = args.seed + k
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for side in order:
            metrics, count = run_once(checkouts[side], args.workload, seed)
            runs[side].append(metrics)
            passes[side].append(count)
        shown = ", ".join(f"{side} {fmt(runs[side][-1]['ops_per_s'])}" for side in order)
        print(f"# pair {k + 1}/{args.pairs}, seed {seed}: ops_per_s {shown}", file=sys.stderr, flush=True)
    print("\n".join(table(args.workload, spec["end_to_end"], runs["parent"], runs["change"])))
    print(pass_counts(passes["parent"], passes["change"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
