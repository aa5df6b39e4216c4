"""Run the three perfbench workloads and the test suite, and collect their numbers in one JSON file.

    python3 tools/bench_json.py --seed 1 --out BENCH_9.json

Run it from anywhere; it runs ``perfbench/run.py`` from the root of the
checkout it sits in, twice per workload, with ``--trace 0`` and then with
``--trace 1`` (same seed, and ``BENCHMARK.json``'s run length), and reads
each run's ``.perfbench-work/<workload>/result.json``.  The output holds the run
environment (Python version, platform, machine, CPUs), the command of each
run and, per workload, ``correct``, ``attempted``, ``failed`` and the
end-to-end metrics scaled to the reference host speed, with the raw ones
beside them, all from the untraced run.  Next to them, ``per_layer`` holds
the traced run's calls, self time and microseconds per call of each traced
function and module (``*.calls``, ``*.self_s``, ``*.us_per_call``), and
``traced`` that run's command, ``correct`` and ``failed``.  It also holds
the tier-1 test suite's wall time and pass count, the line count of
``src/rbtbench/*.py`` (as ``wc -l`` gives it) and the number of public
names ``rbtbench`` exports.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import time
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("sweep-narrow", "trace-wide", "solve-grid")
SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]  # the same in every BENCH_<n>.json


LAYER_SUFFIXES = (".calls", ".self_s", ".us_per_call")


def run_workload(workload: str, seed: int, trace: int, checkout: Path = ROOT) -> dict:
    """One perfbench run in ``checkout``; its result.json, or an error if the run failed."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(SECONDS), "--trace", str(trace)]
    done = subprocess.run(command, cwd=checkout, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    if done.returncode != 0:
        raise SystemExit(f"error: {checkout}: {' '.join(command[1:])} exited with {done.returncode}: "
                         f"{done.stderr[-500:]}")
    result = json.loads((checkout / ".perfbench-work" / workload / "result.json").read_text())
    result["command"] = " ".join(["python3", *command[1:]])
    return result


def run_tier1() -> dict:
    """The tier-1 suite's command, exit code, wall time and pass count."""
    args = ["-m", "pytest", "-q", "--continue-on-collection-errors"]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")])))
    start = time.perf_counter()
    done = subprocess.run([sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True)
    wall_s = time.perf_counter() - start
    passed = re.search(r"(\d+) passed", done.stdout)
    return {"command": " ".join(["PYTHONPATH=src python", *args]), "returncode": done.returncode,
            "wall_s": round(wall_s, 3), "passed": int(passed.group(1)) if passed else 0}


def source_lines() -> int:
    """``wc -l src/rbtbench/*.py``: newline characters over the package's modules."""
    return sum(path.read_bytes().count(b"\n") for path in (ROOT / "src" / "rbtbench").glob("*.py"))


def public_names() -> int:
    """How many public, non-module names ``rbtbench`` exports, counted as ``tests/test_public_api.py`` does."""
    sys.path.insert(0, str(ROOT / "src"))
    import rbtbench

    return sum(not name.startswith("_") and not isinstance(getattr(rbtbench, name), types.ModuleType)
               for name in dir(rbtbench))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", required=True, help="output path, relative to the checkout root")
    args = parser.parse_args(argv)

    results = {w: run_workload(w, args.seed, 0) for w in WORKLOADS}
    traced = {w: run_workload(w, args.seed, 1) for w in WORKLOADS}
    tier1 = run_tier1()
    bench = {
        "environment": results[WORKLOADS[0]]["environment"],
        "seed": args.seed,
        "seconds": SECONDS,
        "tier1": tier1,
        "source_lines": source_lines(),
        "public_names": public_names(),
        "workloads": {
            w: {
                "command": r["command"],
                "correct": r["correct"],
                "attempted": r["attempted"],
                "failed": r["failed"],
                "passes": len(r["passes"]),
                "end_to_end": r["end_to_end"],
                "raw_end_to_end": r["raw_end_to_end"],
                "per_layer": {k: v for k, v in traced[w]["per_layer"].items() if k.endswith(LAYER_SUFFIXES)},
                "traced": {k: traced[w][k] for k in ("command", "correct", "failed")},
            }
            for w, r in results.items()
        },
    }
    out = ROOT / args.out
    out.write_text(json.dumps(bench, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {out.relative_to(ROOT)}")
    runs = [*results.values(), *traced.values()]
    ok = tier1["returncode"] == 0 and all(r["correct"] and r["failed"] == 0 for r in runs)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
