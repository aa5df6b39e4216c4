"""Each demo runs to completion against the installed source and prints its expected lines."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

DEMOS = {
    "belief_walkthrough.py": ((), ("t=0: 1 possible board (the empty one), p=1",
                                   "  ... 16 possible observations in total, summing to 1.000000")),
    "benchmark_sweep.py": (("20",), ("20 episodes per cell, seed 42",)),
    "solve_and_inspect.py": ((), ("solved 2423 agent-to-move boards",)),
}


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs_and_prints_its_headline(demo):
    args, expected = DEMOS[demo]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    for line in expected:
        assert line in lines
