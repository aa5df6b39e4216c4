"""Pinned SHA-256 digests of the CLI's outputs at fixed seeds.

A rerun that matches itself shows determinism, not correctness: a change that
shifted every output the same way on each run would still pass it.  These
digests were recorded before the episode step was memoized (per-belief
decisions, cached window reads, the successor kernel), so any byte that the
caches change fails here.  A deliberate change of an output format must
update them and say so.
"""

import hashlib

from rbtbench.cli import main
from rbtbench.solver import qtable_digest, save_qtable

Q_UNIFORM = "273dd45de8f4091c5dea0b975859407829656b5cc258b960e70c6c8a92a88971"
Q_MINIMAX = "4202d9ddf544c778e55177061a5ede18d271f40d96297664191ad4430327ec0e"

SWEEP = {
    "returns.csv": "926a1871c4615b10f58fafd963a0136ce08f3b3a1eb4f801d83c2b7a0399cb23",
    "timestep_metrics.csv": "a4f51d821f0e5199c2693462bd2309133f0e1e5a1bc08ca645bb5095bef31777",
    "returns.svg": "88281f1a79ff0781823671a254c7b6df4f039da18795065eeb7bdbb5b9094e88",
}
TRACE = "2c8d710e04e259f60f1698e53fa18317598b58feae6c21a3be96e8ceeb4d00d5"


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_qtables_match_pinned_digests(q_uniform_path, q_minimax, tmp_path):
    assert qtable_digest(q_uniform_path) == Q_UNIFORM
    path = tmp_path / "minimax.json"
    save_qtable(q_minimax, path)
    assert qtable_digest(path) == Q_MINIMAX


def test_sweep_outputs_match_pinned_digests(q_uniform_path, tmp_path, capsys):
    out = tmp_path / "sweep"
    assert main(["sweep", "--q", q_uniform_path, "--windows", "1x1,2x1,2x2", "--episodes", "200",
                 "--seed", "42", "--out-dir", str(out)]) == 0
    capsys.readouterr()
    assert {name: sha256(out / name) for name in SWEEP} == SWEEP


def test_run_trace_matches_pinned_digest(q_uniform_path, tmp_path, capsys):
    trace = tmp_path / "steps.jsonl"
    assert main(["run", "--q", q_uniform_path, "--window", "3x3", "--episodes", "200",
                 "--seed", "42", "--trace", str(trace)]) == 0
    capsys.readouterr()
    assert sha256(trace) == TRACE
