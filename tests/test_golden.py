"""Pinned SHA-256 digests of the CLI's outputs at fixed seeds.

A rerun that matches itself shows determinism, not correctness: a change that
shifted every output the same way on each run would still pass it.  These
digests were recorded before the episode step was memoized (per-belief
decisions, cached window reads, the successor kernel) and, for the Q-tables,
before the solver was rewritten bottom-up, so any byte that those changes
move fails here.  A deliberate change of an output format must
update them and say so.  Eight eps tables (0.10, 0.20, 0.25, 0.30, 0.40,
0.45, 0.50, 0.65) were re-pinned when eps-minimax reply probabilities were
made to sum to at most 1: on 855 boards across eleven eps values the largest
reply probability dropped by 2.8e-17 to 2.2e-16, and the 0.15, 0.60 and
0.90 tables kept their bytes.
"""

import hashlib

import pytest

from rbtbench.cli import main, parse_opponent
from rbtbench.solver import qtable_digest, save_qtable, solve_q

# Every table the solve-grid benchmark workload writes.
QTABLES = {
    "uniform": "273dd45de8f4091c5dea0b975859407829656b5cc258b960e70c6c8a92a88971",
    "minimax": "4202d9ddf544c778e55177061a5ede18d271f40d96297664191ad4430327ec0e",
    "eps:0.05": "8529b0651e2031f8b30e5ab6db347bc691c0f57f3cbff60e7cb5f39c651837c9",
    "eps:0.10": "9679a8be4fb9750fa32a72f4a14118a5aa709f1f06c4d99e200cc84efcbef245",
    "eps:0.15": "2eb9281c54fa5bc4bf79bb88c03a7b45378cc257dbb4a49967a70f17fd4d2116",
    "eps:0.20": "0a3e3c906337262e4eb0d316b1240509a3d73ae6ccf64d1d70ae38d6cb1abd63",
    "eps:0.25": "05635e5b9d38811df74c29e08c31f2f4500ad3d01be2971de33e8ecee487cbd4",
    "eps:0.30": "0b751e433ac11b79fd65566bc86817225f86a441ca8c26b444f73fc9749b46bf",
    "eps:0.35": "20479b2ce62521d61102d3e2a17037abfa1f96c0e9ebd25d816c3464a53edfef",
    "eps:0.40": "5c4ba2a40d1c2fc6dd565358bb91ec3def8aabf4dda7ad6063f88f61148d3c88",
    "eps:0.45": "ea6f03d96f389663471c8758c8974f91d40fc4a48ee695662ba8f285ce89082f",
    "eps:0.50": "a6513afef06bde2e38cc4e0b5603ba6896ea82566af2177c1d82e31e77c26b48",
    "eps:0.55": "ca7639b6ba3678a17c8e5339bafff34edf84ae43c807692010b2a68753e5136c",
    "eps:0.60": "3aaf5553e5631afe9536fb5d9fed640cf2e834b557d264b07db6c0af97a079cf",
    "eps:0.65": "9f9b7562e6a86dd352df8173e13f00340d88af0695a799caf63447efa12b9bd8",
    "eps:0.70": "849369a2115507ef9b649017d76914f5a50cf09fc815edb4f80bf8330177c2b8",
    "eps:0.75": "69b4504e2c809f677a83e5a15e9d3232a15051fbc79a5eb1d999a104471f5e7d",
    "eps:0.80": "ceca16f00a2e159d0a69e821e8293ad29cc93ffb366cddfe45e332641f549818",
    "eps:0.85": "c95f837929d8d1eff0ba0f36f9a06459686aa137f7296e4088ba31c5833481cd",
    "eps:0.90": "9e8a4f2ad651a9235ea215116b0f054c5db330d2ebc4a99b9251955eb74fba5b",
    "eps:0.95": "434b4404e6b61b3aa374a687ca74c7e3afab604c895a84d5a528e160b7f89403",
}

SWEEP = {
    "returns.csv": "926a1871c4615b10f58fafd963a0136ce08f3b3a1eb4f801d83c2b7a0399cb23",
    "timestep_metrics.csv": "a4f51d821f0e5199c2693462bd2309133f0e1e5a1bc08ca645bb5095bef31777",
    "returns.svg": "88281f1a79ff0781823671a254c7b6df4f039da18795065eeb7bdbb5b9094e88",
}
TRACE = "2c8d710e04e259f60f1698e53fa18317598b58feae6c21a3be96e8ceeb4d00d5"
# run --window 2x1 --episodes 200 --seed 42 --trace on the uniform table, per --policy
RUN_TRACES = {
    "maxbelief": "d3bcf19eee3d2593653dfa421381b0d212db74a0e7f7839e1d6162f955776dcf",
    "random": "6b6b565f782c26a9692466bdd6749d4d1a092de60bf1a8866ba3ff3e9500e2f6",
}
# sweep --windows 1x1,2x2 --episodes 200 --seed 42 on the minimax table
MINIMAX_SWEEP = {
    "returns.csv": "5279e1d7ce1cb6a42e93edb5e844e52990920e63ff24fc9ed227f173236e4337",
    "timestep_metrics.csv": "4a58a6ac79d42dffa4aede4d3d87f08d696561dc465bacd7c906a78cc704f0f9",
    "returns.svg": "7bfc4cc18d58ddec1faeff889f65fb0ad8cddd414888fb5ec8802bedb5fd144c",
}
# replay stdout on the uniform table, recorded before board glyphs were
# read from cell digits instead of mark objects
REPLAY = {
    ("--window", "2x1", "--seed", "3", "--verbose"):
        "8d0e2d715d1f97b113d68d9e90f6752f92f6ec57f81c7ffb0cde0cb9f14e1a37",
    ("--window", "2x2", "--seed", "7"):
        "ccf1faf8945328fcaefdc8be386aa62ba73ac9b0728c56c3c7936dd87e803093",
}


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_qtables_match_pinned_digests(q_uniform_path, q_minimax, tmp_path):
    assert qtable_digest(q_uniform_path) == QTABLES["uniform"]
    path = tmp_path / "minimax.json"
    save_qtable(q_minimax, path)
    assert qtable_digest(path) == QTABLES["minimax"]


@pytest.mark.parametrize("spec", QTABLES)
def test_every_solve_grid_table_matches_its_pinned_digest(spec, tmp_path):
    path = tmp_path / "q.json"
    save_qtable(solve_q(parse_opponent(spec)), path)
    assert qtable_digest(path) == QTABLES[spec]


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


def test_minimax_sweep_outputs_match_pinned_digests(q_minimax, tmp_path, capsys):
    q_path, out = tmp_path / "minimax.json", tmp_path / "sweep"
    save_qtable(q_minimax, q_path)
    assert main(["sweep", "--q", str(q_path), "--windows", "1x1,2x2", "--episodes", "200",
                 "--seed", "42", "--out-dir", str(out)]) == 0
    capsys.readouterr()
    assert {name: sha256(out / name) for name in MINIMAX_SWEEP} == MINIMAX_SWEEP


@pytest.mark.parametrize("policy", RUN_TRACES)
def test_baseline_run_traces_match_pinned_digests(policy, q_uniform_path, tmp_path, capsys):
    trace = tmp_path / "steps.jsonl"
    assert main(["run", "--q", q_uniform_path, "--window", "2x1", "--episodes", "200", "--seed", "42",
                 "--policy", policy, "--trace", str(trace)]) == 0
    capsys.readouterr()
    assert sha256(trace) == RUN_TRACES[policy]


@pytest.mark.parametrize("flags", REPLAY)
def test_replay_output_matches_pinned_digest(flags, q_uniform_path, capsys):
    capsys.readouterr()
    assert main(["replay", "--q", q_uniform_path, *flags]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == REPLAY[flags]
