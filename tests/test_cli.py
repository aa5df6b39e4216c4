import filecmp
import io
import json
import math
import os
import re
import shutil
from pathlib import Path

import pytest

from rbtbench import cli, env
from rbtbench.belief import Observation, WindowPlacement, WindowShape
from rbtbench.cli import main, step_to_json
from rbtbench.env import EpisodeConfig, EpisodeResult, Outcome, StepRecord, run_episodes
from rbtbench.opponents import EpsilonMinimaxOpponent, MinimaxOpponent
from rbtbench.solver import load_qtable

import oracles


def run_cli(*argv):
    return main(list(argv))


def test_solve_minimax_reports_a_draw(tmp_path, capsys):
    out = tmp_path / "q.json"
    assert run_cli("solve", "--opponent", "minimax", "--out", str(out)) == 0
    stdout = capsys.readouterr().out
    assert "solved 2423 states" in stdout
    assert "empty-board value: 0\n" in stdout
    assert load_qtable(out).opponent == MinimaxOpponent()


def test_solve_uniform_reports_a_positive_value(tmp_path, capsys):
    out = tmp_path / "q.json"
    assert run_cli("solve", "--opponent", "uniform", "--out", str(out)) == 0
    value = float(re.search(r"empty-board value: (\S+)", capsys.readouterr().out).group(1))
    assert value > 0.9


def test_solve_eps_round_trips(tmp_path):
    out = tmp_path / "q.json"
    assert run_cli("solve", "--opponent", "eps:0.25", "--out", str(out)) == 0
    assert load_qtable(out).opponent == EpsilonMinimaxOpponent(0.25)


def test_run_appends_a_csv_row(q_uniform_path, tmp_path, capsys):
    csv = tmp_path / "rows.csv"
    args = ("run", "--q", q_uniform_path, "--window", "2x2", "--policy", "mixture",
            "--episodes", "50", "--seed", "5", "--out", str(csv))
    assert run_cli(*args) == 0
    assert run_cli(*args) == 0
    lines = csv.read_text().splitlines()
    assert lines[0] == "window,policy,episodes,mean_return,ci95"
    assert len(lines) == 3
    assert lines[1] == lines[2]  # deterministic rerun, byte-identical row
    window, policy, episodes, mean_return, ci95 = lines[1].split(",")
    assert (window, policy, episodes) == ("2x2", "mixture", "50")
    assert -1.0 <= float(mean_return) <= 1.0
    assert float(ci95) >= 0.0


def test_run_writes_the_header_into_an_empty_out_file(q_uniform_path, tmp_path, capsys):
    # an existing empty file, as mktemp makes it, still gets the header
    csv = tmp_path / "rows.csv"
    csv.touch()
    assert run_cli("run", "--q", q_uniform_path, "--window", "2x2", "--episodes", "10", "--seed", "5",
                   "--out", str(csv)) == 0
    assert csv.read_text().splitlines() == capsys.readouterr().out.splitlines()  # header, then the row


def test_run_writes_the_canonical_window_label(q_uniform_path, tmp_path, capsys):
    csv = tmp_path / "rows.csv"
    for window in ("01x1", "+1X1", " 1x1 "):
        assert run_cli("run", "--q", q_uniform_path, "--window", window, "--episodes", "2",
                       "--out", str(csv)) == 0
    assert [line.split(",")[0] for line in csv.read_text().splitlines()[1:]] == ["1x1"] * 3
    assert [line.split(",")[0] for line in capsys.readouterr().out.splitlines()[1::2]] == ["1x1"] * 3


def test_run_full_window_policies_coincide(q_uniform_path, tmp_path):
    csv = tmp_path / "rows.csv"
    for policy in ("mixture", "maxbelief"):
        assert run_cli("run", "--q", q_uniform_path, "--window", "3x3", "--policy", policy,
                       "--episodes", "60", "--seed", "11", "--out", str(csv)) == 0
    _, row_mix, row_alt = csv.read_text().splitlines()
    assert row_mix.split(",")[3] == row_alt.split(",")[3]


def observation_from_json(o: dict) -> Observation:
    placement = WindowPlacement(top=o["top"], left=o["left"], shape=WindowShape(height=o["height"], width=o["width"]))
    return Observation(placement=placement, seen=oracles.window_seen(placement.cells, o["contents"]))


def posterior_node(belief: dict, a_mix: frozenset, a_max: frozenset, iou: float, margin: float) -> env.Node:
    """A posterior node built by hand, as the belief graph holds one."""
    decision = env.Decision(a_mix, a_max, iou, margin, tuple(sorted(a_mix)), tuple(sorted(a_max)))
    return env.Node(belief, {}, decision)


def step_from_json(obj: dict) -> tuple[int, StepRecord]:
    """One trace line back to its episode number and step; the package reads no traces."""
    step = StepRecord(
        t=obj["t"],
        observation=observation_from_json(obj["observation"]),
        posterior=posterior_node({int(s): p for s, p in obj["belief"].items()}, frozenset(obj["a_mix"]),
                                 frozenset(obj["a_max"]), obj["iou"], obj["margin"]),
        chosen_action=obj["chosen_action"],
        reward=obj["reward"],
    )
    return obj["episode"], step


def test_trace_jsonl_round_trips(q_uniform_path, tmp_path, q_uniform):
    trace = tmp_path / "steps.jsonl"
    assert run_cli("run", "--q", q_uniform_path, "--window", "2x1", "--policy", "mixture",
                   "--episodes", "8", "--seed", "2", "--trace", str(trace)) == 0
    lines = trace.read_text().splitlines()
    assert lines
    results = run_episodes(
        EpisodeConfig(shape=WindowShape(2, 1), seed=2),
        q_uniform, 8)
    want = [(e, s) for e, r in enumerate(results) for s in r.steps]
    assert len(lines) == len(want)
    for line, (episode, step) in zip(lines, want):
        obj = json.loads(line)
        got_episode, got_step = step_from_json(obj)
        assert got_episode == episode
        assert got_step == step  # lossless, floats included
        assert json.dumps(step_to_json(got_episode, got_step), sort_keys=True) == line


def trace_lines(results) -> list[str]:
    buf = io.StringIO()
    cli.write_trace(buf, results)
    return buf.getvalue().splitlines()


def reference_lines(results) -> list[str]:
    return [json.dumps(step_to_json(e, s), sort_keys=True) for e, r in enumerate(results) for s in r.steps]


def test_trace_memo_writes_every_line_as_step_to_json_does(q_uniform):
    results = run_episodes(
        EpisodeConfig(shape=WindowShape(1, 1), seed=5), q_uniform, 300)
    lines = trace_lines(results)
    assert lines == reference_lines(results)
    # multi-board beliefs whose keys sort as strings ("10" before "9"), and many repeated step contents
    assert any(list(json.loads(line)["belief"]) != sorted(json.loads(line)["belief"], key=int) for line in lines)
    contents = {re.sub(r'"(chosen_action|episode|reward|t)": [^,}]+', "", line) for line in lines}
    assert len(contents) < len(lines) / 2


def test_trace_encodes_each_observation_and_posterior_once(q_uniform, monkeypatch):
    results = run_episodes(EpisodeConfig(shape=WindowShape(1, 1), seed=5), q_uniform, 300)
    encoded = []
    original = cli.trace_pieces
    monkeypatch.setattr(cli, "trace_pieces", lambda observation, posterior: encoded.append(
        (observation, posterior)) or original(observation, posterior))
    lines = trace_lines(results)
    pairs = [(observation.key, id(posterior)) for observation, posterior in encoded]
    assert len(set(pairs)) == len(pairs)  # no pair encoded twice
    assert set(pairs) == {(step.observation.key, id(step.posterior)) for r in results for step in r.steps}
    assert len(pairs) < len(lines) / 2


TRACE_WINDOWS = (WindowShape(1, 1), WindowShape(2, 1), WindowShape(2, 2), WindowShape(3, 1), WindowShape(3, 2),
                 WindowShape(3, 3))


@pytest.mark.parametrize("table", ["q_uniform", "q_minimax", "q_eps05"])
def test_trace_lines_are_their_own_sorted_json(table, request):
    # checked without step_to_json: the line is the sorted-key json.dumps of what it parses to
    q = request.getfixturevalue(table)
    for shape in TRACE_WINDOWS:
        for policy in env.POLICIES:
            for line in trace_lines(run_episodes(EpisodeConfig(shape=shape, policy=policy, seed=3), q, 20)):
                assert json.dumps(json.loads(line), sort_keys=True) == line


@pytest.mark.parametrize("policy", env.POLICIES)
@pytest.mark.parametrize("shape", TRACE_WINDOWS, ids=lambda shape: shape.label)
@pytest.mark.parametrize("table", ["q_uniform", "q_minimax", "q_eps05"])
def test_trace_writes_every_window_policy_and_table_as_step_to_json_does(table, shape, policy, request):
    results = run_episodes(EpisodeConfig(shape=shape, policy=policy, seed=7), request.getfixturevalue(table), 25)
    assert trace_lines(results) == reference_lines(results)


def test_trace_memo_keeps_the_steps_of_two_tables_apart(q_uniform, q_minimax):
    runs = [run_episodes(EpisodeConfig(shape=WindowShape(2, 2), seed=1), q, 40)
            for q in (q_uniform, q_minimax)]
    mixed = [r for pair in zip(*runs) for r in pair]
    assert trace_lines(mixed) == reference_lines(mixed)


def one_cell_step(p: float = 1.0, margin: float = 0.0) -> StepRecord:
    placement = WindowPlacement(top=0, left=0, shape=WindowShape(height=1, width=1))
    return StepRecord(t=0, observation=Observation(placement=placement, seen=0),
                      posterior=posterior_node({0: p}, frozenset({4}), frozenset({4}), 1.0, margin),
                      chosen_action=4, reward=0.0)


def test_trace_memo_tells_a_zero_margin_from_a_negative_zero_one():
    results = [EpisodeResult(steps=[one_cell_step(), one_cell_step(margin=-0.0)], total_return=0.0,
                             outcome=Outcome.DRAW)]
    lines = trace_lines(results)
    assert lines == reference_lines(results)
    assert lines[0] != lines[1] and '"margin": -0.0' in lines[1]


def hand_built_step(p=1.0, iou=1.0, margin=0.0, reward=0.0) -> StepRecord:
    placement = WindowPlacement(top=1, left=0, shape=WindowShape(height=2, width=1))
    belief = {9: p, 10: 0.25, 1480: 0.5}  # "10" sorts before "1480" and "9"
    return StepRecord(t=1, observation=Observation(placement=placement, seen=1 << 3 | 1 << 15),
                      posterior=posterior_node(belief, frozenset({8, 0, 4}), frozenset({4}), iou, margin),
                      chosen_action=4, reward=reward)


ODD_NUMBERS = [math.nan, math.inf, -math.inf, -0.0, 0, 1, -3, True, False]


@pytest.mark.parametrize("field", ["p", "iou", "margin", "reward"])
@pytest.mark.parametrize("value", ODD_NUMBERS, ids=repr)
def test_trace_writes_odd_numbers_as_step_to_json_does(field, value):
    results = [EpisodeResult(steps=[hand_built_step(**{field: value}), hand_built_step()], total_return=0.0,
                             outcome=Outcome.DRAW)]
    lines = trace_lines(results)
    assert lines == reference_lines(results)
    assert lines[0] != lines[1] or field == "p" and value in (1, True)  # float(p) writes 1 and True as 1.0


def test_trace_memo_writes_an_int_probability_as_step_to_json_does():
    # 1 == 1.0 and both hash alike, so a memo keyed on the belief's values would share one entry between them
    for first, second in ((1.0, 1), (1, 1.0)):
        results = [EpisodeResult(steps=[one_cell_step(first), one_cell_step(second)],
                                 total_return=0.0, outcome=Outcome.DRAW)]
        lines = trace_lines(results)
        assert lines == reference_lines(results)
        assert all('"belief": {"0": 1.0}' in line for line in lines)


def test_sweep_outputs(q_uniform_path, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert run_cli("sweep", "--q", q_uniform_path, "--episodes", "30", "--seed", "3",
                       "--out-dir", str(out)) == 0
    returns = (out1 / "returns.csv").read_text().splitlines()
    assert returns[0] == "window,policy,episodes,mean_return,ci95"
    assert len(returns) == 11  # 5 windows x 2 policies
    cells = [tuple(line.split(",")[:2]) for line in returns[1:]]
    assert cells == [(w, p) for w in ("1x1", "2x1", "2x2", "3x1", "3x2")
                     for p in ("mixture", "maxbelief")]

    metrics = (out1 / "timestep_metrics.csv").read_text().splitlines()
    assert metrics[0] == "window,policy_pair,t,mean_iou,mean_margin,samples"
    t0_rows = [line.split(",") for line in metrics[1:] if line.split(",")[2] == "0"]
    assert len(t0_rows) == 5
    for row in t0_rows:
        assert row[1] == "mixture_vs_maxbelief"
        assert float(row[3]) == 1.0
        assert float(row[4]) == 0.0
        assert int(row[5]) == 30

    svg = (out1 / "returns.svg").read_text()
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
    assert svg.count("<rect") >= 10

    manifest = json.loads((out1 / "manifest.json").read_text())
    assert manifest["windows"] == ["1x1", "2x1", "2x2", "3x1", "3x2"]
    assert manifest["episodes"] == 30 and manifest["seed"] == 3
    assert re.fullmatch(r"[0-9a-f]{64}", manifest["qtable_sha256"])

    # byte-identical across reruns, chart included
    for name in ("returns.csv", "timestep_metrics.csv", "returns.svg"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_sweep_shares_one_window_shape_between_the_policies(q_uniform_path, tmp_path, monkeypatch):
    shapes = []
    original = cli.run_episodes

    def recording(config, q, episodes):
        shapes.append((config.policy, config.shape))
        return original(config, q, episodes)

    monkeypatch.setattr(cli, "run_episodes", recording)
    assert run_cli("sweep", "--q", q_uniform_path, "--windows", "1x1,2x1", "--episodes", "2",
                   "--out-dir", str(tmp_path)) == 0
    assert [(policy, shape.label) for policy, shape in shapes] == [
        ("mixture", "1x1"), ("maxbelief", "1x1"), ("mixture", "2x1"), ("maxbelief", "2x1")
    ]
    # both cells of a window read boards through the same placements and their caches
    assert shapes[0][1] is shapes[1][1] and shapes[2][1] is shapes[3][1]
    assert shapes[0][1] is not shapes[2][1]


def test_replay_starts_from_certainty(q_uniform_path, capsys):
    assert run_cli("replay", "--q", q_uniform_path, "--window", "2x2", "--seed", "7") == 0
    stdout = capsys.readouterr().out
    first_step = stdout.split("t=1")[0]
    assert "belief (1 state)" in first_step
    assert "p=1.0000" in first_step
    assert re.search(r"outcome: (win|loss|draw|invalid_move)  return: [+-]?\d", stdout)


def test_replay_probabilities_sum_to_one_each_step(q_uniform_path, capsys):
    assert run_cli("replay", "--q", q_uniform_path, "--window", "1x1", "--seed", "13") == 0
    stdout = capsys.readouterr().out
    for block in re.split(r"(?=^t=)", stdout, flags=re.M):
        probs = [float(m) for m in re.findall(r"p=([0-9.]+)", block)]
        if probs:
            assert math.isclose(sum(probs), 1.0, abs_tol=0.01)


def test_replay_is_deterministic(q_uniform_path, capsys):
    assert run_cli("replay", "--q", q_uniform_path, "--window", "2x1", "--seed", "3") == 0
    first = capsys.readouterr().out
    assert run_cli("replay", "--q", q_uniform_path, "--window", "2x1", "--seed", "3") == 0
    assert capsys.readouterr().out == first


def test_replay_seedscan_finds_the_five_state_profile(q_uniform_path, q_uniform, capsys):
    target = [0.125, 0.125, 0.25, 0.25, 0.25]
    hit = None
    for seed in range(2000):
        config = EpisodeConfig(shape=WindowShape(2, 2), seed=seed)
        [result] = run_episodes(config, q_uniform, 1)
        if any(sorted(round(p, 9) for p in s.belief.values()) == target for s in result.steps):
            hit = seed
            break
    assert hit is not None, "no seed below 2000 reaches the five-state profile"
    assert run_cli("replay", "--q", q_uniform_path, "--window", "2x2", "--seed", str(hit)) == 0
    stdout = capsys.readouterr().out
    assert stdout.count("p=0.2500") >= 3
    assert stdout.count("p=0.1250") >= 2


def test_qtable_env_var_supplies_the_default(q_uniform_path, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("RBT_QTABLE", q_uniform_path)
    assert run_cli("run", "--window", "3x3", "--episodes", "10", "--seed", "1") == 0
    assert "3x3,mixture,10" in capsys.readouterr().out


def test_missing_qtable_is_an_error(monkeypatch, capsys):
    monkeypatch.delenv("RBT_QTABLE", raising=False)
    assert run_cli("run", "--window", "2x2", "--episodes", "5") == 1
    assert "no Q-table" in capsys.readouterr().err


def test_bad_inputs_exit_nonzero(tmp_path, q_uniform_path, capsys):
    assert run_cli("solve", "--opponent", "alphabeta", "--out", str(tmp_path / "q.json")) == 1
    assert run_cli("run", "--q", q_uniform_path, "--window", "4x1", "--episodes", "5") == 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"version": 999, "opponent": "uniform", "gamma": 1.0, "entries": {}}))
    assert run_cli("run", "--q", str(bad), "--window", "2x2", "--episodes", "5") == 1
    capsys.readouterr()


def one_line_error(capsys) -> str:
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "Traceback" not in err
    return err


def test_sweep_rejects_an_empty_window_list(q_uniform_path, tmp_path, capsys):
    for value in ("", ",", " , "):
        out = tmp_path / "out"
        assert run_cli("sweep", "--q", q_uniform_path, "--windows", value, "--episodes", "5",
                       "--out-dir", str(out)) == 1
        err = one_line_error(capsys)
        assert "--windows" in err and repr(value) in err
        assert not out.exists()  # nothing written before the check


def test_sweep_rejects_a_bad_window_before_running_any_cell(q_uniform_path, tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli("sweep", "--q", q_uniform_path, "--windows", "1x1,4x1", "--episodes", "5",
                   "--out-dir", str(out)) == 1
    err = one_line_error(capsys)
    assert "--windows" in err and "'4x1'" in err
    assert capsys.readouterr().out == ""  # the valid 1x1 cell did not run
    assert not out.exists()
    # a window listed twice, under any spelling, would run its cells twice
    for windows, label in (("2x2,2X2", "2x2"), ("1x1,01x1", "1x1"), ("1x1,2x1, 2x1 ", "2x1")):
        assert run_cli("sweep", "--q", q_uniform_path, "--windows", windows, "--episodes", "5",
                       "--out-dir", str(out)) == 1
        err = one_line_error(capsys)
        assert err.startswith("error: --windows ") and f" {label} " in err and repr(windows) in err
        assert capsys.readouterr().out == ""
        assert not out.exists()


def test_replay_names_the_flag_of_a_bad_window(q_uniform_path, capsys):
    assert run_cli("replay", "--q", q_uniform_path, "--window", "4x4", "--seed", "0") == 1
    err = one_line_error(capsys)
    assert err.startswith("error: --window: ") and "'4x4'" in err
    assert capsys.readouterr().out == ""


OUT_PATH_ERRORS = {"missing": "does not exist", "directory": "is a directory", "empty": "is empty"}


def bad_out_path(kind, path) -> str:
    """`path` moved into a missing directory, made an (empty) directory there, or the empty string."""
    if kind == "empty":
        return ""
    path = path.parent / "missing" / path.name
    if kind == "directory":
        path.mkdir(parents=True)
    return str(path)


@pytest.mark.parametrize("flag, kind", [
    pytest.param("--out", "missing", id="--out"),
    pytest.param("--trace", "missing", id="--trace"),
    pytest.param("--out", "directory", id="--out-is-a-directory"),
    pytest.param("--trace", "directory", id="--trace-is-a-directory"),
    pytest.param("--out", "empty", id="--out-is-empty"),
    pytest.param("--trace", "empty", id="--trace-is-empty"),
])
def test_run_into_a_missing_directory_fails_before_any_episode(flag, kind, q_uniform_path, tmp_path, capsys,
                                                               monkeypatch):
    monkeypatch.setattr(cli, "run_episodes", lambda *args: pytest.fail("an episode ran"))
    paths = {"--out": str(tmp_path / "rows.csv"), "--trace": str(tmp_path / "steps.jsonl")}
    paths[flag] = bad_out_path(kind, tmp_path / os.path.basename(paths[flag]))
    argv = ["run", "--q", q_uniform_path, "--window", "2x2", "--episodes", "5"]
    for f, path in paths.items():
        argv += [f, path]
    assert run_cli(*argv) == 1
    err = one_line_error(capsys)
    assert err.startswith(f"error: {flag}: ") and repr(paths[flag]) in err
    assert err.endswith(f" {OUT_PATH_ERRORS[kind]}\n")
    assert capsys.readouterr().out == ""
    assert not any(os.path.isfile(path) for path in paths.values())  # no row appended, no trace written
    if kind == "directory":
        assert os.listdir(paths[flag]) == []


@pytest.mark.parametrize("out, trace", [("rows.csv", "rows.csv"), ("./rows.csv", "rows.csv"),
                                        ("rows.csv", "sub/../rows.csv")], ids=["same", "dot-slash", "dot-dot"])
def test_run_with_trace_and_out_on_one_file_fails_before_any_episode(out, trace, q_uniform_path, tmp_path, capsys,
                                                                     monkeypatch):
    monkeypatch.setattr(cli, "run_episodes", lambda *args: pytest.fail("an episode ran"))
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    (tmp_path / "rows.csv").write_text("window,policy,episodes,mean_return,ci95\n")
    assert run_cli("run", "--q", q_uniform_path, "--window", "2x2", "--episodes", "5",
                   "--out", out, "--trace", trace) == 1
    assert one_line_error(capsys) == f"error: --trace: {trace!r} is also --out\n"
    assert capsys.readouterr().out == ""
    assert (tmp_path / "rows.csv").read_text() == "window,policy,episodes,mean_return,ci95\n"


@pytest.mark.parametrize("kind", ["missing", "directory", "empty"],
                         ids=["missing-directory", "is-a-directory", "empty"])
def test_solve_into_a_bad_out_path_fails_before_solving(kind, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "solve_q", lambda *args: pytest.fail("the table was solved"))
    monkeypatch.chdir(tmp_path)
    out = bad_out_path(kind, tmp_path / "q.json")
    assert run_cli("solve", "--opponent", "uniform", "--out", out) == 1
    err = one_line_error(capsys)
    assert err.startswith("error: --out: ") and repr(out) in err
    assert err.endswith(f" {OUT_PATH_ERRORS[kind]}\n")
    assert capsys.readouterr().out == ""
    assert os.listdir(tmp_path) == (["missing"] if kind == "directory" else [])  # nothing written
    if kind == "directory":
        assert os.listdir(out) == []


@pytest.mark.parametrize("kind", ["empty", "file", "below-a-file"])
def test_sweep_into_a_bad_out_dir_fails_before_loading_the_table(kind, q_uniform_path, tmp_path, capsys,
                                                                 monkeypatch):
    monkeypatch.setattr(cli, "load_qtable", lambda *args: pytest.fail("the table was loaded"))
    monkeypatch.chdir(tmp_path)
    out = ""
    if kind != "empty":
        out = str(tmp_path / "results") + ("/sub" if kind == "below-a-file" else "")
        (tmp_path / "results").write_text("kept\n")
    assert run_cli("sweep", "--q", q_uniform_path, "--windows", "1x1", "--episodes", "5", "--out-dir", out) == 1
    reason = ": Not a directory" if kind == "below-a-file" else " is not a directory"
    assert one_line_error(capsys) == f"error: --out-dir: {out!r}{reason}\n"
    assert capsys.readouterr().out == ""
    assert os.listdir(tmp_path) == (["results"] if kind != "empty" else [])
    if kind != "empty":
        assert (tmp_path / "results").read_text() == "kept\n"


@pytest.mark.parametrize("depth", ["newdir", "newdir/sub"])
def test_sweep_whose_table_fails_to_load_creates_no_out_dir(depth, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run_cli("sweep", "--q", "nope.json", "--windows", "1x1", "--episodes", "5", "--out-dir", depth) == 1
    assert one_line_error(capsys) == "error: --q: 'nope.json': No such file or directory\n"
    assert capsys.readouterr().out == ""
    assert os.listdir(tmp_path) == []


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("command, flag", [("run", "--trace"), ("run", "--out"), ("solve", "--out")])
def test_a_write_that_fails_names_its_flag_and_path(command, flag, q_uniform_path, capsys):
    # /dev/full opens but refuses every write, so each command does all its work first
    argv = ["solve"] if command == "solve" else ["run", "--q", q_uniform_path, "--window", "2x1", "--episodes", "5"]
    assert run_cli(*argv, flag, "/dev/full") == 1
    assert one_line_error(capsys) == f"error: {flag}: '/dev/full': No space left on device\n"


SWEEP_FILES = ("returns.csv", "timestep_metrics.csv", "returns.svg", "manifest.json")


def qtable_flag(source, path, monkeypatch) -> list[str]:
    """The argv that names the table at `path` by `source`, ``--q`` or ``RBT_QTABLE``."""
    monkeypatch.delenv("RBT_QTABLE", raising=False)
    if source == "--q":
        return ["--q", path]
    monkeypatch.setenv("RBT_QTABLE", path)
    return []


@pytest.mark.parametrize("source", ["--q", "RBT_QTABLE"])
@pytest.mark.parametrize("flag", ["--out", "--trace"])
def test_run_never_writes_over_its_own_qtable(flag, source, q_uniform_path, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "load_qtable", lambda *args: pytest.fail("the table was loaded"))
    monkeypatch.chdir(tmp_path)
    table = tmp_path / "q.json"
    shutil.copyfile(q_uniform_path, table)
    argv = ["run", "--window", "2x2", "--episodes", "5", flag, "./q.json", *qtable_flag(source, "q.json", monkeypatch)]
    assert run_cli(*argv) == 1
    assert one_line_error(capsys) == f"error: {flag}: './q.json' is the Q-table named by {source}\n"
    assert capsys.readouterr().out == ""
    assert filecmp.cmp(table, q_uniform_path, shallow=False)
    assert os.listdir(tmp_path) == ["q.json"]


@pytest.mark.parametrize("source", ["--q", "RBT_QTABLE"])
@pytest.mark.parametrize("name", SWEEP_FILES)
def test_sweep_never_writes_over_its_own_qtable(name, source, q_uniform_path, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "load_qtable", lambda *args: pytest.fail("the table was loaded"))
    monkeypatch.chdir(tmp_path)
    (tmp_path / "e").mkdir()
    table = tmp_path / "e" / name
    shutil.copyfile(q_uniform_path, table)
    argv = ["sweep", "--windows", "1x1", "--episodes", "5", "--out-dir", "e",
            *qtable_flag(source, os.path.join("e", name), monkeypatch)]
    assert run_cli(*argv) == 1
    assert one_line_error(capsys) == f"error: --out-dir: {os.path.join('e', name)!r} is the Q-table named by {source}\n"
    assert capsys.readouterr().out == ""
    assert filecmp.cmp(table, q_uniform_path, shallow=False)
    assert os.listdir(tmp_path / "e") == [name]


@pytest.mark.parametrize("name", SWEEP_FILES)
def test_sweep_whose_output_is_a_directory_fails_before_loading_the_table(name, q_uniform_path, tmp_path, capsys,
                                                                          monkeypatch):
    monkeypatch.setattr(cli, "load_qtable", lambda *args: pytest.fail("the table was loaded"))
    monkeypatch.chdir(tmp_path)
    (tmp_path / "d" / name).mkdir(parents=True)
    assert run_cli("sweep", "--q", q_uniform_path, "--windows", "1x1", "--episodes", "5", "--out-dir", "d") == 1
    assert one_line_error(capsys) == f"error: --out-dir: {os.path.join('d', name)!r} is a directory\n"
    assert capsys.readouterr().out == ""
    assert os.listdir(tmp_path / "d") == [name] and os.listdir(tmp_path / "d" / name) == []


@pytest.mark.parametrize("spec", ["eps:abc", "eps:", "eps:1.5", "alphabeta", "eps:x", "eps:nan", "eps_minimax"])
def test_solve_with_a_bad_opponent_names_the_flag_and_the_value(spec, tmp_path, capsys):
    out = tmp_path / "q.json"
    assert run_cli("solve", "--opponent", spec, "--out", str(out)) == 1
    err = one_line_error(capsys)
    assert err.startswith("error: --opponent must be uniform, minimax or eps:<p> ") and repr(spec) in err
    assert not out.exists()


def test_episodes_below_two_is_an_error(q_uniform_path, tmp_path, capsys):
    for episodes in ("1", "0", "-3"):
        commands = (
            ("run", "--q", q_uniform_path, "--window", "2x2", "--episodes", episodes),
            ("sweep", "--q", q_uniform_path, "--windows", "2x2", "--episodes", episodes,
             "--out-dir", str(tmp_path / "out")),
        )
        for argv in commands:
            assert run_cli(*argv) == 1
            err = one_line_error(capsys)
            assert "--episodes" in err and err.rstrip().endswith(f"got {episodes}")
    assert not (tmp_path / "out").exists()


def test_a_negative_seed_fails_before_the_table_loads(q_uniform_path, tmp_path, capsys, monkeypatch):
    ran, loaded = [], []
    monkeypatch.setattr(env, "run_episode", lambda config, q: ran.append(config))
    monkeypatch.setattr(cli, "load_qtable", lambda path: loaded.append(path))
    commands = (
        ("run", "--q", q_uniform_path, "--window", "1x1", "--episodes", "5", "--out", str(tmp_path / "rows.csv")),
        ("sweep", "--q", q_uniform_path, "--windows", "1x1", "--episodes", "5", "--out-dir", str(tmp_path / "out")),
        ("replay", "--q", q_uniform_path, "--window", "1x1"),
    )
    for argv in commands:
        for seed in ("-1", "-2"):
            assert run_cli(*argv, "--seed", seed) == 1
            assert one_line_error(capsys) == f"error: --seed must be at least 0, got {seed}\n"
            assert capsys.readouterr().out == ""
    assert ran == loaded == []
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("before", ["window,policy,episodes,mean_return,ci95\n1x1,mixture,5,0.2,0.1",
                                    "window,policy,episodes,mean_return,ci95\n1x1,mixture,5,0.2,0.1\n",
                                    "window,policy,episodes,mean_return,ci95"],
                         ids=["row-without-newline", "row-with-newline", "header-without-newline"])
def test_run_out_puts_its_row_on_a_line_of_its_own(before, q_uniform_path, tmp_path, capsys):
    csv = tmp_path / "rows.csv"
    csv.write_text(before)
    assert run_cli("run", "--q", q_uniform_path, "--window", "1x1", "--episodes", "5", "--seed", "3",
                   "--out", str(csv)) == 0
    _, row = capsys.readouterr().out.splitlines()
    assert csv.read_text() == before.rstrip("\n") + "\n" + row + "\n"


def test_run_out_appends_its_row_to_the_returns_a_sweep_wrote(q_uniform_path, tmp_path, capsys):
    assert run_cli("sweep", "--q", q_uniform_path, "--windows", "1x1,2x1", "--episodes", "5", "--seed", "3",
                   "--out-dir", str(tmp_path)) == 0
    csv = tmp_path / "returns.csv"
    swept = csv.read_text().splitlines()
    capsys.readouterr()
    assert run_cli("run", "--q", q_uniform_path, "--window", "3x1", "--episodes", "5", "--seed", "3",
                   "--out", str(csv)) == 0
    _, row = capsys.readouterr().out.splitlines()
    lines = csv.read_text().splitlines()
    assert lines == swept + [row]
    assert lines.count("window,policy,episodes,mean_return,ci95") == 1 and lines[-1].startswith("3x1,mixture,5,")


def test_qtable_with_missing_and_extra_states_fails_before_any_episode(q_uniform_path, tmp_path, capsys):
    payload = json.loads(Path(q_uniform_path).read_text(encoding="utf-8"))
    del payload["entries"]["45"]
    payload["entries"]["99999"] = [0.0] * 9
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    trace = tmp_path / "steps.jsonl"
    assert run_cli("run", "--q", str(bad), "--window", "1x1", "--episodes", "5",
                   "--trace", str(trace)) == 1
    err = one_line_error(capsys)
    assert "missing 1 (45)" in err and "extra 1 (99999)" in err
    assert not trace.exists()


def test_qtable_that_is_not_a_json_object_fails_in_one_line(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("[1,2]")
    assert run_cli("run", "--q", str(bad), "--window", "2x2", "--episodes", "5") == 1
    err = one_line_error(capsys)
    assert "JSON object" in err and "an array" in err


def test_qtable_whose_entries_are_not_an_object_fails_in_one_line(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"version":1,"opponent":"uniform","gamma":1.0,"entries":[]}')
    assert run_cli("run", "--q", str(bad), "--window", "2x2", "--episodes", "5") == 1
    err = one_line_error(capsys)
    assert '"entries" must be a JSON object, got an array' in err


def test_qtable_with_a_non_numeric_value_fails_in_one_line(q_uniform_path, tmp_path, capsys):
    payload = json.loads(Path(q_uniform_path).read_text(encoding="utf-8"))
    payload["entries"]["0"][4] = None
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    assert run_cli("run", "--q", str(bad), "--window", "2x2", "--episodes", "5") == 1
    err = one_line_error(capsys)
    assert "state 0: action values must be numbers" in err


@pytest.mark.parametrize("edit, message", [
    pytest.param(lambda entries: entries["0"].__setitem__(4, "0.5"), "state 0: action values must be numbers",
                 id="string-value"),
    pytest.param(lambda entries: entries["0"].__setitem__(4, True), "state 0: action values must be numbers",
                 id="boolean-value"),
    pytest.param(lambda entries: entries.__setitem__("00", entries.pop("0")),
                 'entry key "00" is not a board index as save_qtable writes it', id="leading-zero-key"),
])
def test_qtable_that_int_and_float_would_misread_fails_in_one_line(edit, message, q_uniform_path, tmp_path,
                                                                    capsys):
    payload = json.loads(Path(q_uniform_path).read_text(encoding="utf-8"))
    edit(payload["entries"])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    assert run_cli("run", "--q", str(bad), "--window", "2x2", "--episodes", "5") == 1
    assert message in one_line_error(capsys)


MISSING = object()


@pytest.mark.parametrize("field, value, message", [
    pytest.param("opponent", MISSING, 'no "opponent"', id="opponent-missing"),
    pytest.param("opponent", {"eps_minimax": None}, "eps_minimax must be a number, got None", id="eps-null"),
    pytest.param("opponent", {"eps_minimax": "0.5"}, "eps_minimax must be a number", id="eps-string"),
    pytest.param("opponent", {"eps_minimax": True}, "eps_minimax must be a number", id="eps-boolean"),
    pytest.param("opponent", {"eps_minimax": 1.5}, "eps must be in [0, 1]", id="eps-out-of-range"),
    # an int eps is checked as the header writes it, before it becomes a float; 10**400 has no float
    pytest.param("opponent", {"eps_minimax": 2}, "eps must be in [0, 1], got 2\n", id="eps-int-out-of-range"),
    pytest.param("opponent", {"eps_minimax": 10**400}, f"eps must be in [0, 1], got 1{'0' * 400}\n",
                 id="eps-int-beyond-float"),
    pytest.param("opponent", {"eps": 0.5}, "unknown opponent descriptor", id="opponent-unknown"),
    pytest.param("gamma", MISSING, '"gamma" must be 1.0 (values are undiscounted), got nothing', id="gamma-missing"),
    pytest.param("gamma", None, "got null", id="gamma-null"),
    pytest.param("gamma", [1.0], "got [1.0]", id="gamma-array"),
    pytest.param("gamma", True, "got true", id="gamma-boolean"),
    pytest.param("gamma", 0.5, "got 0.5", id="gamma-half"),
    pytest.param("version", True, "expected version 1", id="version-boolean"),
])
def test_qtable_with_a_bad_header_fails_in_one_line(field, value, message, q_uniform_path, tmp_path, capsys):
    payload = json.loads(Path(q_uniform_path).read_text(encoding="utf-8"))
    if value is MISSING:
        del payload[field]
    else:
        payload[field] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    assert run_cli("run", "--q", str(bad), "--window", "2x2", "--episodes", "5") == 1
    err = one_line_error(capsys)
    assert message in err


@pytest.mark.parametrize("seen", [True, 1.0, -1, 1 << 1, 1 << 18, 1 | 1 << 9],
                         ids=["bool", "float", "negative", "outside-the-window", "beyond-the-board",
                              "x-and-o-on-one-cell"])
def test_an_observation_with_a_bad_seen_is_rejected(seen):
    placement = WindowPlacement(top=0, left=0, shape=WindowShape(height=2, width=1))  # cells 0 and 3
    with pytest.raises(ValueError):
        Observation(placement=placement, seen=seen)
    assert Observation(placement=placement, seen=1 << 3).contents == (0, 1)


@pytest.mark.parametrize("source", ["--q", "RBT_QTABLE"])
@pytest.mark.parametrize("kind", ["not-json", "empty", "directory", "missing"])
def test_a_bad_qtable_file_names_the_flag_and_the_path(kind, source, tmp_path, monkeypatch, capsys):
    path = tmp_path / "q.json"
    if kind == "not-json":
        path.write_text("not json")
    elif kind == "empty":
        path.write_text("")
    elif kind == "directory":
        path.mkdir()
    monkeypatch.delenv("RBT_QTABLE", raising=False)
    argv = ["run", "--window", "2x2", "--episodes", "5"]
    if source == "--q":
        argv += ["--q", str(path)]
    else:
        monkeypatch.setenv("RBT_QTABLE", str(path))
    assert run_cli(*argv) == 1
    err = one_line_error(capsys)
    assert err.startswith(f"error: {source}: {str(path)!r}: ")
    assert "Errno" not in err  # the reason is said once, without the path again


@pytest.mark.parametrize("command", ["run", "replay"])
def test_a_qtable_file_nested_too_deeply_fails_in_one_line(command, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "run_episodes", lambda *args: pytest.fail("an episode ran"))
    path = tmp_path / "q.json"
    path.write_text("[" * 200000)
    argv = [command, "--q", str(path), "--window", "2x2"] + (["--episodes", "5"] if command == "run" else [])
    assert run_cli(*argv) == 1
    err = one_line_error(capsys)  # no Traceback
    assert err == f"error: --q: {str(path)!r}: the JSON nests too deeply for a Q-table file\n"
    assert capsys.readouterr().out == ""
