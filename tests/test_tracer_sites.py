"""The benchmark tracer's patch points exist and are called through them.

``perfbench/tracer.py`` wraps names in the package's modules (``CALL_SITES``);
a renamed function, or one bound under another name, makes a traced run fail
or lose its spans.  The tracer file is loaded by path and not modified.
"""

import importlib
import importlib.util
from collections import Counter
from pathlib import Path

import pytest

from rbtbench import cli, game, opponents, solver
from rbtbench.opponents import EpsilonMinimaxOpponent, MinimaxOpponent, UniformRandomOpponent

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_call_site_names_a_function_of_the_package():
    sites = load_tracer().CALL_SITES
    assert sites
    for module, attr, _span in sites:
        assert callable(getattr(importlib.import_module(f"rbtbench.{module}"), attr)), (module, attr)


def test_solve_q_makes_no_reply_distribution_call_and_builds_no_reply_table(monkeypatch, q_uniform):
    # solver.reply_distribution stays bound for the tracer's solver span, but the solve reads the reply
    # patterns; only the episode path asks reply_distribution and its per-eps table
    calls = []
    for module in (solver, opponents):
        monkeypatch.setattr(module, "reply_distribution", lambda *args: calls.append(args))
    tables = opponents._reply_table.cache_info().currsize
    solved = [solver.solve_q(model) for model in (UniformRandomOpponent(), MinimaxOpponent(),
                                                  EpsilonMinimaxOpponent(0.123))]
    assert calls == []
    assert opponents._reply_table.cache_info().currsize == tables
    assert solved[0].entries == q_uniform.entries


def test_a_fresh_load_runs_the_one_game_pass_inside_the_traced_call(monkeypatch, q_uniform_path):
    # perfbench's game.enumerate_reachable_states span wraps solver's name: the pass must run inside it
    for cached in (game._game, game.transitions, solver._entry_keys):
        cached.cache_clear()
    passes = []

    def traced():
        before = game._game.cache_info().currsize
        game.enumerate_reachable_states()
        passes.append((before, game._game.cache_info().currsize))

    monkeypatch.setattr(solver, "enumerate_reachable_states", traced)
    solver.load_qtable(q_uniform_path)
    assert passes == [(0, 1)]


def test_a_bad_header_fails_before_the_traced_call(monkeypatch, tmp_path):
    calls = []
    monkeypatch.setattr(solver, "enumerate_reachable_states", lambda: calls.append(1))
    path = tmp_path / "q.json"
    path.write_text('{"version": 2}')
    with pytest.raises(ValueError, match=r"^expected version 1, file has 2$"):
        solver.load_qtable(path)
    assert calls == []


def test_every_traced_binding_is_still_called(monkeypatch, tmp_path):
    # a binding that nothing calls any more reads 0 in its per-layer numbers, with no error; solver's
    # reply_distribution is bound only for the tracer's solver span, so it is left out
    sites = [(module, attr) for module, attr, _span in load_tracer().CALL_SITES
             if (module, attr) != ("solver", "reply_distribution")]
    calls = Counter()

    def counting(site, fn):
        def counted(*args, **kwargs):
            calls[site] += 1
            return fn(*args, **kwargs)
        return counted

    for module, attr in sites:
        owner = importlib.import_module(f"rbtbench.{module}")
        monkeypatch.setattr(owner, attr, counting((module, attr), getattr(owner, attr)))
    for module in (game, solver, opponents):  # so the once-a-process builds, game_value's among them, run again
        for cached in vars(module).values():
            if hasattr(cached, "cache_clear"):
                cached.cache_clear()
    minimax, uniform = str(tmp_path / "minimax.json"), str(tmp_path / "uniform.json")
    assert cli.main(["solve", "--opponent", "minimax", "--out", minimax]) == 0
    assert cli.main(["solve", "--opponent", "uniform", "--out", uniform]) == 0
    assert cli.main(["sweep", "--q", uniform, "--windows", "1x1,2x1", "--episodes", "50",
                     "--out-dir", str(tmp_path / "sweep")]) == 0
    assert cli.main(["run", "--q", uniform, "--window", "3x3", "--episodes", "50",
                     "--trace", str(tmp_path / "trace.jsonl")]) == 0
    assert [site for site in sites if not calls[site]] == []
