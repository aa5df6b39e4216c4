"""The benchmark tracer's patch points exist and are called through them.

``perfbench/tracer.py`` wraps names in the package's modules (``CALL_SITES``);
a renamed function, or one bound under another name, makes a traced run fail
or lose its spans.  The tracer file is loaded by path and not modified.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from rbtbench import game, opponents, solver
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
    for cached in (game._game, game.enumerate_reachable_states, game.transitions, solver._entry_keys):
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
    with pytest.raises(solver.FormatVersionMismatchError):
        solver.load_qtable(path)
    assert calls == []
