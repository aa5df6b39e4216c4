"""The benchmark tracer's patch points exist and are called through them.

``perfbench/tracer.py`` wraps names in the package's modules (``CALL_SITES``);
a renamed function, or one bound under another name, makes a traced run fail
or lose its spans.  The tracer file is loaded by path and not modified.
"""

import importlib
import importlib.util
from pathlib import Path

from rbtbench import opponents, solver
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
