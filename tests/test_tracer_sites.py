"""The benchmark tracer's patch points exist and are called through them.

``perfbench/tracer.py`` wraps names in the package's modules (``CALL_SITES``);
a renamed function, or one bound under another name, makes a traced run fail
or lose its spans.  The tracer file is loaded by path and not modified.
"""

import importlib
import importlib.util
from pathlib import Path

from rbtbench import solver
from rbtbench.game import GameStatus, reachable_boards
from rbtbench.opponents import UniformRandomOpponent

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


def test_solve_q_calls_reply_distribution_once_per_after_x_board(monkeypatch, q_uniform):
    calls = []
    original = solver.reply_distribution

    def counting(model, index):
        calls.append(index)
        return original(model, index)

    monkeypatch.setattr(solver, "reply_distribution", counting)
    q = solver.solve_q(UniformRandomOpponent())
    # every in-progress O-to-move board follows some X move from a decision state
    after_x = {
        i for i, (st, mover, _) in reachable_boards().items()
        if st is GameStatus.IN_PROGRESS and mover == 2
    }
    assert len(after_x) == 2097
    assert len(calls) == 2097 and set(calls) == after_x
    assert q.entries == q_uniform.entries
