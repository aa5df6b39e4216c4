"""The public names of `rbtbench`: an explicit list, so the surface only changes on purpose."""

import types
from pathlib import Path

import rbtbench

PUBLIC = {
    # belief
    "EmptySupportError", "Observation", "WindowPlacement", "WindowShape", "ZeroEvidenceError",
    "initial_belief", "predict", "update",
    # env
    "MAXBELIEF", "MIXTURE", "RANDOM", "EpisodeConfig", "EpisodeResult", "Outcome", "StepRecord", "decide",
    "run_episodes",
    # metrics
    "InsufficientSamplesError", "TimestepAggregate", "aggregate_by_timestep", "mean_ci95",
    # opponents
    "EpsilonMinimaxOpponent", "MinimaxOpponent", "UniformRandomOpponent",
    # policy
    "MissingQEntryError", "mixture_values",
    # solver
    "CorruptEntryError", "FormatVersionMismatchError", "QTable", "load_qtable", "save_qtable",
    "solve_q",
}


def public_names():
    return {
        name for name in dir(rbtbench)
        if not name.startswith("_") and not isinstance(getattr(rbtbench, name), types.ModuleType)
    }


def test_public_surface_is_the_pinned_list():
    assert len(PUBLIC) <= 32
    assert public_names() == PUBLIC


def test_every_public_name_resolves():
    for name in PUBLIC:
        assert getattr(rbtbench, name) is not None, name


def test_the_source_stays_within_its_line_budget():
    # ROADMAP.md's budget: 1780 lines with the exact engine and its bounds, 20 more for chosen sensing and
    # the shared graph; counted as `wc -l src/rbtbench/*.py` does, newline characters per module
    modules = Path(rbtbench.__file__).parent.glob("*.py")
    assert sum(path.read_bytes().count(b"\n") for path in modules) <= 1800
