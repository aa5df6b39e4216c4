"""The public names of `rbtbench`: an explicit list, so the surface only changes on purpose."""

import types

import rbtbench

PUBLIC = {
    # belief
    "Belief", "EmptySupportError", "Observation", "WindowPlacement", "WindowShape",
    "ZeroEvidenceError", "initial_belief", "predict", "update",
    # env
    "MAXBELIEF", "MIXTURE", "POLICIES", "RANDOM", "EpisodeConfig", "EpisodeResult", "Outcome",
    "StepRecord", "decide", "run_episode", "run_episodes", "sample_window",
    # game
    "Action", "GameStatus", "enumerate_reachable_states",
    # metrics
    "InsufficientSamplesError", "SweepRow", "TimestepAggregate", "aggregate_by_timestep", "iou",
    "mean_ci95",
    # opponents
    "EpsilonMinimaxOpponent", "MinimaxOpponent", "OpponentModel", "TerminalStateError",
    "UniformRandomOpponent",
    # policy
    "ActionSet", "ActionValues", "MissingQEntryError", "alt_values", "argmax_set",
    "max_belief_states", "mixture_values",
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
    assert len(PUBLIC) <= 48
    assert public_names() == PUBLIC


def test_every_public_name_resolves():
    for name in PUBLIC:
        assert getattr(rbtbench, name) is not None, name
