"""The public names of `rbtbench`: an explicit list, so the surface only changes on purpose."""

import dataclasses
import importlib
import pkgutil
import types
from pathlib import Path

import rbtbench

PUBLIC = {
    # belief
    "Observation", "WindowPlacement", "WindowShape", "initial_belief", "predict", "update",
    # env
    "MAXBELIEF", "MIXTURE", "RANDOM", "EpisodeConfig", "EpisodeResult", "Outcome", "StepRecord", "decide",
    "run_episodes",
    # metrics
    "TimestepAggregate", "aggregate_by_timestep", "mean_ci95",
    # opponents
    "EpsilonMinimaxOpponent", "MinimaxOpponent", "UniformRandomOpponent",
    # policy
    "mixture_values",
    # solver
    "QTable", "load_qtable", "save_qtable", "solve_q",
}


def public_names():
    return {
        name for name in dir(rbtbench)
        if not name.startswith("_") and not isinstance(getattr(rbtbench, name), types.ModuleType)
    }


def test_public_surface_is_the_pinned_list():
    assert len(PUBLIC) <= 26
    assert public_names() == PUBLIC


def test_every_public_name_resolves():
    for name in PUBLIC:
        assert getattr(rbtbench, name) is not None, name


def test_the_source_stays_within_its_line_budget():
    # ROADMAP.md's budget: 1780 lines with the exact engine and its bounds, 20 more for chosen sensing and
    # the shared graph; counted as `wc -l src/rbtbench/*.py` does, newline characters per module
    modules = Path(rbtbench.__file__).parent.glob("*.py")
    assert sum(path.read_bytes().count(b"\n") for path in modules) <= 1800


def test_every_dataclass_has_a_written_docstring():
    # without one, dataclass makes a "Name(field: type, ...)" docstring from inspect.signature at every import
    undocumented = []
    for module in pkgutil.iter_modules(rbtbench.__path__, "rbtbench."):
        for name, value in vars(importlib.import_module(module.name)).items():
            if isinstance(value, type) and dataclasses.is_dataclass(value) and value.__module__ == module.name:
                if not value.__doc__ or value.__doc__.startswith(f"{value.__name__}("):
                    undocumented.append(name)
    assert undocumented == []


def test_no_module_defines_an_exception_class():
    # every check raises a builtin (ValueError for a bad input), which is what the CLI and tools catch
    defined = []
    for module in pkgutil.iter_modules(rbtbench.__path__, "rbtbench."):
        for name, value in vars(importlib.import_module(module.name)).items():
            if isinstance(value, type) and issubclass(value, BaseException) and value.__module__ == module.name:
                defined.append(f"{module.name}.{name}")
    assert defined == []
