import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rbtbench.belief import WindowShape, initial_belief
from rbtbench.env import EpisodeConfig, decide, run_episodes
from rbtbench.metrics import (
    aggregate_by_timestep,
    iou,
    mean_ci95,
)

import oracles

action_sets = st.sets(st.integers(min_value=0, max_value=8), min_size=1).map(sorted).map(tuple)  # ascending


def test_iou_examples():
    assert iou((1, 2), (1, 2)) == 1.0
    assert iou((1, 2), (3, 4)) == 0.0
    assert iou((1, 2), (2, 3)) == pytest.approx(1 / 3)


@given(action_sets, action_sets)
def test_iou_properties(a, b):
    v = iou(a, b)
    assert 0.0 <= v <= 1.0
    assert v == iou(b, a)
    assert (v == 1.0) == (a == b)
    assert (v == 0.0) == (not set(a) & set(b))


def test_value_margin_zero_on_point_mass(q_uniform_cold):
    state = sorted(q_uniform_cold.entries)[500]
    assert abs(decide({state: 1.0}, q_uniform_cold).margin) <= 1e-12


def test_value_margin_zero_on_the_initial_belief(q_uniform_cold):
    assert decide(initial_belief(), q_uniform_cold).margin == 0.0


def test_value_margin_never_meaningfully_negative(q_uniform, q_uniform_cold):
    config = EpisodeConfig(shape=WindowShape(2, 1), seed=23)
    for result in run_episodes(config, q_uniform, 100):
        for step in result.steps:
            assert step.margin >= -1e-9
            assert decide(step.belief, q_uniform_cold).margin >= -1e-9


def test_mean_ci95_zero_variance():
    assert mean_ci95([1.0, 1.0, 1.0, 1.0]) == (1.0, 0.0)


def test_mean_ci95_matches_textbook_formula():
    returns = [1.0, -1.0] * 500
    mean, ci = mean_ci95(returns)
    want_mean, want_ci = oracles.textbook_mean_ci95(returns)
    assert math.isclose(mean, want_mean, abs_tol=1e-12)
    assert math.isclose(ci, want_ci, abs_tol=1e-12)
    # the scale the benchmark tables report: about +/-0.06 at n=1000
    assert mean == 0.0
    assert math.isclose(ci, 0.062, abs_tol=5e-4)


def test_mean_ci95_translation_invariance():
    base = [0.25, -1.0, 1.0, 0.5, 0.0, -0.75]
    mean0, ci0 = mean_ci95(base)
    mean1, ci1 = mean_ci95([x + 0.125 for x in base])
    assert math.isclose(mean1, mean0 + 0.125, abs_tol=1e-12)
    assert math.isclose(ci1, ci0, abs_tol=1e-12)


def test_mean_ci95_needs_two_samples():
    with pytest.raises(ValueError, match=r"^need at least 2 samples, got 1$"):
        mean_ci95([1.0])


@pytest.mark.parametrize("returns, bad", [
    ([math.nan, 1.0], "nan"), ([1.0, math.inf], "inf"),
    ([math.inf, -math.inf], "inf"), ([0.5, -math.inf, math.nan], "-inf"),
])
def test_mean_ci95_names_the_first_return_that_is_not_finite(returns, bad):
    # statistics raised AttributeError ('float' object has no attribute 'numerator') or fsum's "-inf + inf"
    with pytest.raises(ValueError, match=f"^returns must be finite, got {bad}$"):
        mean_ci95(returns)


def test_aggregate_by_timestep_single_trace(q_uniform):
    config = EpisodeConfig(shape=WindowShape(2, 2), seed=4)
    [result] = run_episodes(config, q_uniform, 1)
    aggs = aggregate_by_timestep([result])
    assert [a.t for a in aggs] == [s.t for s in result.steps]
    for agg, step in zip(aggs, result.steps):
        assert agg.mean_iou == step.iou
        assert agg.mean_margin == step.margin
        assert agg.samples == 1


def test_aggregate_counts_only_episodes_that_reached_t(q_uniform):
    config = EpisodeConfig(shape=WindowShape(1, 1), seed=6)
    results = run_episodes(config, q_uniform, 200)
    aggs = aggregate_by_timestep(results)
    assert aggs[0].samples == 200
    assert aggs[0].mean_iou == 1.0
    assert aggs[0].mean_margin == 0.0
    lengths = [len(r.steps) for r in results]
    for agg in aggs:
        assert agg.samples == sum(1 for n in lengths if n > agg.t)
        assert 0.0 <= agg.mean_iou <= 1.0
        assert agg.mean_margin >= -1e-9
