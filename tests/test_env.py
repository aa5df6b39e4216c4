import gc
import random
import re
from collections import Counter
from dataclasses import fields, replace
from itertools import product

import pytest

from rbtbench import env
from rbtbench.belief import Observation, WindowPlacement, WindowShape, initial_belief, predict, update
from rbtbench.env import (
    MAXBELIEF,
    MIXTURE,
    RANDOM,
    EpisodeConfig,
    EpisodeResult,
    Outcome,
    StepRecord,
    decide,
    run_episode,
    run_episodes,
    sample_window,
)
from rbtbench.game import board_marks, cell_mark, transitions
from rbtbench.metrics import iou
from rbtbench import opponents
from rbtbench.opponents import (
    EpsilonMinimaxOpponent,
    UniformRandomOpponent,
    reply_distribution,
)
from rbtbench.policy import alt_values, argmax_set, mean_value, mixture_values
from rbtbench.solver import QTable

import oracles

UNIFORM = UniformRandomOpponent()


def test_sample_window_full_board_is_the_only_placement():
    rng = random.Random(0)
    for _ in range(20):
        placement = sample_window(WindowShape(3, 3), rng)
        assert (placement.top, placement.left) == (0, 0)


def test_sample_window_covers_all_placements_roughly_uniformly():
    rng = random.Random(1)
    counts = Counter(
        (sample_window(WindowShape(1, 1), rng).top, sample_window(WindowShape(1, 1), rng).left)
        for _ in range(4500)
    )
    # marginals: each row/col index should appear about a third of the time
    assert len(counts) == 9
    for n in counts.values():
        assert 350 < n < 650  # 4500/9 = 500 expected


def test_sample_window_2x2_has_four_positions():
    rng = random.Random(2)
    seen = {(sample_window(WindowShape(2, 2), rng).top, sample_window(WindowShape(2, 2), rng).left)
            for _ in range(200)}
    assert seen == {(0, 0), (0, 1), (1, 0), (1, 1)}


def test_make_observation_reads_the_true_board():
    placement = WindowPlacement(top=0, left=1, shape=WindowShape(2, 2))
    obs = placement.observe(0)
    assert obs.contents == (0,) * 4

    full_window = WindowPlacement(top=0, left=0, shape=WindowShape(3, 3))
    obs = full_window.observe(81)
    assert obs.contents == oracles.cells_of(81)

    # a window over occupied cells reads the marks back in row-major order
    midgame = oracles.board_index((2, 0, 0, 0, 1, 0, 0, 0, 0))
    obs = WindowPlacement(top=0, left=0, shape=WindowShape(2, 2)).observe(midgame)
    assert obs.contents == (2, 0, 0, 1)


def test_episode_replay_is_bit_identical(q_uniform):
    config = EpisodeConfig(shape=WindowShape(2, 1), seed=123)
    assert run_episode(config, q_uniform) == run_episode(config, q_uniform)


def test_run_episodes_derives_per_episode_seeds(q_uniform):
    config = EpisodeConfig(shape=WindowShape(2, 2), seed=40)
    batch = run_episodes(config, q_uniform, 3)
    for i, result in enumerate(batch):
        single = run_episode(EpisodeConfig(shape=config.shape, seed=40 + i), q_uniform)
        assert result == single


def test_run_episodes_builds_each_config_through_its_checks(monkeypatch, q_uniform):
    # run_episodes names every field; a new one must be added there, and to `config` below
    assert [f.name for f in fields(EpisodeConfig)] == ["shape", "policy", "seed"]
    checked, configs = [], []
    post_init = EpisodeConfig.__post_init__
    monkeypatch.setattr(EpisodeConfig, "__post_init__", lambda self: checked.append(self) or post_init(self))
    monkeypatch.setattr(env, "run_episode", lambda config, q: configs.append(config))
    config = EpisodeConfig(shape=WindowShape(2, 1), policy=MAXBELIEF, seed=7)
    before = len(checked)
    run_episodes(config, q_uniform, 3)
    assert checked[before:] == configs  # one check per episode
    assert configs == [replace(config, seed=7 + i) for i in range(3)]


def test_run_episode_builds_its_records_in_field_order():
    # run_episode passes both records' fields by position; a reordered field would land in the wrong slot
    assert [f.name for f in fields(StepRecord)] == ["t", "observation", "posterior", "chosen_action", "reward"]
    assert [f.name for f in fields(EpisodeResult)] == ["steps", "total_return", "outcome", "true_states"]


def test_a_negative_seed_is_rejected():
    # Random(-s) seeds as Random(s) does: seeds -2 .. 2 would play two episodes twice
    assert random.Random(-2).random() == random.Random(2).random()
    for seed in (-1, -2, -(10 ** 9)):
        with pytest.raises(ValueError, match=f"seed must be at least 0, got {seed}$"):
            EpisodeConfig(WindowShape(1, 1), MIXTURE, seed)
    assert EpisodeConfig(WindowShape(1, 1), MIXTURE, 0).seed == 0


@pytest.mark.parametrize("seed", ["3", 1.5, 2.0, True, False, None])
def test_a_seed_that_is_not_an_int_fails_in_one_line(seed):
    # Random(True) and Random(2.0) would replay the episodes of seeds 1 and 2; "3" failed inside `<`
    with pytest.raises(ValueError, match=rf"^seed must be an int, got {re.escape(repr(seed))}$"):
        EpisodeConfig(WindowShape(1, 1), MIXTURE, seed)


def test_an_episode_count_that_is_negative_or_not_an_int_fails_in_one_line(q_uniform):
    # -1 returned no episodes and True played one, silently; 2.0 and "3" raised TypeError from range
    config = EpisodeConfig(WindowShape(1, 1), MIXTURE, 0)
    for episodes in (-1, -(10 ** 9), True, False, 2.0, "3", None):
        message = rf"^episodes must be an int of at least 0, got {re.escape(repr(episodes))}$"
        with pytest.raises(ValueError, match=message):
            run_episodes(config, q_uniform, episodes)
    assert run_episodes(config, q_uniform, 0) == []


@pytest.mark.parametrize("shape", ["2x2", (2, 2), None, WindowShape(2, 2).placements[0]])
def test_a_shape_that_is_not_a_window_shape_fails_in_one_line(shape):
    # else run_episodes fails inside the episode loop, on .placements
    with pytest.raises(ValueError, match=rf"^shape must be a WindowShape, got {re.escape(repr(shape))}$"):
        EpisodeConfig(shape, MIXTURE, 0)


def test_invalid_policy_rejected():
    with pytest.raises(ValueError):
        EpisodeConfig(shape=WindowShape(1, 1), policy="psychic")


def test_random_baseline_hits_invalid_moves(q_uniform):
    config = EpisodeConfig(shape=WindowShape(2, 2), policy=RANDOM, seed=0)
    outcomes = Counter(r.outcome for r in run_episodes(config, q_uniform, 200))
    assert outcomes[Outcome.INVALID_MOVE] > 0
    invalid = [r for r in run_episodes(config, q_uniform, 200) if r.outcome == Outcome.INVALID_MOVE]
    assert all(r.total_return == -1.0 for r in invalid)


def test_truth_always_keeps_positive_mass(q_uniform):
    for shape in (WindowShape(1, 1), WindowShape(2, 2), WindowShape(3, 1)):
        config = EpisodeConfig(shape=shape, seed=7)
        for result in run_episodes(config, q_uniform, 100):
            for step, true_state in zip(result.steps, result.true_states):
                assert step.belief.get(true_state, 0.0) > 0.0


def test_support_parity_tracks_the_move_count(q_uniform):
    config = EpisodeConfig(shape=WindowShape(2, 1), seed=9)
    for result in run_episodes(config, q_uniform, 60):
        for step in result.steps:
            for s in step.belief:
                cells = oracles.cells_of(s)
                assert cells.count(1) == cells.count(2) == step.t


def test_full_observability_collapses_to_the_truth(q_uniform):
    config = EpisodeConfig(shape=WindowShape(3, 3), seed=21)
    for result in run_episodes(config, q_uniform, 200):
        for step, true_state in zip(result.steps, result.true_states):
            assert step.belief == {true_state: 1.0}
            assert step.a_mix == step.a_max


def test_policies_coincide_under_full_observability(q_uniform):
    base = dict(shape=WindowShape(3, 3), seed=77)
    mix = run_episodes(EpisodeConfig(policy=MIXTURE, **base), q_uniform, 100)
    alt = run_episodes(EpisodeConfig(policy=MAXBELIEF, **base), q_uniform, 100)
    assert [r.total_return for r in mix] == [r.total_return for r in alt]


def test_outcome_and_return_are_consistent(q_uniform):
    expected = {
        Outcome.WIN: 1.0,
        Outcome.LOSS: -1.0,
        Outcome.DRAW: 0.0,
        Outcome.INVALID_MOVE: -1.0,
    }
    for policy in (MIXTURE, MAXBELIEF, RANDOM):
        config = EpisodeConfig(shape=WindowShape(1, 1), policy=policy, seed=3)
        for result in run_episodes(config, q_uniform, 150):
            assert result.total_return == expected[result.outcome]
            assert len(result.steps) <= 5
            assert all(s.reward == 0.0 for s in result.steps[:-1])
            assert result.steps[-1].reward == result.total_return


def test_mixture_never_plays_a_surely_occupied_cell(q_uniform):
    # whenever any action is worth more than a guaranteed invalid move, the
    # chosen action is empty in at least one support state
    for shape in (WindowShape(1, 1), WindowShape(2, 2)):
        config = EpisodeConfig(shape=shape, seed=31)
        for result in run_episodes(config, q_uniform, 150):
            for step in result.steps:
                values = mixture_values(step.belief, q_uniform)
                if max(values) > -1.0 + 1e-9:
                    assert any(cell_mark(s, step.chosen_action) == 0 for s in step.belief)


def test_reply_sampling_follows_the_distribution():
    from rbtbench.env import _sample_reply

    # O to move on a mid-game board; eps-minimax puts uneven mass on replies
    index = oracles.board_index((1, 0, 0, 0, 2, 0, 0, 1, 0))
    model = EpsilonMinimaxOpponent(0.3)
    want = dict(reply_distribution(model, index))
    rng = random.Random(5)
    n = 20_000
    counts = Counter(_sample_reply(model, index, rng) for _ in range(n))
    assert set(counts) <= set(want)
    for cell, p in want.items():
        se = (p * (1 - p) / n) ** 0.5
        assert abs(counts[cell] / n - p) < 4 * se + 1e-9


def test_a_draw_at_or_above_the_summed_probabilities_takes_the_last_reply(monkeypatch):
    # _replies lets probabilities sum to an ulp below 1, and random() can return 1 - 2**-53, above that sum
    pairs = ((1, 0.5), (7, 0.5 - 2**-52))
    monkeypatch.setattr(env, "reply_distribution", lambda model, index: pairs)

    class Draw:
        def __init__(self, r):
            self.r = r

        def random(self):
            return self.r

    assert env._sample_reply(UNIFORM, 0, Draw(0.25)) == 1
    for r in (1.0 - 2**-52, 1.0 - 2**-53):  # at the sum, then above it
        assert env._sample_reply(UNIFORM, 0, Draw(r)) == 7


# --- the belief graph's decisions -----------------------------------------------

def fresh_copy(q):
    """Same entries, empty belief graph."""
    return QTable(opponent=q.opponent, entries=q.entries)


def cache_configs():
    for shape in (WindowShape(1, 1), WindowShape(2, 1), WindowShape(2, 2)):
        for policy in (MIXTURE, MAXBELIEF, RANDOM):
            yield EpisodeConfig(shape=shape, policy=policy, seed=300)


def test_cold_and_warm_cache_give_equal_results(q_uniform):
    q = fresh_copy(q_uniform)
    for config in cache_configs():
        cold = run_episodes(config, fresh_copy(q_uniform), 150)
        first = run_episodes(config, q, 150)
        cached = len(q._graph)
        warm = run_episodes(config, q, 150)
        assert cached > 0 and len(q._graph) == cached  # the second run only hit the cache
        assert cold == first == warm


def test_tables_never_share_cached_decisions(q_uniform, q_minimax):
    config = EpisodeConfig(shape=WindowShape(1, 1), seed=800)  # each table plays its own model
    by_uniform = run_episodes(config, q_uniform, 200)
    by_minimax = run_episodes(config, q_minimax, 200)
    assert by_uniform == run_episodes(config, fresh_copy(q_uniform), 200)
    assert by_minimax == run_episodes(config, fresh_copy(q_minimax), 200)
    # the check has teeth: the two tables decide differently on these beliefs
    assert [s.a_mix for r in by_uniform for s in r.steps] != [s.a_mix for r in by_minimax for s in r.steps]


def test_a_step_belief_is_read_only(q_uniform):
    # a step shares its posterior's belief with the graph, so writing it would change later runs
    q = fresh_copy(q_uniform)
    config = EpisodeConfig(shape=WindowShape(2, 1), seed=60)
    want = run_episodes(config, fresh_copy(q_uniform), 100)
    for result in run_episodes(config, q, 100):
        for step in result.steps:
            with pytest.raises(TypeError):
                step.belief[0] = 0.5
    assert run_episodes(config, q, 100) == want


def test_every_step_holds_its_posterior_node_from_the_graph(q_uniform):
    q = fresh_copy(q_uniform)
    for h, w in ((1, 1), (2, 1), (3, 3)):
        for result in run_episodes(EpisodeConfig(shape=WindowShape(h, w), seed=1500), q, 200):
            for step in result.steps:
                b = step.belief
                assert step.posterior is q._graph[(True, *b, *b.values())]
                assert (step.a_mix, step.a_max, step.iou, step.margin) == step.posterior.decision[:4]
                assert step.belief_support_size == len(b)


def test_decide_is_pure(q_uniform):
    # it builds no node and keeps no reference to its argument
    q = fresh_copy(q_uniform)
    config = EpisodeConfig(shape=WindowShape(2, 1), seed=60)
    want = run_episodes(config, fresh_copy(q_uniform), 100)
    beliefs = [initial_belief()] + [dict(s.belief) for r in want for s in r.steps]
    decisions = [decide(belief, q) for belief in beliefs]
    assert q._graph == {}
    for belief in beliefs:
        belief.clear()
        belief[0] = 0.5
    assert run_episodes(config, q, 100) == want
    assert decisions[1:] == [decide(s.belief, q) for r in want for s in r.steps]


def test_step_decisions_match_the_policy_functions(q_uniform):
    # each step's memoized decision against a cold recomputation from the policy functions
    for shape in (WindowShape(1, 1), WindowShape(2, 1), WindowShape(3, 1), WindowShape(3, 3)):
        config = EpisodeConfig(shape=shape, seed=410)
        for result in run_episodes(config, q_uniform, 150):
            for step in result.steps:
                values = mixture_values(step.belief, q_uniform)
                a_max = argmax_set(alt_values(step.belief, q_uniform))
                assert step.a_mix == argmax_set(values)
                assert step.a_max == a_max
                assert step.margin == max(values) - mean_value(values, a_max)  # exact, not close
                assert step.iou == iou(step.a_mix, step.a_max)


def counting_alt_values(monkeypatch):
    """The belief of every ``alt_values`` call ``decide`` makes."""
    calls = []
    original = env.alt_values
    monkeypatch.setattr(env, "alt_values", lambda belief, q: calls.append(dict(belief)) or original(belief, q))
    return calls


def test_decide_at_one_board_of_any_mass_matches_the_policy_functions(monkeypatch, q_uniform_cold):
    # one board at mass 1.0 reuses the mixture sum; at any other mass the baseline's own sum runs
    calls = counting_alt_values(monkeypatch)
    boards = sorted(q_uniform_cold.entries)[::97]
    for board, mass in product(boards, (1.0, 0.5, 0.25, 1.5)):
        belief = {board: mass}
        decision = decide(belief, q_uniform_cold)
        values = mixture_values(belief, q_uniform_cold)
        a_max = argmax_set(alt_values(belief, q_uniform_cold))
        assert decision.a_mix == argmax_set(values)
        assert decision.a_max == a_max and decision.max_choices == tuple(sorted(a_max))
        assert decision.iou == iou(decision.a_mix, a_max)
        assert decision.margin == max(values) - mean_value(values, a_max)  # exact, not close
    assert calls == [{board: mass} for board, mass in product(boards, (0.5, 0.25, 1.5))]


def test_only_a_posterior_of_more_than_one_board_runs_the_baselines_sum(monkeypatch, q_uniform_cold):
    calls = counting_alt_values(monkeypatch)
    run_episodes(EpisodeConfig(shape=WindowShape(3, 3), seed=1500), q_uniform_cold, 200)
    assert calls == []  # every posterior a full window leaves is one board
    q = fresh_copy(q_uniform_cold)
    results = run_episodes(EpisodeConfig(shape=WindowShape(1, 1), seed=1500), q, 200)
    posteriors = {tuple(step.belief.items()) for result in results for step in result.steps}
    one_board = {items for items in posteriors if len(items) == 1}
    assert one_board and all(p == 1.0 for [(_, p)] in one_board)  # the filter leaves one board at mass 1.0
    assert sorted(tuple(belief.items()) for belief in calls) == sorted(posteriors - one_board)
    decided = sum(node.decision is not None for node in q._graph.values())  # one per posterior belief
    assert len(calls) == decided - len(one_board)


# --- the belief-transition graph -------------------------------------------------

def test_observation_keys_are_equal_exactly_when_observations_are():
    seen = {}
    for height, width in product((1, 2, 3), repeat=2):
        for placement in WindowShape(height, width).placements:
            for contents in product((0, 1, 2), repeat=height * width):
                obs = Observation(placement=placement, seen=oracles.window_seen(placement.cells, contents))
                assert seen.setdefault(obs.key, obs) == obs  # no two observations share a key
    assert len(seen) == 27 + 2 * 54 + 2 * 81 + 324 + 2 * 1458 + 19683  # every (placement, contents)
    for key, obs in list(seen.items())[::97]:  # an equal observation built anew gets the same key
        shape = WindowShape(obs.placement.shape.height, obs.placement.shape.width)
        twin = Observation(placement=WindowPlacement(obs.placement.top, obs.placement.left, shape),
                           seen=oracles.window_seen(obs.placement.cells, obs.contents))
        assert twin == obs and twin.key == key


def counting_updates(monkeypatch):
    """(prior, observation key) of every ``update`` call the episode loop makes."""
    calls = []
    original = env.update

    def counting(prior, obs):
        calls.append((id(prior), obs.key))
        return original(prior, obs)

    monkeypatch.setattr(env, "update", counting)
    return calls


def test_a_cold_run_updates_once_per_edge(monkeypatch, q_uniform, q_minimax):
    calls = counting_updates(monkeypatch)
    config = EpisodeConfig(shape=WindowShape(1, 1), seed=900)
    run_episodes(config, fresh_copy(q_minimax), 100)  # another table's graph, built first
    calls.clear()
    q = fresh_copy(q_uniform)
    results = run_episodes(config, q, 300)
    # a prior node is its belief: the root, or what any posterior and action predict
    edges, priors, posteriors = set(), {tuple(initial_belief().items())}, set()
    for result in results:
        prior = initial_belief()
        for step in result.steps:
            edges.add((tuple(prior.items()), step.observation.key))
            posteriors.add(tuple(step.belief.items()))
            if step is not result.steps[-1]:
                prior = predict(step.belief, step.chosen_action, q.opponent)
                priors.add(tuple(prior.items()))
    assert len(calls) == len(set(calls)) == len(edges)
    assert len(edges) < sum(len(r.steps) for r in results) / 2  # most steps walk a cached edge
    assert len(q._graph) == len(priors) + len(posteriors)  # one node per distinct belief and role


def test_a_tables_graph_is_freed_with_it(q_uniform):
    # a read that rules out no board (every read of the empty board) leads to a posterior, not back to its prior
    shape = WindowShape(1, 1)  # kept alive: a shape and its placements refer to each other
    q = fresh_copy(q_uniform)
    results = run_episodes(EpisodeConfig(shape=shape, seed=900), q, 300)
    assert len(q._graph) > 100 and results
    gc.collect()
    del q
    assert gc.collect() == 0  # reference counting freed every node; none was left in a cycle


def test_every_edge_runs_from_a_prior_to_a_posterior_to_the_next_prior(q_uniform, q_minimax):
    marks = board_marks()

    def x_marks(node):
        [count] = {(marks[board] & 511).bit_count() for board in node.belief}  # one layer per node
        return count

    for table in (q_uniform, q_minimax):
        q = fresh_copy(table)
        for h, w in ((1, 1), (2, 1), (3, 3)):
            run_episodes(EpisodeConfig(shape=WindowShape(h, w), seed=1400), q, 200)
        roles = Counter(node.decision is None for node in q._graph.values())
        assert roles[True] > 10 and roles[False] > 10  # both roles, and each node in one
        for node in q._graph.values():
            if node.decision is None:  # a prior: observation key -> (Observation, posterior)
                for key, (obs, posterior) in node.edges.items():
                    assert 2**18 <= key == obs.key and posterior.decision is not None
                    assert x_marks(posterior) == x_marks(node)
            else:  # a posterior: action -> the prior it predicts
                for action, prior in node.edges.items():
                    assert action in range(9) and prior.decision is None
                    assert x_marks(prior) == x_marks(node) + 1


def test_a_warm_table_finds_its_root_without_building_the_initial_belief(monkeypatch, q_uniform):
    config = EpisodeConfig(shape=WindowShape(2, 1), seed=1450)
    want = run_episodes(config, fresh_copy(q_uniform), 50)
    q = fresh_copy(q_uniform)
    run_episode(replace(config, seed=0), q)  # one warm-up episode builds the root
    calls = []
    monkeypatch.setattr(env, "initial_belief", lambda: calls.append(1) or initial_belief())
    assert run_episodes(config, q, 50) == want
    assert calls == []


def test_window_shapes_with_one_label_share_edges(monkeypatch, q_uniform):
    calls = counting_updates(monkeypatch)
    config = EpisodeConfig(shape=WindowShape(2, 1), seed=500)
    twin = replace(config, shape=WindowShape(2, 1))
    assert twin.shape is not config.shape and twin.shape.placements[0] is not config.shape.placements[0]
    q = fresh_copy(q_uniform)
    first = run_episodes(config, q, 200)
    built = len(calls)
    second = run_episodes(twin, q, 200)
    assert len(calls) == built > 0  # every edge of the twin's run was already there
    fresh = run_episodes(twin, fresh_copy(q_uniform), 200)
    assert len(calls) == 2 * built  # a fresh table builds a graph of its own
    assert first == second == fresh
    # the walk gives what the filter gives, step by step from the empty board
    for result in second:
        belief = initial_belief()
        for step in result.steps:
            if step.t > 0:
                belief = predict(belief, result.steps[step.t - 1].chosen_action, UNIFORM)
            belief = update(belief, step.observation)
            assert step.belief == belief


def test_a_warm_graph_runs_no_filter(monkeypatch, q_uniform):
    # after one pass, every prior node, posterior and prediction edge these runs need is in the graph,
    # and a step finds its edge from the board's marks without building an observation
    configs = [EpisodeConfig(shape=WindowShape(h, w), policy=policy, seed=1200)
               for h, w in ((1, 1), (2, 1)) for policy in (MIXTURE, MAXBELIEF)]
    q = fresh_copy(q_uniform)
    first = [run_episodes(config, q, 300) for config in configs]
    calls = []
    for owner, name in ((env, "update"), (env, "predict"), (WindowPlacement, "observe")):
        original = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args, name=name, f=original: calls.append(name) or f(*args))
    assert [run_episodes(config, q, 300) for config in configs] == first
    assert calls == []
    run_episodes(configs[0], fresh_copy(q_uniform), 300)  # the check has teeth: a cold table filters
    assert {"update", "predict", "observe"} <= set(calls)


def test_a_tables_episodes_play_the_tables_model(q_minimax):
    values, replies = opponents.game_value(), transitions()[1]
    checked = 0
    for shape in (WindowShape(1, 1), WindowShape(2, 2)):
        for result in run_episodes(EpisodeConfig(shape=shape, seed=1300), q_minimax, 200):
            for step, board, after_o in zip(result.steps, result.true_states, result.true_states[1:]):
                after_x = board + 3 ** step.chosen_action  # X's mark is digit 1
                [reply] = [c for c in range(9) if cell_mark(after_o, c) != cell_mark(after_x, c)]
                assert replies[after_x][reply] == after_o and values[after_o] == values[after_x]  # a best reply
                checked += 1
    assert checked > 100
