import math
import random
from collections import defaultdict

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from rbtbench.belief import WindowShape, initial_belief, predict
from rbtbench.env import EpisodeConfig, decide, run_episodes
from rbtbench.game import GameStatus, cell_mark, reachable_boards
from rbtbench.opponents import UniformRandomOpponent
from rbtbench.policy import (
    ARGMAX_TOL,
    alt_values,
    argmax_set,
    max_belief_states,
    mixture_values,
)
from rbtbench.solver import QTable

import oracles

UNIFORM = UniformRandomOpponent()


def x_states_by_own_marks():
    """Group X-to-move states by (move count, X-cell set): candidates for one belief."""
    groups = defaultdict(list)
    for index, (status, mover, _) in sorted(reachable_boards().items()):
        if status is not GameStatus.IN_PROGRESS or mover != 1:
            continue
        cells = oracles.cells_of(index)
        xs = frozenset(i for i, c in enumerate(cells) if c == 1)
        groups[(9 - cells.count(0), xs)].append(index)
    return groups


def test_point_mass_mixture_is_the_q_row(q_uniform):
    state = next(iter(sorted(q_uniform.entries)))
    assert mixture_values({state: 1.0}, q_uniform) == q_uniform.entries[state]


def test_mixture_is_linear_in_the_belief(q_uniform):
    groups = [g for g in x_states_by_own_marks().values() if len(g) >= 4]
    for group in groups[:20]:
        s1, s2, s3, s4 = group[:4]
        b1 = {s1: 0.5, s2: 0.5}
        b2 = {s3: 0.25, s4: 0.75}
        alpha = 0.3
        mixed = defaultdict(float)
        for s, p in b1.items():
            mixed[s] += alpha * p
        for s, p in b2.items():
            mixed[s] += (1 - alpha) * p
        got = mixture_values(dict(mixed), q_uniform)
        v1 = mixture_values(b1, q_uniform)
        v2 = mixture_values(b2, q_uniform)
        for a in range(9):
            assert math.isclose(got[a], alpha * v1[a] + (1 - alpha) * v2[a], abs_tol=1e-12)


def test_opposite_values_cancel(q_uniform):
    # linearity on a hand value table: +1 and -1 mix to 0
    entries = dict(q_uniform.entries)
    s1, s2 = sorted(entries)[:2]
    entries[s1] = [1.0] * 9
    entries[s2] = [-1.0] * 9
    fake = type(q_uniform)(opponent=q_uniform.opponent, entries=entries)
    values = mixture_values({s1: 0.5, s2: 0.5}, fake)
    assert values == [0.0] * 9


def test_action_occupied_everywhere_scores_minus_one(q_uniform):
    belief = update_free_belief(q_uniform)
    for a in range(9):
        if all(cell_mark(s, a) != 0 for s in belief):
            assert mixture_values(belief, q_uniform)[a] == -1.0


def update_free_belief(q):
    belief = predict(initial_belief(), 4, UNIFORM)
    return belief


def test_argmax_set_examples():
    assert argmax_set([1.0] + [0.0] * 8) == frozenset({0})
    assert argmax_set([0.5] * 9) == frozenset(range(9))
    values = [0.5, 0.5 - 1e-12] + [0.0] * 7
    assert argmax_set(values) == frozenset({0, 1})


@given(
    st.lists(st.floats(min_value=-1, max_value=1, allow_nan=False), min_size=9, max_size=9),
    st.floats(min_value=-5, max_value=5, allow_nan=False),
    st.floats(min_value=0.1, max_value=10, allow_nan=False),
)
def test_argmax_set_invariant_under_shift_and_positive_scale(values, shift, scale):
    # the tolerance is absolute: a scale in [0.1, 10] or a shift's rounding can carry a gap to the
    # maximum across it only from inside (ARGMAX_TOL / 20, 20 * ARGMAX_TOL]
    top = max(values)
    assume(all(top - v <= ARGMAX_TOL / 20 or top - v > 20 * ARGMAX_TOL for v in values))
    base = argmax_set(values)
    assert argmax_set([v + shift for v in values]) == base
    assert argmax_set([v * scale for v in values]) == base


def test_argmax_set_tolerance_is_absolute_so_a_gap_near_it_moves_under_scale_and_shift():
    values = [0.0] * 8 + [1e-9]
    assert argmax_set(values) == frozenset(range(9))
    assert argmax_set([v * 2 for v in values]) == frozenset({8})
    assert argmax_set([v + 9.05e-11 for v in values]) == frozenset({8})


def test_max_belief_states_examples():
    assert max_belief_states({7: 1.0}) == frozenset({7})
    assert max_belief_states({1: 0.25, 2: 0.25, 3: 0.5}) == frozenset({3})
    assert max_belief_states({1: 0.2, 2: 0.2, 3: 0.2, 4: 0.2, 5: 0.2}) == frozenset({1, 2, 3, 4, 5})


def test_alt_values_collapses_to_mixture_on_point_mass_and_uniform(q_uniform):
    state = sorted(q_uniform.entries)[100]
    assert alt_values({state: 1.0}, q_uniform) == mixture_values({state: 1.0}, q_uniform)

    belief = predict(initial_belief(), 0, UNIFORM)  # uniform over support
    av = alt_values(belief, q_uniform)
    mv = mixture_values(belief, q_uniform)
    for a in range(9):
        assert math.isclose(av[a], mv[a], abs_tol=1e-12)


def test_alt_values_uses_only_the_modal_state(q_uniform):
    groups = [g for g in x_states_by_own_marks().values() if len(g) >= 2]
    s1, s2 = groups[0][:2]
    belief = {s1: 0.6, s2: 0.4}
    assert alt_values(belief, q_uniform) == q_uniform.entries[s1]


def test_act_mixture_takes_the_unique_winning_move(q_uniform_cold):
    # X at {0, 1}, O at {3, 4}: only cell 2 wins immediately
    state = 1 + 3 + 2 * 27 + 2 * 81
    assert reachable_boards()[state][0] is GameStatus.IN_PROGRESS
    decision = decide({state: 1.0}, q_uniform_cold)
    assert decision.a_mix == frozenset({2})
    assert decision.mix_choices == (2,)
    assert mixture_values({state: 1.0}, q_uniform_cold)[2] == 1.0


def test_act_mixture_on_the_symmetric_opening(q_uniform_cold):
    decision = decide(initial_belief(), q_uniform_cold)
    assert decision.a_mix == frozenset({0, 2, 6, 8})  # corners beat center against a random opponent
    assert random.Random(3).choice(decision.mix_choices) in decision.a_mix


def test_acting_is_deterministic_under_a_fixed_seed(q_uniform, q_uniform_cold):
    belief = update_free_belief(q_uniform)
    first = decide(belief, q_uniform_cold)
    second = decide(belief, QTable(opponent=q_uniform.opponent, entries=q_uniform.entries))
    assert first[:6] == second[:6]  # every field but the prediction cache
    for choices in ("mix_choices", "max_choices"):
        picks = [random.Random(99).choice(getattr(d, choices)) for d in (first, second)]
        assert picks[0] == picks[1]


def test_act_alt_matches_act_mixture_on_point_mass(q_uniform_cold):
    state = sorted(q_uniform_cold.entries)[250]
    decision = decide({state: 1.0}, q_uniform_cold)
    assert decision.a_mix == decision.a_max


def test_act_alt_can_prefer_a_cell_occupied_off_the_modal_state(q_uniform):
    """Brute-force search for a 2-state belief where the max-belief policy
    includes an action that is occupied in the lower-probability state while
    the mixture policy avoids it."""
    groups = x_states_by_own_marks()
    for group in groups.values():
        if len(group) < 2:
            continue
        for s1 in group:
            for s2 in group:
                if s1 == s2:
                    continue
                belief = {s1: 0.6, s2: 0.4}
                a_max = argmax_set(alt_values(belief, q_uniform))
                a_mix = argmax_set(mixture_values(belief, q_uniform))
                risky = {a for a in a_max if cell_mark(s2, a) != 0}
                if risky and not (risky & a_mix):
                    return
    pytest.fail("no risky divergence found over 2-state beliefs")


def test_q_values_agree_across_the_mixture_argmax(q_uniform):
    config = EpisodeConfig(shape=WindowShape(2, 2), seed=17)
    for result in run_episodes(config, q_uniform, 50):
        for step in result.steps:
            values = mixture_values(step.belief, q_uniform)
            spread = max(values[a] for a in step.a_mix) - min(values[a] for a in step.a_mix)
            assert spread <= 1e-9


def test_missing_q_entry_is_reported(q_uniform):
    with pytest.raises(ValueError, match=r"^board 81 has no row in the Q-table$"):
        mixture_values({81: 1.0}, q_uniform)  # O-to-move board: no entry


# --- the kernel is exact ---------------------------------------------------------

def zip_reference(belief, q):
    """The reference formula: one new list of nine values per state, in belief order."""
    values = [0.0] * 9
    for state, p in belief.items():
        values = [v + p * r for v, r in zip(values, q.entries[state])]
    return values


def hexes(values):
    return [float.hex(v) for v in values]  # tells 0.0 from -0.0, and any last-bit difference


POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@given(
    minimax=st.booleans(),
    picks=st.lists(st.integers(min_value=0, max_value=2422), min_size=1, max_size=21, unique=True),
    weights=st.lists(st.one_of(st.sampled_from([0.25, 5e-324]), POSITIVE), min_size=21, max_size=21),
)
def test_mixture_and_alt_values_equal_the_zip_reference_bit_for_bit(q_uniform, q_minimax, minimax, picks, weights):
    q = q_minimax if minimax else q_uniform
    states = sorted(q.entries)  # the 2423 decision states
    # decision states in drawn (unsorted) order; a repeated 0.25 makes modal ties, and the
    # smallest subnormal makes p * r underflow to -0.0 where r < 0
    belief = {states[i]: w for i, w in zip(picks, weights)}
    assert hexes(mixture_values(belief, q)) == hexes(zip_reference(belief, q))
    top = max_belief_states(belief)
    assert hexes(alt_values(belief, q)) == hexes(zip_reference(dict.fromkeys(top, 1.0 / len(top)), q))


def test_mixture_values_adds_onto_a_positive_zero(q_uniform):
    # p * r underflows to -0.0 for the smallest subnormal p and -0.5 < r < 0; 0.0 + -0.0 is 0.0
    state, action = next(
        (s, a) for s, row in sorted(q_uniform.entries.items()) for a, r in enumerate(row) if -0.5 < r < 0
    )
    belief = {state: 5e-324}
    assert float.hex(5e-324 * q_uniform.entries[state][action]) == "-0x0.0p+0"
    assert hexes(mixture_values(belief, q_uniform)) == hexes(zip_reference(belief, q_uniform))
    assert float.hex(mixture_values(belief, q_uniform)[action]) == "0x0.0p+0"
