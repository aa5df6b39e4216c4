import math
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rbtbench.belief import (
    EmptySupportError,
    Observation,
    WindowPlacement,
    WindowShape,
    ZeroEvidenceError,
    initial_belief,
    predict,
    update,
)
from rbtbench.env import EpisodeConfig, run_episodes
from rbtbench.game import GameStatus, reachable_boards
from rbtbench.opponents import EpsilonMinimaxOpponent, UniformRandomOpponent
from rbtbench.solver import solve_q

import oracles

E, X, O = 0, 1, 2
UNIFORM = UniformRandomOpponent()


def board(*cells):
    return oracles.board_index(cells)


def read(placement, digits):
    """The observation of `digits` (row-major) through `placement`, built from the oracle's bits."""
    return Observation(placement=placement, seen=oracles.window_seen(placement.cells(), digits))


def assert_close_beliefs(got, want, tol=1e-9):
    assert set(got) == set(want)
    for s in want:
        assert math.isclose(got[s], want[s], abs_tol=tol)


# --- shapes and placements ---------------------------------------------------

def test_window_shape_validation():
    with pytest.raises(ValueError):
        WindowShape(0, 2)
    with pytest.raises(ValueError, match=r"^window shape must be within 1\.\.3, got 2x4$"):
        WindowShape(2, 4)
    with pytest.raises(ValueError):
        WindowShape.from_label("2by2")


@pytest.mark.parametrize("height, width, shown", [
    (2.0, 1, "2.0x1"), (True, 2, "Truex2"), (2, False, "2xFalse"), ("2", 1, "'2'x1"), (None, 3, "Nonex3"),
])
def test_a_window_shape_of_non_ints_fails_in_one_line(height, width, shown):
    with pytest.raises(ValueError, match=rf"^window height and width must be ints, got {shown}$"):
        WindowShape(height, width)


def test_placement_counts():
    for h, w in product(range(1, 4), repeat=2):
        assert len(WindowShape(h, w).placements()) == (4 - h) * (4 - w)


def test_placement_must_fit():
    with pytest.raises(ValueError):
        WindowPlacement(top=2, left=0, shape=WindowShape(2, 2))


@pytest.mark.parametrize("top, left, shown", [(0.0, 0, r"\(0\.0, 0\)"), (0, True, r"\(0, True\)"),
                                             ("1", 0, r"\('1', 0\)")])
def test_a_placement_at_non_ints_fails_in_one_line(top, left, shown):
    with pytest.raises(ValueError, match=rf"^window top and left must be ints, got {shown}$"):
        WindowPlacement(top=top, left=left, shape=WindowShape(2, 2))


def test_window_cells_row_major():
    placement = WindowPlacement(top=1, left=1, shape=WindowShape(2, 2))
    assert placement.cells() == (4, 5, 7, 8)


def test_label_round_trip():
    assert WindowShape.from_label("3x2").label == "3x2"


# --- initial belief and likelihood -------------------------------------------

def test_initial_belief_is_point_mass_on_empty_board():
    b = initial_belief()
    assert b == {0: 1.0}
    assert len(b) == 1
    assert math.isclose(sum(b.values()), 1.0, abs_tol=1e-9)


def test_full_window_likelihood_matches_exactly():
    cells = (X, E, E, E, O, E, E, E, X)
    placement = WindowPlacement(top=0, left=0, shape=WindowShape(3, 3))
    obs = read(placement, cells)
    assert placement.observe(board(*cells)) == obs
    assert placement.observe(0) != obs


def test_one_cell_window_mismatch():
    placement = WindowPlacement(top=0, left=0, shape=WindowShape(1, 1))
    obs = read(placement, (X,))
    assert placement.observe(0) != obs


def test_likelihood_depends_only_on_covered_cells():
    placement = WindowPlacement(top=0, left=0, shape=WindowShape(1, 3))
    obs = read(placement, (X, E, E))
    s1 = board(X, E, E, O, E, E, E, E, E)
    s2 = board(X, E, E, E, O, E, E, E, E)
    assert placement.observe(s1) == placement.observe(s2) == obs


def test_observe_reads_the_oracle_digits_for_every_placement_and_reachable_board():
    boards = [(index, oracles.cells_of(index)) for index in reachable_boards()]
    for h, w in product(range(1, 4), repeat=2):
        for placement in WindowShape(h, w).placements():
            cells = placement.cells()
            for index, digits in boards:
                assert placement.observe(index).contents == tuple(digits[c] for c in cells)


@pytest.mark.parametrize("index", [-19682, -1, 3**9, 2], ids=["negative", "minus-one", "3**9", "unreachable"])
def test_observe_rejects_an_index_that_is_not_a_reachable_board(index):
    placement = WindowPlacement(top=0, left=0, shape=WindowShape(3, 3))
    with pytest.raises(ValueError, match=rf"^board {index} is not reachable by legal play from the empty board$"):
        placement.observe(index)


# --- predict ------------------------------------------------------------------

def test_predict_from_point_mass_spreads_uniformly():
    out = predict(initial_belief(), 4, UNIFORM)
    assert len(out) == 8
    assert all(math.isclose(p, 1 / 8) for p in out.values())
    assert all(oracles.cells_of(s)[4] == X for s in out)


def test_predict_prunes_terminal_opponent_replies():
    # X at {0,4}, O at {2,5}: O wins by playing 8 (2-5-8), so only the
    # surviving replies stay in the support, renormalized evenly.
    start = board(X, E, O, E, X, O, E, E, E)
    out = predict({start: 1.0}, 1, UNIFORM)  # X plays 1, no win
    # empty cells after X's move: 3, 6, 7, 8; reply 8 ends the game
    assert len(out) == 3
    assert all(math.isclose(p, 1 / 3) for p in out.values())
    assert all(oracles.cells_of(s)[8] != O for s in out)


def test_predict_conditions_on_our_move_being_valid():
    s1 = board(E, E, E, E, X, E, E, E, O)  # cell 1 empty
    s2 = board(E, O, E, E, X, E, E, E, E)  # cell 1 holds O
    belief = {s1: 0.5, s2: 0.5}
    out = predict(belief, 1, UNIFORM)
    # only s1 survives stage 1, so every successor has X at 1 and O at 8
    for s in out:
        cells = oracles.cells_of(s)
        assert cells[1] == X
        assert cells[8] == O


def test_predict_empty_support_is_an_error():
    s = board(E, O, E, E, X, E, E, E, E)
    with pytest.raises(EmptySupportError):
        predict({s: 1.0}, 1, UNIFORM)  # cell 1 occupied in every state


# --- update -------------------------------------------------------------------

def test_update_is_identity_when_all_states_agree_under_the_window():
    belief = predict(initial_belief(), 4, UNIFORM)
    placement = WindowPlacement(top=1, left=1, shape=WindowShape(1, 1))
    obs = read(placement, (X,))  # everyone has X at center
    assert_close_beliefs(update(belief, obs), belief, tol=1e-15)


def test_update_collapses_to_the_matching_state():
    s1 = board(O, E, E, E, X, E, E, E, E)
    s2 = board(E, O, E, E, X, E, E, E, E)
    belief = {s1: 0.5, s2: 0.5}
    placement = WindowPlacement(top=0, left=0, shape=WindowShape(1, 1))
    obs = read(placement, (O,))
    assert update(belief, obs) == {s1: 1.0}


def test_full_window_collapses_any_belief():
    belief = predict(initial_belief(), 4, UNIFORM)
    target = next(iter(sorted(belief)))
    obs = WindowPlacement(top=0, left=0, shape=WindowShape(3, 3)).observe(target)
    assert update(belief, obs) == {target: 1.0}


def test_update_zero_evidence_is_an_error():
    placement = WindowPlacement(top=0, left=0, shape=WindowShape(1, 1))
    obs = read(placement, (X,))
    with pytest.raises(ZeroEvidenceError):
        update(initial_belief(), obs)


# --- incremental chain versus whole-history posterior ---------------------------

def run_history_check(kind, shape, seeds, q):
    for seed in seeds:
        config = EpisodeConfig(shape=shape, seed=seed)
        [result] = run_episodes(config, q, 1)
        steps = result.steps[:3]
        actions = [s.chosen_action for s in steps]
        observations = [
            (s.observation.placement.cells(), s.observation.contents)
            for s in steps
        ]
        for k in range(len(steps)):
            want = oracles.posterior(actions[:k], observations[: k + 1], kind)
            assert_close_beliefs(steps[k].belief, want)


def test_chain_equals_bruteforce_posterior_uniform(q_uniform):
    for shape in (WindowShape(1, 1), WindowShape(2, 2), WindowShape(3, 1)):
        run_history_check("uniform", shape, range(8), q_uniform)


def test_chain_equals_bruteforce_posterior_eps_minimax():
    q = solve_q(EpsilonMinimaxOpponent(0.3))
    run_history_check(("eps", 0.3), WindowShape(2, 2), range(6), q)


# --- the five-state 2x2 profile --------------------------------------------------

def test_two_by_two_reaches_the_five_state_profile():
    """A 2x2-window episode can reach a 5-state belief {1/8, 1/8, 1/4, 1/4, 1/4}."""
    shape = WindowShape(2, 2)
    target = [0.125, 0.125, 0.25, 0.25, 0.25]
    boards = reachable_boards()  # board -> (status, mover, empty cells)
    for a0 in range(9):
        b0 = oracles.place(0, a0, 1)
        for r0 in boards[b0][2]:
            b1 = oracles.place(b0, r0, 2)
            for pl1 in shape.placements():
                bel1 = update(predict(initial_belief(), a0, UNIFORM), pl1.observe(b1))
                for a1 in boards[b1][2]:
                    b2 = oracles.place(b1, a1, 1)
                    if boards[b2][0] is not GameStatus.IN_PROGRESS:
                        continue
                    for r1 in boards[b2][2]:
                        b3 = oracles.place(b2, r1, 2)
                        if boards[b3][0] is not GameStatus.IN_PROGRESS:
                            continue
                        for pl2 in shape.placements():
                            bel2 = update(predict(bel1, a1, UNIFORM), pl2.observe(b3))
                            if sorted(round(p, 9) for p in bel2.values()) == target:
                                return
    pytest.fail("no 2-decision history reaches the five-state profile")


# --- update against brute force ---------------------------------------------------

DECISION_STATES = sorted(
    i for i, (status, mover, _) in reachable_boards().items()
    if status is GameStatus.IN_PROGRESS and mover == 1
)
SHAPES = [(h, w) for h in (1, 2, 3) for w in (1, 2, 3)]
POSITIVE = st.floats(min_value=1e-6, max_value=1.0)


@pytest.mark.parametrize("h,w", SHAPES, ids=[f"{h}x{w}" for h, w in SHAPES])
@settings(max_examples=40)
@given(
    picks=st.lists(st.integers(min_value=0, max_value=2422), min_size=1, max_size=21, unique=True),
    weights=st.lists(POSITIVE, min_size=21, max_size=21),
    in_prior=st.booleans(),
    seen=st.integers(min_value=0, max_value=2422),
)
def test_update_equals_a_brute_force_filter_on_every_placement(h, w, picks, weights, in_prior, seen):
    prior = {DECISION_STATES[i]: p for i, p in zip(picks, weights)}  # drawn order: often unsorted
    true = DECISION_STATES[picks[seen % len(picks)]] if in_prior else DECISION_STATES[seen]
    for top, left in product(range(4 - h), range(4 - w)):
        cells = WindowPlacement(top=top, left=left, shape=WindowShape(h, w)).cells()
        contents = tuple(oracles.cells_of(true)[c] for c in cells)
        matched = {s: p for s, p in prior.items() if tuple(oracles.cells_of(s)[c] for c in cells) == contents}
        total = math.fsum(matched.values())
        want = [(s, matched[s] / total) for s in sorted(matched)]
        for cached in ("none", "some", "all"):
            for by_hand in (True, False):
                # a fresh placement, so its read cache holds exactly what this case puts in it
                placement = WindowPlacement(top=top, left=left, shape=WindowShape(h, w))
                for k, s in enumerate(prior):
                    if cached == "all" or (cached == "some" and k % 2 == 0):
                        placement.observe(s)
                if by_hand:
                    obs = read(placement, contents)
                else:
                    obs = placement.observe(true)
                if not matched:
                    with pytest.raises(ZeroEvidenceError):
                        update(prior, obs)
                    continue
                got = update(prior, obs)
                assert list(got.items()) == want  # exact values, keys ascending
