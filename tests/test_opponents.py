import math

import pytest

from rbtbench import opponents
from rbtbench.game import transitions
from rbtbench.opponents import (
    EpsilonMinimaxOpponent,
    MinimaxOpponent,
    UniformRandomOpponent,
    from_descriptor,
    _patterns,
    _reply_table,
    game_value,
    reply_distribution,
)

import oracles

E, X, O = 0, 1, 2


def board(*cells):
    return oracles.board_index(cells)


def replies(model, index):
    """Reply probabilities on an O-to-move board, as a dict by cell."""
    return dict(reply_distribution(model, index))


def o_to_move_states():
    """Every reachable, unfinished board with O to move, from the oracle's own enumeration."""
    return sorted(
        oracles.board_index(cells)
        for cells in oracles.all_reachable_boards()
        if not oracles.winner(cells) and not oracles.is_full(cells) and cells.count(1) > cells.count(2)
    )


def test_uniform_on_center_opening():
    b = board(E, E, E, E, X, E, E, E, E)
    dist = replies(UniformRandomOpponent(), b)
    assert set(dist) == {0, 1, 2, 3, 5, 6, 7, 8}
    assert all(math.isclose(p, 1 / 8) for p in dist.values())


def test_uniform_on_minimal_reply_set():
    # O to move implies an even number of empty cells, so two is the minimum
    b = board(X, X, O, O, O, X, X, E, E)
    dist = replies(UniformRandomOpponent(), b)
    assert dist == {7: 0.5, 8: 0.5}


def test_minimax_takes_an_immediate_win():
    # O wins at cell 2; winning is uniquely optimal
    b = board(O, O, E, X, X, E, X, E, E)
    dist = replies(MinimaxOpponent(), b)
    assert dist == {2: 1.0}


def test_minimax_blocks_a_threat():
    # X threatens 0-1-2; every non-blocking O reply loses
    b = board(X, X, E, E, O, E, E, O, X)
    dist = replies(MinimaxOpponent(), b)
    assert set(dist) == {2}


def test_minimax_splits_ties_uniformly():
    for index in o_to_move_states()[::17]:
        dist = replies(MinimaxOpponent(), index)
        probs = set(dist.values())
        assert len(probs) == 1
        assert math.isclose(sum(dist.values()), 1.0, abs_tol=1e-9)
        assert set(dist) <= set(oracles.empties(oracles.cells_of(index)))


def test_eps_zero_equals_minimax_and_eps_one_equals_uniform():
    for index in o_to_move_states()[::29]:
        assert replies(EpsilonMinimaxOpponent(0.0), index) == replies(MinimaxOpponent(), index)
        got = replies(EpsilonMinimaxOpponent(1.0), index)
        want = replies(UniformRandomOpponent(), index)
        assert set(got) == set(want)
        assert all(math.isclose(got[a], want[a], abs_tol=1e-12) for a in got)


@pytest.mark.parametrize("eps", [0.25, 0.5])
def test_eps_mixture_keeps_full_support_with_floor(eps):
    for index in o_to_move_states()[::23]:
        dist = replies(EpsilonMinimaxOpponent(eps), index)
        legal = oracles.empties(oracles.cells_of(index))
        assert set(dist) == set(legal)
        floor = eps / len(legal)
        assert all(p >= floor - 1e-12 for p in dist.values())
        assert math.isclose(sum(dist.values()), 1.0, abs_tol=1e-9)


def test_eps_out_of_range_rejected():
    with pytest.raises(ValueError):
        EpsilonMinimaxOpponent(1.5)


@pytest.mark.parametrize("eps", [True, False, "0.5", None, [0.5]], ids=["true", "false", "string", "none", "list"])
def test_an_eps_that_is_not_a_number_is_rejected(eps):
    # True == 1 in Python, but a bool eps wrote a header load_qtable refuses
    with pytest.raises(ValueError, match="eps_minimax must be a number"):
        EpsilonMinimaxOpponent(eps)


@pytest.mark.parametrize("eps", [0, 1])
def test_an_int_eps_is_stored_as_its_float(eps):
    model = EpsilonMinimaxOpponent(eps)
    assert type(model.eps) is float and model.eps == eps
    assert model == EpsilonMinimaxOpponent(float(eps))
    assert model.descriptor == {"eps_minimax": float(eps)}


def test_terminal_board_rejected():
    won = board(X, X, X, O, O, E, E, E, E)
    with pytest.raises(ValueError, match=rf"^board {won} is terminal$"):
        replies(UniformRandomOpponent(), won)


def test_x_to_move_rejected():
    with pytest.raises(ValueError, match="X to move"):
        reply_distribution(UniformRandomOpponent(), 0)


def test_unreachable_board_rejected():
    # two X marks and no O: O is "to move" by parity, but legal play never gets here
    b = board(X, X, E, E, E, E, E, E, E)
    for model in (UniformRandomOpponent(), MinimaxOpponent(), EpsilonMinimaxOpponent(0.5)):
        with pytest.raises(ValueError, match="not reachable"):
            reply_distribution(model, b)


@pytest.mark.parametrize("model, kind", [(UniformRandomOpponent(), "uniform"), (MinimaxOpponent(), "minimax")],
                         ids=["uniform", "minimax"])
def test_minimax_agrees_with_oracle_reply_sets(model, kind):
    # the ordered (cell, probability) tuples, on every O-to-move board
    boards = o_to_move_states()
    assert len(boards) == 2097
    for index in boards:
        cells = oracles.cells_of(index)
        assert reply_distribution(model, index) == tuple(oracles.reply_probs(cells, kind)), index


def counted_game_value(monkeypatch) -> list:
    """Count calls of ``opponents.game_value`` through the module global, the one its caller reads."""
    calls = []
    monkeypatch.setattr(opponents, "game_value", lambda: calls.append(1) or game_value())
    return calls


def test_uniform_reply_table_does_not_compute_game_values(monkeypatch):
    # a uniform-only run must not pay for the minimax values of the whole game
    calls = counted_game_value(monkeypatch)
    _patterns.cache_clear()
    _reply_table.__wrapped__(UniformRandomOpponent().eps)
    assert calls == []


def test_eps_one_reply_table_does_not_compute_game_values_and_equals_the_uniform_table(monkeypatch):
    # eps == 1 groups boards by their empty cells alone for the eps class too, not only for UniformRandomOpponent
    uniform = _reply_table(UniformRandomOpponent().eps)
    calls = counted_game_value(monkeypatch)
    _patterns.cache_clear()
    table = _reply_table.__wrapped__(EpsilonMinimaxOpponent(1.0).eps)
    assert calls == []

    def hexed(t):
        return [(i, [(c, p.hex()) for c, p in replies]) for i, replies in t.items()]

    assert hexed(table) == hexed(uniform)


@pytest.mark.parametrize("model, n_tuples, n_pairs", [
    (UniformRandomOpponent(), 255, 36),
    (MinimaxOpponent(), 237, 45),
    (EpsilonMinimaxOpponent(0.05), 1014, 143),
    (EpsilonMinimaxOpponent(0.35), 1014, 143),
], ids=["uniform", "minimax", "eps0.05", "eps0.35"])
def test_reply_table_holds_one_object_per_distinct_tuple_and_pair(model, n_tuples, n_pairs):
    table = _reply_table(model.eps)
    assert list(table) == list(transitions()[1])  # every O-to-move board, in the rules' order
    tuples = table.values()
    pairs = [pair for replies in tuples for pair in replies]
    assert len({id(t) for t in tuples}) == len(set(tuples)) == n_tuples
    assert len({id(pair) for pair in pairs}) == len(set(pairs)) == n_pairs


# the solve-grid eps values, 0 (minimax) and 1 (uniform), and eps so small that the ulp correction moves a
# probability up
EPS_GRID = [k / 20 for k in range(21)] + [3e-16, 2e-16, 1e-15, 1e-14]


@pytest.mark.parametrize("eps", EPS_GRID)
def test_the_reply_rule_runs_once_per_pattern_of_best_replies(eps, monkeypatch):
    calls = []
    rule = opponents._replies

    def counting(eps, best):
        calls.append(best)
        return rule(eps, best)

    monkeypatch.setattr(opponents, "_replies", counting)
    table = _reply_table.__wrapped__(eps)
    assert len(calls) == len(set(calls)) <= (4 if eps == 1.0 else 61)
    assert table == _reply_table(eps)


def test_the_minimax_pattern_index_reads_the_game_values_once(monkeypatch):
    # through the module global, which a traced run wraps
    calls = counted_game_value(monkeypatch)
    index, patterns = _patterns.__wrapped__(False)
    assert len(calls) == 1
    assert len(index) == 2097 and len(patterns) == 61
    assert (index, patterns) == _patterns(False)


def test_game_value_agrees_with_the_oracle_on_every_decision_state_and_after_x_board():
    moves, replies = transitions()
    values = game_value()
    for index in (*moves, *replies):  # the after-X boards too
        assert values[index] == oracles.minimax_value(oracles.cells_of(index)), index
    assert values[0] == 0  # perfect play draws


@pytest.mark.parametrize("eps", EPS_GRID)
def test_eps_replies_equal_the_dict_then_sorted_formula_exactly(eps):
    # episodes with an eps opponent sample from these tuples, which the
    # Q-table digests do not cover; the table is built per pattern of best
    # replies, and each board's tuple must equal this per-board rule bit for bit
    model = EpsilonMinimaxOpponent(eps)
    for index in o_to_move_states():
        want = oracles.eps_minimax_reply_tuple(oracles.cells_of(index), eps)
        assert [(c, p.hex()) for c, p in reply_distribution(model, index)] == [(c, p.hex()) for c, p in want]


@pytest.mark.parametrize(
    "model",
    # the eps grid, and three eps values so small that the last reply's
    # share is below the rounding error of the others (at 3e-16 the plain sum
    # falls more than an ulp short of 1 on 31 boards)
    [UniformRandomOpponent(), MinimaxOpponent()]
    + [EpsilonMinimaxOpponent(eps) for eps in [k / 20 for k in range(21)] + [3e-16, 1e-15, 1e-14]],
    ids=lambda model: model.descriptor if isinstance(model.descriptor, str) else f"eps{model.eps}",
)
def test_reply_probabilities_sum_to_one_within_an_ulp(model):
    # Summed left to right, as reply sampling, predict and the solver add
    # them up: never above 1, and at most one ulp below it.
    boards = o_to_move_states()
    assert len(boards) == 2097
    for index in boards:
        probs = [p for _, p in reply_distribution(model, index)]
        total = 0.0
        for p in probs:
            total += p
        assert 1.0 - math.ulp(1.0) <= total <= 1.0, (index, total)
        assert abs(math.fsum(probs) - 1.0) <= math.ulp(1.0), index
        assert all(p > 0.0 for p in probs), index


def test_descriptor_round_trip():
    for model in (UniformRandomOpponent(), MinimaxOpponent(), EpsilonMinimaxOpponent(0.25)):
        assert from_descriptor(model.descriptor) == model
    with pytest.raises(ValueError):
        from_descriptor("alphabeta")
