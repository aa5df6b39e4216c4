import pytest
from hypothesis import given
from hypothesis import strategies as st

from rbtbench.game import (
    O_WINS,
    GameStatus,
    board_marks,
    cell_mark,
    enumerate_reachable_states,
    reachable_boards,
    transitions,
)
from rbtbench.opponents import EpsilonMinimaxOpponent, MinimaxOpponent, UniformRandomOpponent, _reply_table
from rbtbench.solver import _entry_keys

import oracles

E, X, O = 0, 1, 2


def board(*cells):
    return oracles.board_index(cells)


def test_encode_examples():
    after_x = transitions()[0][0][1]  # the empty board's X moves
    assert after_x[0] == board(X, E, E, E, E, E, E, E, E) == 1
    assert after_x[4] == board(E, E, E, E, X, E, E, E, E) == 81


def test_decode_examples():
    assert tuple(cell_mark(0, c) for c in range(9)) == (E,) * 9
    assert tuple(cell_mark(81, c) for c in range(9)) == (E, E, E, E, X, E, E, E, E)


def status(index):
    return reachable_boards()[index][0]


def empty_cells(index):
    return reachable_boards()[index][2]


def test_status_examples():
    assert status(0) is GameStatus.IN_PROGRESS
    assert status(board(X, X, X, O, O, E, E, E, E)) is GameStatus.X_WINS
    # full board with no line, checked against the oracle's line scan
    drawn = (X, X, O, O, O, X, X, X, O)
    assert oracles.winner(drawn) == 0 and oracles.is_full(drawn)
    assert status(board(*drawn)) is GameStatus.DRAW


def test_board_marks_match_the_oracle_cells_on_every_reachable_board():
    marks = board_marks()
    assert [i for i, m in enumerate(marks) if m != -1] == sorted(reachable_boards())
    assert len(marks) == 3**9 and len(reachable_boards()) == 5478
    for index in reachable_boards():
        m, cells = marks[index], oracles.cells_of(index)
        assert m == sum(1 << c for c in range(9) if cells[c] == X) | sum(1 << 9 + c for c in range(9) if cells[c] == O)


def test_status_matches_oracle_on_every_reachable_board():
    for index in enumerate_reachable_states():
        cells = oracles.cells_of(index)
        w = oracles.winner(cells)
        expected = {
            1: GameStatus.X_WINS,
            2: GameStatus.O_WINS,
        }.get(w, GameStatus.DRAW if oracles.is_full(cells) else GameStatus.IN_PROGRESS)
        assert status(index) is expected


def test_mover_follows_the_cell_parity_on_every_reachable_board():
    for index, (_, mover, _) in reachable_boards().items():
        cells = oracles.cells_of(index)
        assert mover == (X if cells.count(X) == cells.count(O) else O), index


def test_the_reachable_pass_records_every_board_with_its_empty_cells():
    # status and mover are checked against the oracle by the two tests above
    boards = reachable_boards()
    assert boards.keys() == enumerate_reachable_states()
    for index, (_, _, cells) in boards.items():
        assert list(cells) == oracles.empties(oracles.cells_of(index)), index
    marks = [9 - len(cells) for _, _, cells in boards.values()]
    assert marks == sorted(marks)  # boards with fewer marks come first


def test_valid_actions_examples():
    assert empty_cells(0) == tuple(range(9))
    assert empty_cells(board(X, X, O, O, O, X, X, X, O)) == ()
    assert empty_cells(board(E, E, E, E, X, E, E, E, E)) == (0, 1, 2, 3, 5, 6, 7, 8)


def test_apply_action_examples():
    moves, replies = transitions()
    b = moves[0][1][4]
    assert b == board(E, E, E, E, X, E, E, E, E)
    assert 4 not in empty_cells(b)  # a second mark on 4 is not a legal move
    b2 = replies[b][0]
    assert b2 == board(O, E, E, E, X, E, E, E, E)
    assert moves[b2][0][4] == -1.0 and 4 not in moves[b2][1]  # X on 4 again ends the episode


def test_apply_action_changes_only_the_target():
    b = board(X, E, O, E, X, E, E, E, E)
    after = transitions()[1][b][7]
    for i in range(9):
        if i == 7:
            assert cell_mark(after, i) == O
        else:
            assert cell_mark(after, i) == cell_mark(b, i)
    assert len(empty_cells(after)) == len(empty_cells(b)) - 1


def test_enumerate_reachable_states_matches_bruteforce():
    reachable = enumerate_reachable_states()
    oracle = {oracles.board_index(c) for c in oracles.all_reachable_boards()}
    assert reachable == frozenset(oracle)
    assert len(reachable) == 5478
    assert 0 in reachable


def test_enumerate_reachable_states_is_the_records_key_view():
    # no second copy of the 5478 boards: the set is a view of the one pass's records
    reachable = enumerate_reachable_states()
    assert type(reachable) is type({}.keys())
    assert reachable == reachable_boards().keys()
    assert not hasattr(enumerate_reachable_states, "cache_info")


def test_reachable_states_respect_parity():
    for index in enumerate_reachable_states():
        cells = oracles.cells_of(index)
        assert cells.count(X) - cells.count(O) in (0, 1)


def test_reachable_states_closed_under_legal_play():
    reachable = enumerate_reachable_states()
    moves, replies = transitions()
    for index, (ends, after_x) in moves.items():
        assert index in reachable
        # every legal X move either ends the episode with a win or a draw, or has an after-X board
        assert {a for a, r in enumerate(ends) if r != -1.0} | after_x.keys() == set(empty_cells(index))
        for board in after_x.values():
            assert board in reachable
            # every O reply that does not end the game is a decision state again
            assert all(succ in moves for succ in replies[board] if succ != O_WINS)


@given(st.sampled_from(sorted(enumerate_reachable_states())))
def test_round_trip_on_reachable_boards(index):
    assert oracles.board_index(tuple(cell_mark(index, c) for c in range(9))) == index


def x_to_move_states():
    """The oracle's in-progress boards with as many X as O marks."""
    return [
        oracles.board_index(cells)
        for cells in oracles.all_reachable_boards()
        if not oracles.winner(cells) and not oracles.is_full(cells) and cells.count(X) == cells.count(O)
    ]


def test_transitions_have_the_shape_solve_q_walks():
    moves, replies = transitions()
    # every decision state once, fewest empty cells first, then by index
    assert len(moves) == 2423
    by_empties = sorted(x_to_move_states(), key=lambda i: (len(oracles.empties(oracles.cells_of(i))), i))
    assert list(moves) == by_empties
    # one reply table per in-progress after-X board, and one shared tuple per distinct `ends`
    assert len(replies) == 2097
    assert replies.keys() == {after_x for _, after in moves.values() for after_x in after.values()}
    assert len({id(ends) for ends, _ in moves.values()}) == len({ends for ends, _ in moves.values()}) == 69
    for index, (ends, after) in moves.items():
        cells = oracles.cells_of(index)
        assert list(after) == sorted(after)
        for action in range(9):
            after_x = oracles.put(cells, action, X)
            if cells[action] != E:
                assert ends[action] == -1.0 and action not in after
            elif oracles.winner(after_x) == X:
                assert ends[action] == 1.0 and action not in after
            elif oracles.is_full(after_x):
                assert ends[action] == 0.0 and action not in after
            else:
                assert after[action] == oracles.board_index(after_x)
    for after_x, succ in replies.items():
        cells = oracles.cells_of(after_x)
        for reply in oracles.empties(cells):
            after_o = oracles.put(cells, reply, O)
            assert not oracles.is_full(after_o)  # it holds at most 8 marks, so no reply ends in a draw
            assert succ[reply] == (O_WINS if oracles.winner(after_o) == O else oracles.board_index(after_o))


def test_entry_keys_are_the_keys_of_moves():
    assert frozenset(_entry_keys().values()) == frozenset(transitions()[0])
    assert list(_entry_keys()) == sorted(map(str, transitions()[0]))  # as save_qtable orders them


@pytest.mark.parametrize("model", [UniformRandomOpponent(), MinimaxOpponent(), EpsilonMinimaxOpponent(0.3)])
def test_each_reply_table_covers_exactly_the_after_x_boards(model):
    assert _reply_table(model.eps).keys() == transitions()[1].keys()
