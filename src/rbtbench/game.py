"""TicTacToe ground rules on integer boards: the reachable game and its move table.

The agent always plays X and moves first; the opponent plays O.  A board is a
base-3 integer (cell i contributes digit*3^i with empty=0, X=1, O=2), so every
board is a key in [0, 19683) and Q-table files and belief dictionaries stay
bit-stable.  This integer encoding is the only board representation.

``reachable_boards`` builds the reachable game in one pass, layer by layer
from the empty board: each board carries two 9-bit masks, of its X and of its
O cells, a successor's being its parent's with the mover's bit set, and the
pass records each board's status, mover and empty cells as it goes.  Status
is read from the masks through a 512-entry "has a line" table built from
``LINES``.  Only boards in progress get successors, so no recorded board has
a line for both players.  Those records are the only source of board facts,
and a board outside them is not a legal position.

``transitions`` turns the records into the move rules, the one place that
knows them: X marks a cell, then either the episode ends (invalid move, win
or draw) or O replies and it may end (loss or draw).  The solver, the belief
filter's prediction, the episode loop and the minimax values all read it.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache

# Cell index of each action, row-major: action k marks cell (k // 3, k % 3).
Action = int

POW3 = tuple(3**i for i in range(9))

LINES = (
    (0, 1, 2), (3, 4, 5), (6, 7, 8),  # rows
    (0, 3, 6), (1, 4, 7), (2, 5, 8),  # columns
    (0, 4, 8), (2, 4, 6),             # diagonals
)

_FULL = 0b111111111  # the mask of all nine cells
_LINE_MASKS = tuple(sum(1 << c for c in line) for line in LINES)
_HAS_LINE = tuple(any(mask & line == line for line in _LINE_MASKS) for mask in range(512))
_CELLS = tuple(tuple(c for c in range(9) if mask >> c & 1) for mask in range(512))  # ascending


class GameStatus(Enum):
    IN_PROGRESS = "in_progress"
    X_WINS = "x_wins"
    O_WINS = "o_wins"
    DRAW = "draw"


def cell_mark(index: int, cell: int) -> int:
    """Digit (0 empty / 1 X / 2 O) of one cell, straight from the encoding."""
    return index // POW3[cell] % 3


def _status(x: int, o: int) -> GameStatus:
    """A board's status from its X and O masks; the pass never builds a board where both hold a line."""
    if _HAS_LINE[x]:
        return GameStatus.X_WINS
    if _HAS_LINE[o]:
        return GameStatus.O_WINS
    return GameStatus.DRAW if x | o == _FULL else GameStatus.IN_PROGRESS


@lru_cache(maxsize=None)
def reachable_boards() -> dict[int, tuple[GameStatus, int, tuple[int, ...]]]:
    """Board -> (status, mark to move, empty cells), for every reachable board, fewest marks first.

    One pass, one layer (one more mark) at a time; only boards in progress get successors.
    """
    boards = {}
    layer = {0: (0, 0)}  # board -> (X mask, O mask)
    mover = 1
    while layer:
        successors: dict[int, tuple[int, int]] = {}
        for index, (x, o) in layer.items():
            status = _status(x, o)
            cells = _CELLS[_FULL ^ (x | o)]
            boards[index] = (status, mover, cells)
            if status is not GameStatus.IN_PROGRESS:
                continue
            for cell in cells:
                successor = index + mover * POW3[cell]
                if successor not in successors:
                    successors[successor] = (x | 1 << cell, o) if mover == 1 else (x, o | 1 << cell)
        layer, mover = successors, 3 - mover
    return boards


@lru_cache(maxsize=None)
def enumerate_reachable_states() -> frozenset[int]:
    """Every board reachable from the empty board under alternating legal play.

    Terminal boards are included (the solver needs them as successors); boards
    that could only arise from play continuing past a win are not.
    """
    return frozenset(reachable_boards())


# An O reply's entry in ``transitions()``'s reply table when it ends the game;
# every other entry is a board index, so never negative.
O_WINS = -1
DRAW = -2


@lru_cache(maxsize=None)
def transitions() -> tuple[dict[int, tuple[tuple[float, ...], dict[int, int]]], dict[int, tuple[int, ...]]]:
    """The move rules from every decision state, as ``(moves, replies)``; built once, only read.

    ``moves`` maps each decision state (a reachable, in-progress board with X
    to move), fewest empty cells first, so each state's successors come
    before it, to ``(ends, after_x)``.  ``ends[a]`` is the reward of an action
    that ends the episode at once: -1 on an occupied cell, +1 for a win and 0
    for filling the board (69 distinct tuples, shared).  ``after_x`` maps every
    other action, ascending, to its in-progress after-X board.  ``replies``
    maps each such board to a nine-slot tuple holding, for each cell O may
    reply on, the after-O board, ``O_WINS`` or ``DRAW``.
    """
    boards = reachable_boards()
    states = [i for i, (st, mover, _) in boards.items() if mover == 1 and st is GameStatus.IN_PROGRESS]
    moves, replies, shared = {}, {}, {}
    for index in sorted(states, key=lambda i: (len(boards[i][2]), i)):
        ends = [-1.0] * 9
        after_x = {}
        for action in boards[index][2]:
            board = index + POW3[action]  # X mark = digit 1
            st, _, reply_cells = boards[board]
            if st is not GameStatus.IN_PROGRESS:
                ends[action] = 1.0 if st is GameStatus.X_WINS else 0.0
                continue
            after_x[action] = board
            if board not in replies:
                succ = [DRAW] * 9
                for reply in reply_cells:
                    after_o = board + 2 * POW3[reply]  # O mark = digit 2
                    st = boards[after_o][0]
                    succ[reply] = after_o if st is GameStatus.IN_PROGRESS else O_WINS if st is GameStatus.O_WINS else DRAW
                replies[board] = tuple(succ)
        moves[index] = (shared.setdefault(tuple(ends), tuple(ends)), after_x)
    return moves, replies
