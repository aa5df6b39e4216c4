"""TicTacToe ground rules on integer boards: the reachable game and its move table.

The agent always plays X and moves first; the opponent plays O.  A board is a
base-3 integer (cell i contributes digit*3^i with empty=0, X=1, O=2), so every
board is a key in [0, 19683) and Q-table files and belief dictionaries stay
bit-stable.  This integer encoding is the only board representation.

``reachable_boards`` builds the reachable game in one pass, layer by layer
from the empty board: each board carries its marks (``board_marks()``), one
18-bit int with its X cells in bits 0-8 and its O cells in bits 9-17, a
successor's being its parent's with the mover's bit set.  The pass records
each board's status (read through a 512-entry "has a line" table built from
``LINES``), mover and empty cells.  Only boards in progress get successors, so
no recorded board has a line for both players.  Those records are the only
source of board facts, and a board outside them is not a legal position.

The same pass then turns the records into the move rules (``transitions``),
the one place that knows them: X marks a cell, then either the episode ends
(invalid move, win or draw) or O replies and it may end in a loss, never a
draw: O's reply leaves a cell empty.  The solver, the belief filter's
prediction, the episode loop and the minimax values all read them.
"""

from __future__ import annotations

from array import array
from enum import Enum
from functools import lru_cache, reduce

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
# each mask's cells, ascending, by doubling: for mask < 1 << c, those of mask | 1 << c are mask's, then c
_CELLS = tuple(reduce(lambda cells, c: cells + [before + (c,) for before in cells], range(9), [()]))
# whether a mask holds a line: whether it is one of a line's supersets, line | mask for some mask
_HAS_LINE = tuple(map({line | mask for line in _LINE_MASKS for mask in range(512)}.__contains__, range(512)))


class GameStatus(Enum):
    IN_PROGRESS = "in_progress"
    X_WINS = "x_wins"
    O_WINS = "o_wins"
    DRAW = "draw"


def cell_mark(index: int, cell: int) -> int:
    """Digit (0 empty / 1 X / 2 O) of one cell, straight from the encoding."""
    return index // POW3[cell] % 3


# An O reply's entry in ``transitions()``'s reply table when it wins, the only
# way it ends the game; every other entry is a board index, so never negative.
O_WINS = -1


@lru_cache(maxsize=None)
def _game() -> tuple[dict, array, tuple[dict, dict]]:
    """The one pass: ``(reachable_boards(), board_marks(), transitions())``, one layer (one more mark) at a time."""
    in_progress, x_wins, o_wins, draw = GameStatus  # locals: a read off the Enum class costs ~0.2 µs
    boards, marks = {}, array("i", [-1]) * 3**9  # 4 bytes a board, no int objects
    layers, layer, mover = [], {0: 0}, 1  # layer: board -> its marks
    while layer:
        layers.append(layer)
        successors: dict[int, int] = {}
        bit = 1 if mover == 1 else 1 << 9  # the mover's mark on cell 0
        for index, m in layer.items():
            marks[index] = m
            x, o = m & _FULL, m >> 9
            status = x_wins if _HAS_LINE[x] else o_wins if _HAS_LINE[o] else draw if x | o == _FULL else in_progress
            cells = _CELLS[_FULL ^ (x | o)]
            boards[index] = (status, mover, cells)
            if status is not in_progress:
                continue
            for cell in cells:
                successor = index + mover * POW3[cell]
                if successor not in successors:
                    successors[successor] = m | bit << cell
        layer, mover = successors, 3 - mover
    moves, replies, shared = {}, {}, {}
    for layer in reversed(layers[::2]):  # X to move, most marks first: a state's successors come before it
        for index in sorted(layer):
            if boards[index][0] is not in_progress:
                continue
            ends = [-1.0] * 9
            after_x = {}
            for action in boards[index][2]:
                board = index + POW3[action]  # X mark = digit 1
                st, _, reply_cells = boards[board]
                if st is not in_progress:
                    ends[action] = 1.0 if st is x_wins else 0.0
                    continue
                after_x[action] = board
                if board not in replies:
                    succ = [O_WINS] * 9  # the occupied cells' slots are never read
                    for reply in reply_cells:
                        after_o = board + 2 * POW3[reply]  # O mark = digit 2
                        st = boards[after_o][0]
                        succ[reply] = after_o if st is in_progress else O_WINS
                    replies[board] = tuple(succ)
            ends = tuple(ends)
            moves[index] = (shared.setdefault(ends, ends), after_x)
    return boards, marks, (moves, replies)


def reachable_boards() -> dict[int, tuple[GameStatus, int, tuple[int, ...]]]:
    """Board -> (status, mark to move, empty cells), for every reachable board, fewest marks first."""
    return _game()[0]


def board_marks() -> array:
    """X cells | O cells << 9 of every reachable board, indexed by board; -1 at any other index."""
    return _game()[1]


def enumerate_reachable_states():
    """Every board reachable from the empty board under alternating legal play, as ``reachable_boards()``'s keys.

    Terminal boards are included (the solver needs them as successors); boards
    that could only arise from play continuing past a win are not.
    """
    return reachable_boards().keys()


def transitions() -> tuple[dict[int, tuple[tuple[float, ...], dict[int, int]]], dict[int, tuple[int, ...]]]:
    """The move rules from every decision state, as ``(moves, replies)``; built once, only read.

    ``moves`` maps each decision state (a reachable, in-progress board with X
    to move), fewest empty cells first, so each state's successors come
    before it, to ``(ends, after_x)``.  ``ends[a]`` is the reward of an action
    that ends the episode at once: -1 on an occupied cell, +1 for a win and 0
    for filling the board (69 distinct tuples, shared).  ``after_x`` maps every
    other action, ascending, to its in-progress after-X board.  ``replies``
    maps each such board to a nine-slot tuple holding, for each cell O may
    reply on, the after-O board or ``O_WINS``.
    """
    return _game()[2]
