"""TicTacToe ground rules on integer boards: win detection and move application.

The agent always plays X and moves first; the opponent plays O.  A board is a
base-3 integer (cell i contributes digit*3^i with empty=0, X=1, O=2), so every
board is a key in [0, 19683) and Q-table files and belief dictionaries stay
bit-stable.  This integer encoding is the only board representation: the
solver, the opponents, the belief filter and the episode loop all work on it
through `cell_mark`, `place_mark`, `index_status` and `empty_cells`.
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


class GameStatus(Enum):
    IN_PROGRESS = "in_progress"
    X_WINS = "x_wins"
    O_WINS = "o_wins"
    DRAW = "draw"


class InvalidStateError(ValueError):
    """Board violates the reachable-game invariants (both players hold a line)."""


def cell_mark(index: int, cell: int) -> int:
    """Digit (0 empty / 1 X / 2 O) of one cell, straight from the encoding."""
    return index // POW3[cell] % 3


def place_mark(index: int, cell: int, mark: int) -> int:
    """Successor index after marking an *empty* cell; caller guarantees emptiness."""
    return index + mark * POW3[cell]


@lru_cache(maxsize=None)
def index_status(index: int) -> GameStatus:
    """Win, loss, draw or in progress; raises InvalidStateError on a double line."""
    cells = [index // p % 3 for p in POW3]
    x_line = any(cells[a] == 1 and cells[b] == 1 and cells[c] == 1 for a, b, c in LINES)
    o_line = any(cells[a] == 2 and cells[b] == 2 and cells[c] == 2 for a, b, c in LINES)
    if x_line and o_line:
        raise InvalidStateError("both players have a completed line")
    if x_line:
        return GameStatus.X_WINS
    if o_line:
        return GameStatus.O_WINS
    if all(c != 0 for c in cells):
        return GameStatus.DRAW
    return GameStatus.IN_PROGRESS


@lru_cache(maxsize=None)
def empty_cells(index: int) -> tuple[int, ...]:
    return tuple(c for c in range(9) if index // POW3[c] % 3 == 0)


@lru_cache(maxsize=None)
def index_to_move(index: int) -> int:
    digits = [index // p % 3 for p in POW3]
    return 1 if digits.count(1) == digits.count(2) else 2


@lru_cache(maxsize=None)
def enumerate_reachable_states() -> frozenset[int]:
    """Every board reachable from the empty board under alternating legal play.

    Terminal boards are included (the solver needs them as successors); boards
    that could only arise from play continuing past a win are not.
    """
    seen = {0}
    frontier = [0]
    while frontier:
        index = frontier.pop()
        if index_status(index) is not GameStatus.IN_PROGRESS:
            continue
        mover = index_to_move(index)
        for cell in empty_cells(index):
            successor = index + mover * POW3[cell]
            if successor not in seen:
                seen.add(successor)
                frontier.append(successor)
    return frozenset(seen)
