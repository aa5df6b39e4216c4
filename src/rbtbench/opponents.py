"""Opponent move models.

The opponent sees the whole board, so each model maps a reachable O-to-move
board to a probability distribution over its legal replies.  One rule,
``_replies(eps, best)``, plays uniformly with probability eps and minimax
(game-theoretic best replies, ties split uniformly) otherwise; the three
models are its eps:

* ``UniformRandomOpponent`` -- eps 1, every legal reply equally likely.
* ``MinimaxOpponent`` -- eps 0, read off the minimax values of the whole game.
* ``EpsilonMinimaxOpponent(eps)`` -- any eps in [0, 1].

Models are frozen, hashable values.  The rule sees only
which of a board's empty cells are best replies: 61 patterns among the 2097
boards O can move on, 4 for eps 1 (only their number).  ``_patterns`` numbers
them in one walk of those boards, so the rule runs once per pattern:
``solve_q`` folds each board's cells with its pattern's probabilities, and
``reply_distribution``, the episodes' entry point, reads a table per eps with
one object per distinct reply tuple (at most 1014) and (cell, p) pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import nextafter, ulp
from typing import Union

from .game import O_WINS, reachable_boards, transitions


class TerminalStateError(ValueError):
    """Opponent asked to move on a finished board."""


def game_value() -> dict[int, int]:
    """Minimax value (+1, 0 or -1 for X) of every decision state and after-X board, bottom-up over ``transitions()``.

    O takes the min over its legal replies, X the max over ``ends`` and its after-X boards.
    """
    moves, replies = transitions()
    boards = reachable_boards()
    values = {O_WINS: -1}
    for index, (ends, after_x) in moves.items():  # fewest empty cells first: successors are known
        for board in after_x.values():
            if board not in values:
                values[board] = min(values[replies[board][c]] for c in boards[board][2])
        values[index] = int(max(*ends, *(values[board] for board in after_x.values())))
    return values


def _replies(eps: float, best: tuple[bool, ...]) -> list[float]:
    """O's probability for each of its empty cells under the reply rule with this eps, 0.0 for a cell it never
    plays; best[j] says whether the j-th empty cell is a best reply, and nothing else about a board matters."""
    base = eps / len(best)
    share = 1.0 - eps
    # eps / n plus (1 - eps) * p, in this order: Q-tables and episode sampling
    # depend on these exact floats; uniform (share 0) needs no best replies
    top = base + share * (1.0 / best.count(True)) if share else base
    probs = [top if b else base for b in best]
    # Summed in the order sampling and the solver sum them, rounding can put the
    # total above 1, or (eps 3e-16) more than an ulp below it; then the largest
    # probability moves one ulp toward the gap at a time until it does not (at
    # most four steps down on the eps grid, one up for eps 2e-16 to 1e-15).
    while True:
        total = 0.0
        for p in probs:
            total += p
        if 1.0 - ulp(1.0) <= total <= 1.0:
            return probs
        j = probs.index(max(probs))
        probs[j] = nextafter(probs[j], 0.0 if total > 1.0 else 2.0)


# eps (for _replies) and descriptor (the Q-table header tag) are class constants, not fields
@dataclass(frozen=True)
class UniformRandomOpponent:
    """Every legal reply equally likely: the reply rule with eps 1."""
    eps = 1.0
    descriptor = "uniform"


@dataclass(frozen=True)
class MinimaxOpponent:
    """The game-theoretic best replies, ties split uniformly: the reply rule with eps 0."""
    eps = 0.0
    descriptor = "minimax"


@dataclass(frozen=True)
class EpsilonMinimaxOpponent:
    """Uniform with probability ``eps``, minimax otherwise: the reply rule with this eps."""
    eps: float

    def __post_init__(self):
        if isinstance(self.eps, bool) or not isinstance(self.eps, (int, float)):
            raise ValueError(f"eps_minimax must be a number, got {self.eps!r}")
        if not 0.0 <= self.eps <= 1.0:
            raise ValueError(f"eps must be in [0, 1], got {self.eps}")
        object.__setattr__(self, "eps", float(self.eps) + 0.0)  # written to a Q-table as a float; -0.0 as 0.0

    descriptor = property(lambda self: {"eps_minimax": self.eps})


OpponentModel = Union[UniformRandomOpponent, MinimaxOpponent, EpsilonMinimaxOpponent]


@lru_cache(maxsize=None)
def _patterns(uniform: bool) -> tuple[dict[int, tuple[int, tuple[int, ...], tuple[int, ...]]], list[tuple[bool, ...]]]:
    """``(index, patterns)``: after-X board -> (k, cells, succ), its pattern's number, empty cells and reply row;
    pattern k says which of a board's cells are best replies (none, if uniform), numbered by first appearance."""
    boards, values = reachable_boards(), None if uniform else game_value()
    numbers, index = {}, {}
    for i, succ in transitions()[1].items():
        cells = boards[i][2]
        best = (False,) * len(cells) if uniform else tuple(values[succ[c]] == values[i] for c in cells)
        index[i] = (numbers.setdefault(best, len(numbers)), cells, succ)
    return index, list(numbers)


def _pattern_replies(eps: float) -> tuple[dict[int, tuple[int, tuple[int, ...], tuple[int, ...]]], list[list[float]]]:
    """``solve_q``'s view of the rule: ``_patterns``'s index for this eps, and at k the k-th pattern's ``_replies``."""
    index, patterns = _patterns(eps == 1.0)
    return index, [_replies(eps, best) for best in patterns]


@lru_cache(maxsize=None)
def _reply_table(eps: float) -> dict[int, tuple[tuple[int, float], ...]]:
    """Board -> (cell, probability) pairs under the reply rule with this eps, for every board O can move on:
    the after-X boards of the rules, in their order; episodes read it, the solver does not.

    ``_replies`` runs once per pattern of best replies (61, or 4 for eps 1) and each tuple once per pattern and
    cells; equal reply tuples, and equal pairs within them, are one object.
    """
    index, probs = _pattern_replies(eps)
    shared, made, table = {}, {}, {}
    for i, (k, cells, _) in index.items():
        replies = made.get((k, cells))
        if replies is None:
            replies = tuple([shared.setdefault(pair, pair) for pair in zip(cells, probs[k]) if pair[1] > 0.0])
            replies = made[k, cells] = shared.setdefault(replies, replies)
        table[i] = replies
    return table


def reply_distribution(model: OpponentModel, index: int) -> tuple[tuple[int, float], ...]:
    """(cell, probability) pairs for a reachable, O-to-move, non-terminal board index, from the model's table.

    Only a board not in the table is checked, to raise ValueError if legal play cannot reach it,
    TerminalStateError if it is finished and ValueError if X is to move.
    """
    try:
        return _reply_table(model.eps)[index]  # a float hashes faster than the model
    except KeyError:
        pass
    if index not in reachable_boards():
        raise ValueError(f"board {index} is not reachable by legal play from the empty board")
    if index not in transitions()[0]:
        raise TerminalStateError(f"board {index} is terminal")
    raise ValueError(f"board {index} has X to move; the opponent plays O")


def from_descriptor(desc) -> OpponentModel:
    if desc == "uniform":
        return UniformRandomOpponent()
    if desc == "minimax":
        return MinimaxOpponent()
    if isinstance(desc, dict) and set(desc) == {"eps_minimax"}:
        return EpsilonMinimaxOpponent(desc["eps_minimax"])
    raise ValueError(f"unknown opponent descriptor {desc!r}")
