"""Opponent move models.

The opponent sees the whole board, so each model maps a reachable O-to-move
board to a probability distribution over its legal replies.  One rule,
``_replies(eps, best)``, plays uniformly with probability eps and minimax
(game-theoretic best replies, ties split uniformly) otherwise; the three
models are its eps:

* ``UniformRandomOpponent`` -- eps 1, every legal reply equally likely.
* ``MinimaxOpponent`` -- eps 0, read off the minimax values of the whole game.
* ``EpsilonMinimaxOpponent(eps)`` -- any eps in [0, 1].

Models are frozen values, shared across episode workers; a model's eps keys
one reply table.  ``reply_distribution``, the one entry point, builds the table
for every board O can move on in one pass and looks boards up there.  The rule
sees only which of a board's empty cells are best replies: 61 patterns among
the 2097 boards, and for eps 1 only their number, 4 patterns.  So it runs once
per pattern, each board's cells are zipped in, and a table keeps one object per
distinct reply tuple (at most 1014) and per distinct (cell, probability) pair.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import lru_cache
from math import nextafter, ulp
from typing import Union

from .game import DRAW, O_WINS, reachable_boards, transitions


class TerminalStateError(ValueError):
    """Opponent asked to move on a finished board."""


@lru_cache(maxsize=None)
def game_value() -> dict[int, int]:
    """Minimax value (+1, 0 or -1 for X) of every decision state and after-X board, bottom-up over ``transitions()``.

    O takes the min over its legal replies, X the max over ``ends`` and its after-X boards.
    """
    moves, replies = transitions()
    boards = reachable_boards()
    values = {O_WINS: -1, DRAW: 0}
    for index, (ends, after_x) in moves.items():  # fewest empty cells first: successors are known
        for board in after_x.values():
            if board not in values:
                values[board] = min(values[replies[board][c]] for c in boards[board][2])
        values[index] = int(max(*ends, *(values[board] for board in after_x.values())))
    return values


@lru_cache(maxsize=None)
def _minimax_replies(index: int) -> tuple[int, ...]:
    """O's game-theoretic best replies on an after-X board, in cell order."""
    values = game_value()
    succ = transitions()[1][index]
    return tuple(c for c in reachable_boards()[index][2] if values[succ[c]] == values[index])


def _replies(eps: float, best: tuple[bool, ...]) -> list[float]:
    """O's probability for each of its empty cells under the reply rule with this eps, 0.0 for a cell it never
    plays; best[j] says whether the j-th empty cell is a best reply, and nothing else about a board matters."""
    base = eps / len(best)
    share = 1.0 - eps
    # eps / n plus (1 - eps) * p, in this order: Q-tables and episode sampling
    # depend on these exact floats; uniform (share 0) needs no best replies
    top = base + share * (1.0 / best.count(True)) if share else base
    probs = [top if b else base for b in best]
    total = 0.0
    for p in probs:
        total += p
    # Summed in the order sampling and the solver sum them, rounding can put the
    # total above 1, or (eps 3e-16) more than an ulp below it; then the largest
    # probability moves one ulp toward the gap at a time until it does not (at
    # most four steps down on the eps grid, one up for eps 2e-16 to 1e-15).
    while not 1.0 - ulp(1.0) <= total <= 1.0:
        j = probs.index(max(probs))
        probs[j] = nextafter(probs[j], 0.0 if total > 1.0 else 2.0)
        total = 0.0
        for p in probs:
            total += p
    return probs


# eps (for _replies) and descriptor (the Q-table header tag) are class constants, not fields
@dataclass(frozen=True)
class UniformRandomOpponent:
    eps = 1.0
    descriptor = "uniform"


@dataclass(frozen=True)
class MinimaxOpponent:
    eps = 0.0
    descriptor = "minimax"


@dataclass(frozen=True)
class EpsilonMinimaxOpponent:
    eps: float

    def __post_init__(self):
        if not 0.0 <= self.eps <= 1.0:
            raise ValueError(f"eps must be in [0, 1], got {self.eps}")

    descriptor = property(lambda self: {"eps_minimax": self.eps})


OpponentModel = Union[UniformRandomOpponent, MinimaxOpponent, EpsilonMinimaxOpponent]


@lru_cache(maxsize=None)
def _situations(uniform: bool) -> dict[tuple[bool, ...], dict[tuple[int, ...], list[int]]]:
    """The after-X boards grouped by what their replies depend on: which of their empty cells are best
    replies (none, if uniform), then the empty cells themselves."""
    boards, groups = reachable_boards(), defaultdict(lambda: defaultdict(list))
    for i in transitions()[1]:
        cells = boards[i][2]
        best = (False,) * len(cells) if uniform else tuple(map(_minimax_replies(i).__contains__, cells))
        groups[best][cells].append(i)
    return groups


@lru_cache(maxsize=None)
def _reply_table(eps: float) -> dict[int, tuple[tuple[int, float], ...]]:
    """Board -> (cell, probability) pairs under the reply rule with this eps, for every board O can move on:
    the after-X boards of the rules.

    ``_replies`` runs once per pattern of best replies (61, or 4 for eps 1) and each situation's cells are
    zipped in; equal reply tuples, and equal pairs within them, are one object.
    """
    shared = {}
    table = dict.fromkeys(transitions()[1])  # the boards in the rules' order
    for best, situations in _situations(eps == 1.0).items():
        probs = _replies(eps, best)
        for cells, group in situations.items():
            replies = tuple([shared.setdefault(pair, pair) for pair in zip(cells, probs) if pair[1] > 0.0])
            replies = shared.setdefault(replies, replies)
            for i in group:
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
        eps = desc["eps_minimax"]
        if isinstance(eps, bool) or not isinstance(eps, (int, float)):
            raise ValueError(f"eps_minimax must be a number, got {eps!r}")
        return EpsilonMinimaxOpponent(eps=float(eps))
    raise ValueError(f"unknown opponent descriptor {desc!r}")
