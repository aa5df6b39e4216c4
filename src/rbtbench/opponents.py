"""Opponent move models.

The opponent sees the whole board, so each model maps a reachable O-to-move
board to a probability distribution over its legal replies.  One rule,
``_replies(eps, index)``, plays uniformly with probability eps and minimax
(game-theoretic best replies, ties split uniformly) otherwise; the three
models are its eps:

* ``UniformRandomOpponent`` -- eps 1, every legal reply equally likely.
* ``MinimaxOpponent`` -- eps 0, read off the minimax values of the whole game.
* ``EpsilonMinimaxOpponent(eps)`` -- any eps in [0, 1].

Models are frozen values, shared across episode workers and each the key of
one reply table: ``reply_distribution``, the one entry point, builds a model's
table for every board O can move on in one pass and looks boards up there.
Its 2097 boards have at most 1014 distinct reply tuples, so a table keeps one
object per distinct tuple and per distinct (cell, probability) pair.
"""

from __future__ import annotations

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
def _minimax_replies(index: int) -> tuple[tuple[int, float], ...]:
    """O's game-theoretic best replies on an after-X board, ties split uniformly."""
    values = game_value()
    succ = transitions()[1][index]
    winners = [c for c in reachable_boards()[index][2] if values[succ[c]] == values[index]]
    p = 1.0 / len(winners)
    return tuple((c, p) for c in winners)


def _replies(eps: float, index: int) -> tuple[tuple[int, float], ...]:
    """(cell, probability) pairs for O on an after-X board under the reply rule with this eps."""
    cells = reachable_boards()[index][2]
    base = eps / len(cells)
    share = 1.0 - eps
    best = dict(_minimax_replies(index)) if share else {}  # uniform needs no game_value
    probs = []
    total = 0.0
    for c in cells:
        # eps / n plus (1 - eps) * p, in this order: Q-tables and episode
        # sampling depend on these exact floats
        p = base + share * best[c] if c in best else base
        if p > 0.0:
            probs.append((c, p))
            total += p
    # Summed in the order sampling and the solver sum them, rounding can put the
    # total above 1, or (eps 3e-16) more than an ulp below it; then the largest
    # probability moves one ulp toward the gap at a time until it does not (at
    # most four steps down on the eps grid, one up for eps 2e-16 to 1e-15).
    while not 1.0 - ulp(1.0) <= total <= 1.0:
        j = max(range(len(probs)), key=lambda i: probs[i][1])
        probs[j] = (probs[j][0], nextafter(probs[j][1], 0.0 if total > 1.0 else 2.0))
        total = 0.0
        for _, p in probs:
            total += p
    return tuple(probs)


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
def _situations(uniform: bool) -> tuple[list[int], ...]:
    """The after-X boards grouped by what their replies depend on: the empty cells and, unless uniform, the best replies."""
    boards, groups = reachable_boards(), {}
    for i in transitions()[1]:
        groups.setdefault(boards[i][2] if uniform else (boards[i][2], _minimax_replies(i)), []).append(i)
    return tuple(groups.values())


@lru_cache(maxsize=None)
def _reply_table(model: OpponentModel) -> dict[int, tuple[tuple[int, float], ...]]:
    """Board -> the model's (cell, probability) pairs, for every board O can move on: the after-X boards of the rules.

    ``_replies`` runs once per situation, and equal reply tuples, and equal pairs within them, are one object.
    """
    eps, shared = model.eps, {}
    table = dict.fromkeys(transitions()[1])  # the boards in the rules' order
    for group in _situations(eps == 1.0):
        replies = tuple([shared.setdefault(pair, pair) for pair in _replies(eps, group[0])])
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
        return _reply_table(model)[index]
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
