"""Exact Bayesian filtering over hidden boards.

A belief is a plain ``dict`` mapping canonical board indices to strictly
positive probabilities summing to one.  Because the observation model is a
deterministic window read and the sensing window placement is drawn
independently of the state, the posterior update is multiplication by a 0/1
match indicator followed by renormalization.

``update`` keeps the boards whose marks (``game.board_marks()``) under the
placement's ``mask``, its cells' X and O bits, equal the observation's ``seen``.

The transition push-forward (``predict``) conditions on everything the agent
provably knows when it is asked to move again:

1. its last move was valid (episodes end on invalid moves),
2. that move did not end the game,
3. the opponent's reply did not end the game.

States failing any of these are pruned before renormalization, so the filter
stays exact: the true board always keeps positive mass.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import fsum

from .game import Action, board_marks, reachable_boards, transitions
from .opponents import OpponentModel, reply_distribution

Belief = dict[int, float]


class EmptySupportError(ValueError):
    """Conditioning removed every state: the history is impossible under the model."""


class ZeroEvidenceError(ValueError):
    """Observation matches no state in the belief support."""


@dataclass(frozen=True)
class WindowShape:
    """A window of 1 to 3 rows by 1 to 3 columns; its ``placements`` are the positions where it fits."""
    height: int
    width: int

    def __post_init__(self):
        if type(self.height) is not int or type(self.width) is not int:  # no bools, which label as True
            raise ValueError(f"window height and width must be ints, got {self.height!r}x{self.width!r}")
        if not (1 <= self.height <= 3 and 1 <= self.width <= 3):
            raise ValueError(f"window shape must be within 1..3, got {self.height}x{self.width}")
        # The (4-h)*(4-w) positions where it fits, row-major; not a dataclass field, so equality and hashing ignore it.
        object.__setattr__(self, "placements", tuple(
            WindowPlacement(top=t, left=l, shape=self) for t in range(4 - self.height) for l in range(4 - self.width)
        ))

    @property
    def label(self) -> str:
        return f"{self.height}x{self.width}"

    @classmethod
    def from_label(cls, label: str) -> "WindowShape":
        try:
            h, w = str.lower(label).split("x")  # a label that is not a str raises TypeError
            return cls(height=int(h), width=int(w))
        except (ValueError, TypeError):
            raise ValueError(f"expected HxW with H,W in 1..3, got {label!r}") from None


@dataclass(frozen=True)
class WindowPlacement:
    """A window shape with its top-left cell at (``top``, ``left``); ``observe`` reads a board through it."""
    top: int
    left: int
    shape: WindowShape

    def __post_init__(self):
        if type(self.top) is not int or type(self.left) is not int:
            raise ValueError(f"window top and left must be ints, got ({self.top!r}, {self.left!r})")
        if not (0 <= self.top <= 3 - self.shape.height and 0 <= self.left <= 3 - self.shape.width):
            raise ValueError(f"window {self.shape.label} does not fit at ({self.top}, {self.left})")
        rows, cols = range(self.top, self.top + self.shape.height), range(self.left, self.left + self.shape.width)
        cells = tuple(r * 3 + c for r in rows for c in cols)
        # Derived once; not dataclass fields, so equality and hashing ignore them.
        object.__setattr__(self, "cells", cells)  # row-major
        object.__setattr__(self, "mask", sum(513 << c for c in cells))  # each cell's X bit and O bit, 1 | 1 << 9
        object.__setattr__(self, "tag", sum(1 << 18 + c for c in cells))  # the cells, above any ``seen``
        object.__setattr__(self, "_observations", {})  # seen -> Observation

    def observe(self, index: int) -> "Observation":
        """The observation of reachable board `index` through this window, one per ``seen``; any other raises."""
        marks = board_marks()[index] if 0 <= index < 3**9 else -1  # a negative index would count from the end
        if marks < 0:
            raise ValueError(f"board {index} is not reachable by legal play from the empty board")
        seen = marks & self.mask
        obs = self._observations.get(seen)
        if obs is None:
            obs = self._observations[seen] = Observation(self, seen)
        return obs


@dataclass(frozen=True)
class Observation:
    """A window read: ``seen``, a board's marks under the placement's ``mask``.

    X cells are in bits 0-8 and O cells in bits 9-17.  ``key`` is ``seen |
    tag``, with the window's cells in bits 18-26, so it stays below 2**30, a
    one-digit int, cheap to hash: the episode loop keys its graph edges on it.
    """

    placement: WindowPlacement
    seen: int

    def __post_init__(self):
        seen, placement = self.seen, self.placement
        if type(seen) is not int or seen & ~placement.mask or seen & seen >> 9:  # no bools; no cell both X and O
            raise ValueError(f"seen={seen!r} is not a read of the window cells {placement.cells}")
        # Not a field.  Keys are equal exactly when observations are; an int one calls no dataclass __hash__.
        object.__setattr__(self, "key", seen | placement.tag)

    @property
    def contents(self) -> tuple[int, ...]:
        """The cell digits (0 empty / 1 X / 2 O) in row-major window order."""
        return tuple(self.seen >> c & 1 | self.seen >> c + 8 & 2 for c in self.placement.cells)


def initial_belief() -> Belief:
    """Point mass on the empty board: the only possible state before any move."""
    return {0: 1.0}


def _normalized(mass: dict[int, float]) -> Belief:
    total = fsum(mass.values())
    return {s: p / total for s, p in sorted(mass.items()) if p > 0.0}


def predict(belief: Belief, agent_action: Action, opponent: OpponentModel) -> Belief:
    """Push a belief on reachable X-to-move boards through our move and the reply, given the episode continued.

    Moves and replies come from ``game.transitions()``; one that ends the episode carries no mass.
    """
    moves, replies = transitions()
    if not belief.keys() <= moves.keys():
        raise ValueError(f"board {min(belief.keys() - moves)} is not a reachable, in-progress board with X to move")
    mass: dict[int, float] = {}
    for index, p in belief.items():
        after_x = moves[index][1].get(agent_action)
        if after_x is None:
            continue  # our move was valid and did not end the game, so this state was not the real one
        succ = replies[after_x]
        for reply, rp in reply_distribution(opponent, after_x):
            after_o = succ[reply]
            if after_o >= 0:  # the reply did not end the game
                mass[after_o] = mass.get(after_o, 0.0) + p * rp
    if not mass:
        raise EmptySupportError(
            f"no state survives action {agent_action}; environment and filter disagree"
        )
    return _normalized(mass)


def update(belief: Belief, obs: Observation) -> Belief:
    """Condition a belief on a window observation (0/1 likelihood, renormalized)."""
    marks, mask, seen, boards = board_marks(), obs.placement.mask, obs.seen, reachable_boards()
    if not belief.keys() <= boards.keys():  # marks[-19682] would read board 1's marks
        raise ValueError(f"board {min(belief.keys() - boards)} is not reachable by legal play from the empty board")
    mass = {s: p for s, p in belief.items() if marks[s] & mask == seen}
    if not mass:
        raise ZeroEvidenceError(f"observation {obs} matches no state in the support")
    return _normalized(mass)
