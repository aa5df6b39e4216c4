"""Exact Bayesian filtering over hidden boards.

A belief is a plain ``dict`` mapping canonical board indices to strictly
positive probabilities summing to one.  Because the observation model is a
deterministic window read and the sensing window placement is drawn
independently of the state, the posterior update is multiplication by a 0/1
match indicator followed by renormalization.

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
from functools import cached_property
from math import fsum

from .game import Action, POW3, transitions
from .opponents import OpponentModel, reply_distribution

Belief = dict[int, float]


class EmptySupportError(ValueError):
    """Conditioning removed every state: the history is impossible under the model."""


class ZeroEvidenceError(ValueError):
    """Observation matches no state in the belief support."""


@dataclass(frozen=True)
class WindowShape:
    height: int
    width: int

    def __post_init__(self):
        if not (1 <= self.height <= 3 and 1 <= self.width <= 3):
            raise ValueError(f"window shape must be within 1..3, got {self.height}x{self.width}")

    @property
    def label(self) -> str:
        return f"{self.height}x{self.width}"

    @classmethod
    def from_label(cls, label: str) -> "WindowShape":
        try:
            h, w = label.lower().split("x")
            return cls(height=int(h), width=int(w))
        except (ValueError, TypeError):
            raise ValueError(f"expected HxW with H,W in 1..3, got {label!r}") from None

    def placements(self) -> tuple["WindowPlacement", ...]:
        """All (4-h)*(4-w) positions where the window fits, row-major."""
        return self._placements

    @cached_property
    def _placements(self) -> tuple["WindowPlacement", ...]:
        # Built on first use, once per shape, with each placement's read cache;
        # not a dataclass field, so equality and hashing ignore it.
        return tuple(
            WindowPlacement(top=t, left=l, shape=self)
            for t in range(4 - self.height)
            for l in range(4 - self.width)
        )


@dataclass(frozen=True)
class WindowPlacement:
    top: int
    left: int
    shape: WindowShape

    def __post_init__(self):
        if not (0 <= self.top <= 3 - self.shape.height and 0 <= self.left <= 3 - self.shape.width):
            raise ValueError(f"window {self.shape.label} does not fit at ({self.top}, {self.left})")
        cells = tuple(
            (self.top + r) * 3 + (self.left + c)
            for r in range(self.shape.height)
            for c in range(self.shape.width)
        )
        # Derived once; not dataclass fields, so equality and hashing ignore them.
        object.__setattr__(self, "_cells", cells)
        object.__setattr__(self, "_divisors", tuple(POW3[c] for c in cells))
        object.__setattr__(self, "_reads", {})  # board index -> Observation
        object.__setattr__(self, "_observations", {})  # window contents -> Observation

    def cells(self) -> tuple[int, ...]:
        return self._cells

    def observe(self, index: int) -> "Observation":
        """The observation of board `index` through this window.

        Cached per board, and one shared object per distinct window contents.
        """
        obs = self._reads.get(index)
        if obs is None:
            contents = tuple(index // d % 3 for d in self._divisors)
            obs = self._observations.get(contents)
            if obs is None:
                obs = self._observations[contents] = Observation(placement=self, contents=contents)
            self._reads[index] = obs
        return obs


@dataclass(frozen=True)
class Observation:
    """A window read: the cell digits (0 empty / 1 X / 2 O) in row-major window order.

    ``key`` is an int that identifies the observation; the episode loop keys
    its belief-transition edges on it.
    """

    placement: WindowPlacement
    contents: tuple[int, ...]

    def __post_init__(self):
        expected = self.placement.shape.height * self.placement.shape.width
        if len(self.contents) != expected:
            raise ValueError(f"expected {expected} cells of contents, got {len(self.contents)}")
        if any(type(c) is not int or not 0 <= c <= 2 for c in self.contents):  # no bools or floats
            raise ValueError(f"window contents must be cell digits 0, 1 or 2, got {list(self.contents)}")
        object.__setattr__(self, "contents", tuple(self.contents))
        # The board as seen through the window, in base 4 with digit 3 on every
        # cell outside it: equal exactly when the observations are equal, and an
        # int, so keying on it calls no dataclass __hash__.  Not a field.
        digits = [3] * 9
        for cell, c in zip(self.placement.cells(), self.contents):
            digits[cell] = c
        object.__setattr__(self, "key", sum(d * 4**i for i, d in enumerate(digits)))


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
    placement, contents = obs.placement, obs.contents
    reads, observe = placement._reads, placement.observe
    mass = {}
    for index, p in belief.items():
        if (reads.get(index) or observe(index)).contents == contents:
            mass[index] = p
    if not mass:
        raise ZeroEvidenceError(f"observation {obs} matches no state in the support")
    return _normalized(mass)


def observation_distribution(
    belief: Belief,
    agent_action: Action,
    opponent: OpponentModel,
    shape: WindowShape,
) -> dict[Observation, float]:
    """Distribution of the next observation given a belief and our action.

    Placements are uniform and state-independent, so each contributes its
    1/#placements share of the predicted state mass.
    """
    predicted = predict(belief, agent_action, opponent)
    placements = shape.placements()
    weight = 1.0 / len(placements)
    dist: dict[Observation, float] = {}
    for placement in placements:
        for index, p in predicted.items():
            obs = placement.observe(index)
            dist[obs] = dist.get(obs, 0.0) + weight * p
    return dist
