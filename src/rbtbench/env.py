"""Reconnaissance Blind TicTacToe: hidden state, windowed sensing, episode loop.

Protocol per agent decision: a window placement is drawn uniformly, the true
board is read through it, the agent folds the observation into its belief
(predicting through its own previous move first), picks an action, and the
environment resolves it against the true board.  Playing an occupied cell ends
the episode with reward -1; wins, losses, and draws score +1, -1, 0.  The
opponent (``q.opponent``) sees the full board and never plays an invalid move.

All randomness in an episode comes from one generator seeded by the config, so
identical configs replay bit-identically.

Both policies act on one ``decide(belief, q)``.  A decision is a pure
function of the belief and the Q-table, and beliefs repeat across episodes,
so each table caches a belief-transition graph in its private cache: a node
holds a prior belief and, per observation key, the observation, posterior
and decision; a decision holds, per action, the node of the predicted prior.
A step reads the key off the true board's marks (``Observation.key`` is
``marks & mask | tag``) and walks one edge.  Only a new edge builds
the observation and runs the filter (``update``, then ``decide``, which keeps
one decision per posterior belief).  The cache changes no result: a cold and
a warm table give equal episodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from random import Random
from typing import NamedTuple

from .belief import (
    Belief,
    Observation,
    WindowPlacement,
    WindowShape,
    initial_belief,
    predict,
    update,
)
from .game import O_WINS, Action, board_marks, transitions
from .metrics import iou
from .opponents import OpponentModel, reply_distribution
from .policy import ActionSet, alt_values, argmax_set, mean_value, mixture_values
from .solver import QTable

MIXTURE = "mixture"
MAXBELIEF = "maxbelief"
RANDOM = "random"
POLICIES = (MIXTURE, MAXBELIEF, RANDOM)


class Outcome(Enum):
    WIN = "win"
    LOSS = "loss"
    DRAW = "draw"
    INVALID_MOVE = "invalid_move"


@dataclass(frozen=True)
class EpisodeConfig:
    shape: WindowShape
    policy: str = MIXTURE
    seed: int = 0

    def __post_init__(self):
        if self.policy not in POLICIES:
            raise ValueError(f"policy must be one of {POLICIES}, got {self.policy!r}")
        if type(self.seed) is not int:  # no bools: Random(True) plays the episodes of seed 1
            raise ValueError(f"seed must be an int, got {self.seed!r}")
        if self.seed < 0:  # Random(-s) seeds as Random(s) does, so episodes would repeat
            raise ValueError(f"seed must be at least 0, got {self.seed}")


@dataclass(slots=True)
class StepRecord:
    """Everything observed and decided at one agent decision point."""

    t: int
    observation: Observation
    belief: Belief
    belief_support_size: int
    a_mix: ActionSet
    a_max: ActionSet
    iou: float
    margin: float
    chosen_action: Action
    reward: float


@dataclass(slots=True)
class EpisodeResult:
    steps: list[StepRecord]
    total_return: float
    outcome: Outcome
    # true board index at each decision point (diagnostics; not part of traces)
    true_states: list[int] = field(default_factory=list)


def sample_window(shape: WindowShape, rng: Random) -> WindowPlacement:
    """Placement drawn uniformly from all positions where the window fits."""
    return rng.choice(shape.placements())


def _sample_reply(model: OpponentModel, index: int, rng: Random) -> int:
    pairs = reply_distribution(model, index)
    r = rng.random()
    acc = 0.0
    for cell, p in pairs:
        acc += p
        if r < acc:
            return cell
    return pairs[-1][0]


# A node of the belief-transition graph: a prior belief, and the edges out of
# it, observation key -> (Observation, posterior, Decision).
Node = tuple[Belief, dict]


class Decision(NamedTuple):
    """What both policies make of one posterior belief, and what follows from it.

    ``decide`` keeps one per belief in ``QTable._decisions``.  ``predictions``
    maps an action to the graph node of the prior predicted from this belief
    with ``q.opponent``.  Cached beliefs are never handed out, only copied.
    """

    a_mix: ActionSet
    a_max: ActionSet
    iou: float
    margin: float
    mix_choices: tuple[Action, ...]  # sorted(a_mix), the tie-break draws from it
    max_choices: tuple[Action, ...]  # sorted(a_max)
    predictions: dict[Action, Node]


@lru_cache(maxsize=None)
def _shared(actions: ActionSet) -> tuple[ActionSet, tuple[Action, ...]]:
    """One argmax set and its sorted members, shared by every decision that has it (at most 511)."""
    return actions, tuple(sorted(actions))


def decide(belief: Belief, q: QTable) -> Decision:
    """Both policies' argmax sets at a posterior belief, their IoU and value margin.

    The mixture policy is greedy on the belief-weighted Q-values (QMDP), the
    max-belief baseline on Q averaged over the modal states; ``rbtbench.metrics``
    defines the margin.  Memoized per belief on ``q``.
    """
    key = (*belief, *belief.values())  # the items, flattened: n keys, then n values
    decision = q._decisions.get(key)
    if decision is None:
        mix_vals = mixture_values(belief, q)
        a_mix, mix_choices = _shared(argmax_set(mix_vals))
        if len(key) == 2 and key[1] == 1.0:  # one board at mass 1.0: alt_values is this very sum
            a_max, max_choices = a_mix, mix_choices
        else:
            a_max, max_choices = _shared(argmax_set(alt_values(belief, q)))
        margin = max(mix_vals) - mean_value(mix_vals, a_max)
        decision = q._decisions[key] = Decision(
            a_mix, a_max, iou(a_mix, a_max), margin, mix_choices, max_choices, {}
        )
    return decision


def _root(q: QTable) -> Node:
    """The empty board's graph node, in ``q._decisions`` under ``None`` (no belief key is ``None``)."""
    node = q._decisions.get(None)
    if node is None:
        node = q._decisions[None] = (initial_belief(), {})
    return node


# How X's action ends an episode, keyed on its reward in ``ends``; O's reply ends one only by winning.
_ENDED_BY_X = {-1.0: Outcome.INVALID_MOVE, 1.0: Outcome.WIN, 0.0: Outcome.DRAW}


def run_episode(config: EpisodeConfig, q: QTable) -> EpisodeResult:
    rng = Random(config.seed)
    board = 0
    moves, replies = transitions()
    marks = board_marks()
    node = _root(q)
    steps: list[StepRecord] = []
    true_states: list[int] = []

    for t in range(5):  # X can place at most five marks
        placement = sample_window(config.shape, rng)
        prior, posteriors = node
        edge = posteriors.get(marks[board] & placement.mask | placement.tag)  # the key of the board's observation
        if edge is None:
            obs = placement.observe(board)
            posterior = update(prior, obs)
            edge = posteriors[obs.key] = (obs, posterior, decide(posterior, q))
        obs, belief, decision = edge
        true_states.append(board)

        if config.policy == MIXTURE:
            action = rng.choice(decision.mix_choices)
        elif config.policy == MAXBELIEF:
            action = rng.choice(decision.max_choices)
        else:
            action = rng.randrange(9)

        ends, after_x = moves[board]
        board = after_x.get(action)
        if board is None:
            reward = ends[action]
            outcome = _ENDED_BY_X[reward]
        else:
            board = replies[board][_sample_reply(q.opponent, board, rng)]
            reward, outcome = (-1.0, Outcome.LOSS) if board == O_WINS else (0.0, None)

        # positional, in field order; the cached posterior stays private, so a step gets a copy
        steps.append(StepRecord(t, obs, dict(belief), len(belief), decision.a_mix, decision.a_max,
                                decision.iou, decision.margin, action, reward))
        if outcome is not None:
            return EpisodeResult(steps, reward, outcome, true_states)
        node = decision.predictions.get(action)
        if node is None:
            node = decision.predictions[action] = (predict(belief, action, q.opponent), {})

    raise AssertionError("episode failed to terminate within five agent moves")


def run_episodes(config: EpisodeConfig, q: QTable, episodes: int) -> list[EpisodeResult]:
    """Run `episodes` independent episodes, seeding episode i with config.seed + i.

    The per-episode seed derivation means a batch can be sharded across
    workers and still reproduce the single-process results exactly.
    """
    c = config  # every field by keyword: cheaper than dataclasses.replace, same __post_init__
    return [run_episode(EpisodeConfig(shape=c.shape, policy=c.policy, seed=c.seed + i), q)
            for i in range(episodes)]
