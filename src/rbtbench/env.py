"""Reconnaissance Blind TicTacToe: hidden state, windowed sensing, episode loop.

Protocol per agent decision: a window placement is drawn uniformly, the true
board is read through it, the agent folds the observation into its belief
(predicting through its own previous move first), picks an action, and the
environment resolves it against the true board.  Playing an occupied cell ends
the episode with reward -1; wins, losses, and draws score +1, -1, 0.  The
opponent (``q.opponent``) sees the full board and never plays an invalid move.

All randomness in an episode comes from one generator seeded by the config, so
identical configs replay bit-identically.

Both policies act on one pure ``decide(belief, q)``.  Beliefs repeat across
episodes, so each table caches a belief graph, one ``Node`` per distinct
belief and role: a prior, or a posterior with its decision.  A step reads the
observation key off the true board's marks (``Observation.key`` is
``marks & mask | tag``) and walks the prior's edge to its posterior, then the
posterior's edge for its action to the next prior.  Only a new edge runs the
filter (``predict``, or ``update`` unless the window covers the board), and
only a new posterior runs ``decide``.  Cold and warm tables give equal episodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from random import Random
from types import MappingProxyType
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
    """What an episode runs with: the window shape, the policy (one of ``POLICIES``) and the seed."""
    shape: WindowShape
    policy: str = MIXTURE
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.shape, WindowShape):  # else the first episode fails on .placements
            raise ValueError(f"shape must be a WindowShape, got {self.shape!r}")
        if self.policy not in POLICIES:
            raise ValueError(f"policy must be one of {POLICIES}, got {self.policy!r}")
        if type(self.seed) is not int:  # no bools: Random(True) plays the episodes of seed 1
            raise ValueError(f"seed must be an int, got {self.seed!r}")
        if self.seed < 0:  # Random(-s) seeds as Random(s) does, so episodes would repeat
            raise ValueError(f"seed must be at least 0, got {self.seed}")


@dataclass(slots=True)
class StepRecord:
    """One decision point: its observation, the posterior ``Node`` it reached, its action and reward."""

    t: int
    observation: Observation
    posterior: Node
    chosen_action: Action
    reward: float

    belief = property(lambda self: MappingProxyType(self.posterior.belief))
    belief_support_size = property(lambda self: len(self.posterior.belief))
    a_mix = property(lambda self: self.posterior.decision.a_mix)
    a_max = property(lambda self: self.posterior.decision.a_max)
    iou = property(lambda self: self.posterior.decision.iou)
    margin = property(lambda self: self.posterior.decision.margin)


@dataclass(slots=True)
class EpisodeResult:
    """One episode: its decision points, its undiscounted return and how it ended."""
    steps: list[StepRecord]
    total_return: float
    outcome: Outcome
    # true board index at each decision point (diagnostics; not part of traces)
    true_states: list[int] = field(default_factory=list)


def sample_window(shape: WindowShape, rng: Random) -> WindowPlacement:
    """Placement drawn uniformly from all positions where the window fits, with the bits ``rng.choice`` draws.

    Written out as ``Random._randbelow`` draws: the same ``getrandbits`` calls, without its two Python frames.
    """
    placements = shape.placements
    n = len(placements)
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return placements[r]


def _sample_reply(model: OpponentModel, index: int, rng: Random) -> int:
    pairs = reply_distribution(model, index)
    r = rng.random()
    acc = 0.0
    for cell, p in pairs:
        acc += p
        if r < acc:
            return cell
    return pairs[-1][0]


class Decision(NamedTuple):
    """What both policies make of one posterior belief."""

    a_mix: ActionSet
    a_max: ActionSet
    iou: float
    margin: float


@dataclass(slots=True)
class Node:
    """One belief in one role in ``QTable._graph``: a prior (``decision`` None) or a posterior.

    A prior's ``edges`` map an observation key to ``(Observation, posterior)``, a posterior's map an action
    to the prior predicted with ``q.opponent``: each edge runs prior(t) → posterior(t) → prior(t+1), so the
    graph holds no cycle and is freed with its table.  Nodes compare by belief and decision, never by edges.
    """

    belief: Belief
    edges: dict = field(compare=False, repr=False)
    decision: Decision | None


def _node(belief: Belief, q: QTable, posterior: bool) -> Node:
    """The node of `belief` in its role in ``q._graph``, keyed on the role, then its n boards and n masses."""
    key = (posterior, *belief, *belief.values())
    node = q._graph.get(key)
    if node is None:
        node = q._graph[key] = Node(belief, {}, decide(belief, q) if posterior else None)
    return node


@lru_cache(maxsize=None)
def _shared(actions: ActionSet) -> ActionSet:
    """One argmax set, shared by every decision that has it (at most 511)."""
    return actions


def decide(belief: Belief, q: QTable) -> Decision:
    """Both policies' argmax sets at a posterior belief, their IoU and value margin.

    The mixture policy is greedy on the belief-weighted Q-values (QMDP), the
    max-belief baseline on Q averaged over the modal states; ``rbtbench.metrics``
    defines the margin.  Pure: it keeps nothing of `belief` or its result.
    """
    mix_vals = mixture_values(belief, q)
    a_mix = _shared(argmax_set(mix_vals))
    if [*belief.values()] == [1.0]:  # one board at mass 1.0: alt_values is this very sum
        a_max = a_mix
    else:
        a_max = _shared(argmax_set(alt_values(belief, q)))
    margin = max(mix_vals) - mean_value(mix_vals, a_max)
    return Decision(a_mix, a_max, iou(a_mix, a_max), margin)


_seed = Random.__bases__[0].seed  # the C seed under Random.seed, whose type dispatch an int seed does not need
_ACTIONS = tuple(range(9))  # a choice from it draws the bits randrange(9) draws
# How X's action ends an episode, keyed on its reward in ``ends``; O's reply ends one only by winning.
_ENDED_BY_X = {-1.0: Outcome.INVALID_MOVE, 1.0: Outcome.WIN, 0.0: Outcome.DRAW}


def run_episode(config: EpisodeConfig, q: QTable) -> EpisodeResult:
    rng = Random.__new__(Random)  # seeded as Random(config.seed) is: EpisodeConfig holds an int of at least 0
    _seed(rng, config.seed)
    getrandbits = rng.getrandbits
    board = 0
    moves, replies = transitions()
    marks = board_marks()
    node = q._graph.get((False, 0, 1.0)) or _node(initial_belief(), q, False)  # the root, the empty board's prior
    steps: list[StepRecord] = []
    true_states: list[int] = []

    for t in range(5):  # X can place at most five marks
        placement = sample_window(config.shape, rng)
        edge = node.edges.get(marks[board] & placement.mask | placement.tag)  # the key of the board's observation
        if edge is None:
            obs = placement.observe(board)
            # a read of all nine cells names one board, the true one, which the prior holds: update gives p / p
            belief = {board: 1.0} if len(placement.cells) == 9 else update(node.belief, obs)
            edge = node.edges[obs.key] = (obs, _node(belief, q, True))
        obs, node = edge
        true_states.append(board)

        if config.policy == MIXTURE:
            choices = node.decision.a_mix
        elif config.policy == MAXBELIEF:
            choices = node.decision.a_max
        else:
            choices = _ACTIONS
        n = len(choices)  # rng.choice(choices), written out as sample_window's draw is
        k = n.bit_length()
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        action = choices[r]

        ends, after_x = moves[board]
        board = after_x.get(action)
        if board is None:
            reward = ends[action]
            outcome = _ENDED_BY_X[reward]
        else:
            board = replies[board][_sample_reply(q.opponent, board, rng)]
            reward, outcome = (-1.0, Outcome.LOSS) if board == O_WINS else (0.0, None)

        steps.append(StepRecord(t, obs, node, action, reward))  # positional, in field order
        if outcome is not None:
            return EpisodeResult(steps, reward, outcome, true_states)
        prior = node.edges.get(action)
        if prior is None:
            prior = node.edges[action] = _node(predict(node.belief, action, q.opponent), q, False)
        node = prior

    raise AssertionError("episode failed to terminate within five agent moves")


def run_episodes(config: EpisodeConfig, q: QTable, episodes: int) -> list[EpisodeResult]:
    """Run `episodes` independent episodes, seeding episode i with config.seed + i.

    So batches whose seeds differ by less than `episodes` share episodes (README "Seeds and replicates").
    """
    if type(episodes) is not int or episodes < 0:  # no bools: True would play one episode
        raise ValueError(f"episodes must be an int of at least 0, got {episodes!r}")
    c = config  # every field by keyword: cheaper than dataclasses.replace, same __post_init__
    return [run_episode(EpisodeConfig(shape=c.shape, policy=c.policy, seed=c.seed + i), q)
            for i in range(episodes)]
