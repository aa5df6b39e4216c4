"""Reconnaissance Blind TicTacToe benchmark.

TicTacToe against a fully sighted opponent, played blind: before each of the
agent's moves a randomly placed rectangular window of the board is revealed.
The package tracks the exact posterior over boards, solves the fully observed
game by expectimax, and benchmarks the belief-weighted greedy policy against
a baseline that only acts on the most probable states.
"""

__version__ = "0.1.0"

from .belief import (
    Belief,
    EmptySupportError,
    Observation,
    WindowPlacement,
    WindowShape,
    ZeroEvidenceError,
    initial_belief,
    predict,
    update,
)
from .env import (
    MAXBELIEF,
    MIXTURE,
    POLICIES,
    RANDOM,
    EpisodeConfig,
    EpisodeResult,
    Outcome,
    StepRecord,
    decide,
    run_episode,
    run_episodes,
    sample_window,
)
from .game import (
    Action,
    GameStatus,
    enumerate_reachable_states,
)
from .metrics import (
    InsufficientSamplesError,
    SweepRow,
    TimestepAggregate,
    aggregate_by_timestep,
    iou,
    mean_ci95,
)
from .opponents import (
    EpsilonMinimaxOpponent,
    MinimaxOpponent,
    OpponentModel,
    TerminalStateError,
    UniformRandomOpponent,
)
from .policy import (
    ActionSet,
    ActionValues,
    MissingQEntryError,
    alt_values,
    argmax_set,
    max_belief_states,
    mixture_values,
)
from .solver import (
    CorruptEntryError,
    FormatVersionMismatchError,
    QTable,
    load_qtable,
    save_qtable,
    solve_q,
)
