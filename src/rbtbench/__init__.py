"""Reconnaissance Blind TicTacToe benchmark.

TicTacToe against a fully sighted opponent, played blind: before each of the
agent's moves a randomly placed rectangular window of the board is revealed.
The package tracks the exact posterior over boards, solves the fully observed
game by expectimax, and benchmarks the belief-weighted greedy policy against
a baseline that only acts on the most probable states.
"""

__version__ = "0.1.0"

from .belief import (
    Observation,
    WindowPlacement,
    WindowShape,
    initial_belief,
    predict,
    update,
)
from .env import (
    MAXBELIEF,
    MIXTURE,
    RANDOM,
    EpisodeConfig,
    EpisodeResult,
    Outcome,
    StepRecord,
    decide,
    run_episodes,
)
from .metrics import (
    TimestepAggregate,
    aggregate_by_timestep,
    mean_ci95,
)
from .opponents import (
    EpsilonMinimaxOpponent,
    MinimaxOpponent,
    UniformRandomOpponent,
)
from .policy import (
    mixture_values,
)
from .solver import (
    QTable,
    load_qtable,
    save_qtable,
    solve_q,
)
