"""Belief-weighted action values and the two policies built on them.

The mixture policy scores each action by the belief-weighted average of the
solved fully-observable Q-values and acts greedily.  The max-belief policy
first throws away everything but the most probable states, averages Q over
those uniformly, and acts greedily on that instead; it is the baseline the
benchmark compares against.

Argmax over floats is ill-posed, so both policies use a set-valued argmax with
a small absolute tolerance and break ties uniformly at random from the set.
``env.decide`` applies both rules to a belief.
"""

from __future__ import annotations

from math import fsum
from typing import Sequence

from .belief import Belief
from .solver import QTable

ARGMAX_TOL = 1e-9

ActionValues = list[float]
ActionSet = tuple[int, ...]


def mixture_values(belief: Belief, q: QTable) -> ActionValues:
    """Belief-weighted Q-values: value[a] = sum_s belief(s) * Q(s, a)."""
    v0 = v1 = v2 = v3 = v4 = v5 = v6 = v7 = v8 = 0.0  # one accumulator per action, no list per state
    entries = q.entries
    for state, p in belief.items():
        row = entries.get(state)
        if row is None:
            raise ValueError(f"board {state} has no row in the Q-table")
        r0, r1, r2, r3, r4, r5, r6, r7, r8 = row
        v0, v1, v2, v3, v4, v5, v6, v7, v8 = (v0 + p * r0, v1 + p * r1, v2 + p * r2, v3 + p * r3, v4 + p * r4,
                                              v5 + p * r5, v6 + p * r6, v7 + p * r7, v8 + p * r8)
    return [v0, v1, v2, v3, v4, v5, v6, v7, v8]


def argmax_set(values: Sequence[float]) -> ActionSet:
    """All actions whose value is within `ARGMAX_TOL` of the maximum, ascending."""
    cutoff = max(values) - ARGMAX_TOL
    return tuple([a for a, v in enumerate(values) if v >= cutoff])


def max_belief_states(belief: Belief) -> frozenset[int]:
    """States carrying (within `ARGMAX_TOL`) the maximal belief mass."""
    cutoff = max(belief.values()) - ARGMAX_TOL
    return frozenset(s for s, p in belief.items() if p >= cutoff)


def alt_values(belief: Belief, q: QTable) -> ActionValues:
    """Q averaged uniformly over the maximal-belief states only.

    This is the decision rule of the max-belief baseline: the belief outside
    the modal states is discarded, not renormalized.
    """
    top = max_belief_states(belief)
    return mixture_values(dict.fromkeys(top, 1.0 / len(top)), q)


def mean_value(values: ActionValues, actions: ActionSet) -> float:
    """Average value over an action set (uniform choice among its members)."""
    return fsum(values[a] for a in actions) / len(actions)
