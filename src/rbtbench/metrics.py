"""Evaluation metrics: action-set IoU, per-timestep aggregation, return CIs.

The per-step IoU and value margin come from ``env.decide``.  The margin
compares the two policies on the mixture value scale (computable at every
step, unlike the Bayes-optimal belief value, which needs a search over
beliefs): the mixture value
of the mixture policy's choice minus the expected mixture value of a uniform
choice from the max-belief set, nonnegative up to the argmax tolerance.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from math import isfinite
from typing import Iterable, Sequence

from .policy import ActionSet


@dataclass(frozen=True)
class SweepRow:
    """One benchmark cell: mean return of one policy on one window size."""

    window: str
    policy: str
    episodes: int
    mean_return: float
    ci95: float


@dataclass(frozen=True)
class TimestepAggregate:
    """Mean IoU and margin at timestep ``t`` over the ``samples`` episodes that reached it."""
    t: int
    mean_iou: float
    mean_margin: float
    samples: int


def iou(a: ActionSet, b: ActionSet) -> float:
    """Jaccard index |a & b| / |a | b| of two non-empty action sets."""
    return len(a & b) / len(a | b)


def mean_ci95(returns: Sequence[float]) -> tuple[float, float]:
    """Sample mean and normal-approximation 95% half-width (1.96 * sd / sqrt(n))."""
    n = len(returns)
    if n < 2:
        raise ValueError(f"need at least 2 samples, got {n}")
    if not all(map(isfinite, returns)):  # else statistics fails on it with an error that names no return
        raise ValueError(f"returns must be finite, got {next(r for r in returns if not isfinite(r))!r}")
    mean = statistics.fmean(returns)
    return mean, 1.96 * statistics.stdev(returns, xbar=mean) / n**0.5


def aggregate_by_timestep(results: Iterable) -> list[TimestepAggregate]:
    """Per-timestep means of IoU and margin over the episodes that reached each t.

    Episodes that ended before t simply contribute nothing at t.
    """
    sums: dict[int, list] = {}  # t -> [IoU sum, margin sum, count], from 0.0 in episode order (3.12's sum() compensates)
    for result in results:
        for step in result.steps:
            acc = sums.setdefault(step.t, [0.0, 0.0, 0])
            acc[0] += step.iou
            acc[1] += step.margin
            acc[2] += 1
    return [TimestepAggregate(t, iou_sum / n, margin_sum / n, n)
            for t, (iou_sum, margin_sum, n) in sorted(sums.items())]
