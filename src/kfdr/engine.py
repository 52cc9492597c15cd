"""Stepwise decision engine.

Applies a critical-value schedule to a p-value sample as a stepup or
stepdown procedure, as the schedule's direction says. The outcome holds the
stable ascending sort ``order`` of the p-values and the rejection count
``r``: the rejected hypotheses are ``order[:r]``, and the hypothesis at rank
i (``order[i]``) is compared with the critical value ``alphas[i]``. With
ground truth it also holds the false-rejection count V and the k-FDP. Ties
among equal p-values are broken by original index, so results are
deterministic. A p-value exactly equal to its critical value counts as
rejected.

The counting kernel, ``rejection_count``, takes one sorted sample or an
[m, n] block of sorted samples (one per row) and returns one count per row,
so the Monte Carlo harness counts a whole block of iterations in one call.
It only compares ascending values with bounds, so the harness passes sorted
negated test statistics and critical values moved to that scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .schedules import STEPUP, CriticalValueSchedule


@dataclass(frozen=True, eq=False)
class PValueSample:
    """n p-values (float64 array), optionally labeled with ground truth.

    ``truth[i]`` is True when hypothesis i is a true null (so a rejection of
    it is a false rejection).
    """

    values: np.ndarray
    truth: np.ndarray | None = None

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 1:
            raise ValueError("p-values must form a one-dimensional sequence")
        # NaN fails both comparisons, so it is rejected here too.
        if not np.all((values >= 0.0) & (values <= 1.0)):
            raise ValueError("p-values must lie in [0, 1]")
        object.__setattr__(self, "values", values)
        if self.truth is not None:
            truth = np.asarray(self.truth, dtype=bool)
            if truth.shape != values.shape:
                raise ValueError("truth labels must match the number of p-values")
            object.__setattr__(self, "truth", truth)

    @property
    def n(self) -> int:
        return self.values.size

    @property
    def n_true_null(self) -> int | None:
        return None if self.truth is None else int(np.count_nonzero(self.truth))


@dataclass(frozen=True, eq=False)
class DecisionOutcome:
    """Stable sort order and rejection count; ``order[:r]`` is rejected.

    ``v`` and ``k_fdp`` are None when the sample carries no truth labels.
    """

    order: np.ndarray
    r: int
    v: int | None = None
    k_fdp: float | None = None


def k_fdp(r: int, v: int, k: int) -> float:
    """False discovery proportion counted only when at least k rejections
    are false: v/r if v >= k, else 0."""
    if k < 1:
        raise ValueError(f"order k must be >= 1, got {k!r}")
    if not 0 <= v <= r:
        raise ValueError(f"need 0 <= v <= r, got v={v}, r={r}")
    if v >= k:
        return v / r
    return 0.0


def _per_row(counts: np.ndarray, sorted_p: np.ndarray) -> int | np.ndarray:
    return counts if np.ndim(sorted_p) == 2 else int(counts[0])


def stepup_count(sorted_p: np.ndarray, alphas: np.ndarray) -> int | np.ndarray:
    """Number of rejections of a stepup rule: the largest i with
    p_(i) <= alpha_i, or 0 when no index qualifies. Counts every row of an
    [m, n] block."""
    hits = np.atleast_2d(sorted_p <= alphas)
    last = hits.shape[1] - np.argmax(hits[:, ::-1], axis=1)
    return _per_row(np.where(hits.any(axis=1), last, 0), sorted_p)


def stepdown_count(sorted_p: np.ndarray, alphas: np.ndarray) -> int | np.ndarray:
    """Number of rejections of a stepdown rule: one less than the smallest i
    with p_(i) >= alpha_i, or n when every ordered p-value is strictly
    below its critical value. Counts every row of an [m, n] block."""
    misses = np.atleast_2d(sorted_p >= alphas)
    first = np.argmax(misses, axis=1)
    return _per_row(np.where(misses.any(axis=1), first, misses.shape[1]), sorted_p)


def rejection_count(
    sorted_p: np.ndarray, alphas: np.ndarray, direction: str
) -> int | np.ndarray:
    """Rejections of the stepup or stepdown rule named by ``direction``: an
    int for one sorted sample, one count per row for a sorted [m, n] block."""
    if direction == STEPUP:
        return stepup_count(sorted_p, alphas)
    return stepdown_count(sorted_p, alphas)


def decide(sample: PValueSample, schedule: CriticalValueSchedule) -> DecisionOutcome:
    """Apply ``schedule`` to ``sample`` in the schedule's own direction."""
    if schedule.n != sample.n:
        raise ValueError(
            f"schedule length {schedule.n} does not match sample length {sample.n}"
        )
    order = np.argsort(sample.values, kind="stable")
    r = rejection_count(sample.values[order], schedule.alphas, schedule.direction)
    if sample.truth is None:
        return DecisionOutcome(order=order, r=r)
    v = int(np.count_nonzero(sample.truth[order[:r]]))
    return DecisionOutcome(order=order, r=r, v=v, k_fdp=k_fdp(r, v, schedule.k))


def sample_from(values: Sequence[float], truth: Sequence[bool] | None = None) -> PValueSample:
    """Convenience constructor from any sequences."""
    return PValueSample(values=values, truth=truth)
