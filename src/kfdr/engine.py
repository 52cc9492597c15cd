"""Stepwise decision engine.

Applies a critical-value schedule to a p-value sample as a stepup or
stepdown procedure, as the schedule's direction says. The outcome holds the
stable ascending sort ``order`` of the p-values and the rejection count
``r``: the rejected hypotheses are ``order[:r]``, and the hypothesis at rank
i (``order[i]``) is compared with the critical value ``alphas[i]``. With
ground truth it also holds the false-rejection count V, for ``k_fdp``. Ties
among equal p-values are broken by original index, so results are
deterministic. Both directions use one rule: p_(i) <= alpha_i is a hit and
p_(i) > alpha_i a miss. Stepup rejects up to its last hit and stepdown up to
its first miss, so a p-value exactly equal to its critical value counts as
rejected.

The counting kernel, ``rejection_count``, takes an [m, n] block of sorted
samples (one per row) and returns one count per row, so the Monte Carlo
harness counts a whole block of iterations in one call and ``decide`` counts
one-row blocks of sorted p-values, ``_ROW_BLOCK`` rows each, as every pass
over n rows goes. It only compares ascending values with bounds, so the
harness passes sorted negated test statistics and critical values moved to
that scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .numerics import _ROW_BLOCK, in_unit_interval
from .schedules import STEPUP, CriticalValueSchedule, _frozen_array


@dataclass(frozen=True, eq=False)
class PValueSample:
    """n p-values, optionally labeled with ground truth.

    ``values`` (float64) and ``truth`` (bool) are read-only arrays. A
    read-only array of that dtype that owns its data is kept as it is; any
    other sequence, a writeable array included, is copied into one.
    ``truth[i]`` is True when hypothesis i is a true null (so a rejection of
    it is a false rejection).
    """

    values: np.ndarray
    truth: np.ndarray | None = None

    def __post_init__(self) -> None:
        values = _frozen_array(self.values)
        if values.ndim != 1:
            raise ValueError("p-values must form a one-dimensional sequence")
        if not in_unit_interval(values):
            raise ValueError("p-values must lie in [0, 1]")
        object.__setattr__(self, "values", values)
        if self.truth is not None:
            truth = _frozen_array(self.truth, dtype=bool)
            if truth.shape != values.shape:
                raise ValueError("truth labels must match the number of p-values")
            object.__setattr__(self, "truth", truth)

    @property
    def n(self) -> int:
        return self.values.size


@dataclass(frozen=True, eq=False)
class DecisionOutcome:
    """Stable sort order and rejection count; ``order[:r]`` is rejected.

    ``v`` is None when the sample carries no truth labels.
    """

    order: np.ndarray
    r: int
    v: int | None = None


def k_fdp(r: int | np.ndarray, v: int | np.ndarray, k: int) -> float | np.ndarray:
    """False discovery proportion counted only when at least k rejections
    are false: v/r if v >= k, else 0. Elementwise over arrays of counts; a
    float for scalar r and v."""
    if k < 1:
        raise ValueError(f"order k must be >= 1, got {k!r}")
    r, v = np.asarray(r), np.asarray(v)
    if not ((0 <= v) & (v <= r)).all():
        raise ValueError(f"need 0 <= v <= r, got v={v}, r={r}")
    # Where v >= k >= 1, r >= 1 and the quotient is v / r.
    out = np.where(v >= k, v / np.maximum(r, 1), 0.0)
    return float(out) if out.ndim == 0 else out


def stepup_count(sorted_p: np.ndarray, alphas: np.ndarray) -> np.ndarray:
    """Rejections of a stepup rule in each row of a sorted [m, n] block: the
    largest i with p_(i) <= alpha_i, or 0 when no index qualifies."""
    hits = sorted_p <= alphas
    last = hits.shape[1] - np.argmax(hits[:, ::-1], axis=1)
    return np.where(hits.any(axis=1), last, 0)


def stepdown_count(sorted_p: np.ndarray, alphas: np.ndarray) -> np.ndarray:
    """Rejections of a stepdown rule in each row of a sorted [m, n] block:
    one less than the smallest i with p_(i) > alpha_i, or n when every
    ordered p-value is at most its critical value."""
    misses = sorted_p > alphas
    first = np.argmax(misses, axis=1)
    return np.where(misses.any(axis=1), first, misses.shape[1])


def rejection_count(sorted_p: np.ndarray, alphas: np.ndarray, direction: str) -> np.ndarray:
    """Rejections of the stepup or stepdown rule named by ``direction``, one
    count per row of a sorted [m, n] block."""
    if direction == STEPUP:
        return stepup_count(sorted_p, alphas)
    return stepdown_count(sorted_p, alphas)


def decide(sample: PValueSample, schedule: CriticalValueSchedule) -> DecisionOutcome:
    """Apply ``schedule`` to ``sample`` in the schedule's own direction.

    Besides the sample and the schedule, it holds the sort order (8 B/row)
    and one ``_ROW_BLOCK`` of sorted p-values at a time, never a whole
    sorted copy: one pass over the blocks counts the rejections and looks
    for ties. The count depends only on the sorted values, which any sort
    gives alike, so it is kept when ties make the order stable.
    """
    if schedule.n != sample.n:
        raise ValueError(
            f"schedule length {schedule.n} does not match sample length {sample.n}"
        )
    values, alphas = sample.values, schedule.alphas
    order = np.argsort(values)
    r = 0 if schedule.direction == STEPUP else sample.n
    tie = False
    last = np.nan  # equal to nothing
    for start in range(0, sample.n, _ROW_BLOCK):
        block = values[order[start : start + _ROW_BLOCK]]
        # Equal neighbours, -0.0 and 0.0 included, also across blocks.
        tie = tie or block[0] == last or bool((block[1:] == block[:-1]).any())
        last = block[-1]
        c = int(rejection_count(block[None], alphas[start : start + block.size],
                                schedule.direction)[0])
        if schedule.direction == STEPUP:
            # The last hit of the last block that has one.
            r = start + c if c else r
        elif c < block.size and r == sample.n:
            # The first miss of the first block that has one.
            r = start + c
    # Without ties every sort gives the stable order, so the stable sort,
    # several times slower, runs only where two sorted values are equal.
    # The first order is freed before it runs.
    if tie:
        del order
        order = np.argsort(values, kind="stable")
    if sample.truth is None:
        return DecisionOutcome(order=order, r=r)
    v = int(np.count_nonzero(sample.truth[order[:r]]))
    return DecisionOutcome(order=order, r=r, v=v)


def sample_from(values: Sequence[float], truth: Sequence[bool] | None = None) -> PValueSample:
    """Convenience constructor from any sequences."""
    return PValueSample(values=values, truth=truth)
