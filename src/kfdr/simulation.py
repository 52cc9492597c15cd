"""Monte Carlo harness for error-rate estimation.

Draws equicorrelated normal test statistics via the one-factor model,
converts them to one-sided p-values, runs a panel of stepwise procedures and
estimates k-FDR, k-FWER, FDR and average power with standard errors. Each
iteration gets its own counter-based Philox stream keyed by (seed,
iteration), so serial, parallel and blocked execution produce bit-identical
results. Iterations run in blocks of about ``_BLOCK_VALUES`` p-values: one
Philox generator is re-keyed per iteration to fill an [m, n] block, which is
then converted, sorted and counted (``engine.rejection_count``) as whole
arrays. A sweep over n0 builds its schedules once, since they do not depend
on n0. Also provides the exact closed-form lower bound showing that
generalized Simes critical values can fail to control the k-FDR.
"""

from __future__ import annotations

import csv
import dataclasses
import math
from dataclasses import dataclass
from typing import IO, Sequence

import numpy as np

from . import engine
from .fk_models import FkModel, equicorrelated_fk, independent_fk
from .numerics import std_normal_sf_array
from .schedules import CriticalValueSchedule, make_schedule, needs_model

# Monte Carlo iterations run in blocks of about this many p-values
# (max(1, _BLOCK_VALUES // n) iterations), which bounds the block's
# temporaries at a few hundred kilobytes whatever n is.
_BLOCK_VALUES = 16384


@dataclass(frozen=True)
class SimulationConfig:
    """One experiment: n tests, n0 true nulls, procedures run at level alpha.

    ``force_nonnull_zero`` replaces the n1 = n - n0 nonnull p-values with
    exact zeros, emulating a procedure that always rejects the nonnulls
    first; this realizes the k-FDR violation construction.
    """

    n: int
    n0: int
    k: int
    alpha: float
    rho: float
    iterations: int
    seed: int
    procedures: tuple[str, ...]
    mu_alt: float = 2.0
    force_nonnull_zero: bool = False

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"n must be positive, got {self.n!r}")
        if not 0 <= self.n0 <= self.n:
            raise ValueError(f"need 0 <= n0 <= n, got n0={self.n0}, n={self.n}")
        if not 1 <= self.k <= self.n:
            raise ValueError(f"need 1 <= k <= n, got k={self.k}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha!r}")
        if not 0.0 <= self.rho <= 1.0:
            raise ValueError(f"rho must lie in [0, 1], got {self.rho!r}")
        if math.isnan(self.mu_alt):
            raise ValueError(f"mu_alt must be a number, got {self.mu_alt!r}")
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations!r}")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must be a 64-bit nonnegative integer")
        if not self.procedures:
            raise ValueError("at least one procedure is required")

    @property
    def n1(self) -> int:
        return self.n - self.n0


@dataclass(frozen=True)
class ProcedureEstimates:
    procedure: str
    kfdr_hat: float
    kfdr_se: float
    kfwer_hat: float
    kfwer_se: float
    fdr_hat: float
    fdr_se: float
    power_hat: float
    power_se: float


@dataclass(frozen=True)
class SimulationSummary:
    config: SimulationConfig
    results: tuple[ProcedureEstimates, ...]


def null_model_for(config: SimulationConfig) -> FkModel:
    """The joint null model implied by the config's correlation."""
    if config.rho == 0.0:
        return independent_fk(config.k)
    return equicorrelated_fk(config.k, config.rho)


def _streams(seed: int) -> tuple[np.random.Generator, dict]:
    """A Philox generator and a state that re-keys it: with
    ``state["state"]["key"][0]`` set to an iteration, assigning ``state`` to
    the bit generator starts the stream of
    ``Philox(key=(seed << 64) + iteration)`` at counter 0."""
    bit_generator = np.random.Philox(key=seed << 64)
    return np.random.Generator(bit_generator), bit_generator.state


def _draw_block(config: SimulationConfig, start: int, stop: int) -> np.ndarray:
    """The p-values of iterations start..stop-1 as an [m, n] block, row i
    from iteration start + i.

    X_i = mu_i + sqrt(rho) Z + sqrt(1-rho) eps_i with the first n0 means at
    zero and the rest at mu_alt; p_i = 1 - Phi(X_i). Per iteration the
    generator is re-keyed to the start of the stream of
    ``Philox(key=(seed << 64) + iteration)``, and the common factor Z is drawn
    first, then the n idiosyncratic terms.
    """
    rng, state = _streams(config.seed)
    draws = np.empty((stop - start, config.n + 1))
    for row, iteration in zip(draws, range(start, stop)):
        state["state"]["key"][0] = iteration
        rng.bit_generator.state = state
        rng.standard_normal(out=row)
    mu = np.zeros(config.n)
    mu[config.n0 :] = config.mu_alt
    x = mu + math.sqrt(config.rho) * draws[:, :1] + math.sqrt(1.0 - config.rho) * draws[:, 1:]
    p = std_normal_sf_array(x)
    if config.force_nonnull_zero:
        p[:, config.n0 :] = 0.0
    return p


def draw_sample(config: SimulationConfig, iteration_index: int) -> engine.PValueSample:
    """One draw of n one-sided p-values with truth labels attached, the same
    draw ``run_experiment`` makes at that iteration."""
    p = _draw_block(config, iteration_index, iteration_index + 1)[0]
    return engine.PValueSample(values=p, truth=np.arange(config.n) < config.n0)


def _build_schedules(config: SimulationConfig) -> list[CriticalValueSchedule]:
    model = None
    if any(needs_model(name) for name in config.procedures):
        model = null_model_for(config)
    return [
        make_schedule(name, n=config.n, k=config.k, alpha=config.alpha, model=model)
        for name in config.procedures
    ]


def _mean_se(values: np.ndarray) -> tuple[float, float]:
    mean = float(np.mean(values))
    if values.size < 2:
        return mean, 0.0
    se = float(np.std(values, ddof=1) / math.sqrt(values.size))
    return mean, se


def run_experiment(
    config: SimulationConfig, schedules: Sequence[CriticalValueSchedule] | None = None
) -> SimulationSummary:
    """Estimate error rates and power for every configured procedure.

    Per iteration and procedure the k-FDP (at the config's k), the indicator
    of at least k false rejections, the FDP and the rejected fraction of
    false nulls are recorded; means and standard errors are taken over the
    fixed per-iteration arrays, so reruns are bit-identical. Iterations run
    in blocks of about ``_BLOCK_VALUES`` p-values. ``schedules``, one per
    configured procedure, are built from the config when not given; they do
    not depend on n0.
    """
    if schedules is None:
        schedules = _build_schedules(config)
    n, n0, n1, k, iters = config.n, config.n0, config.n1, config.k, config.iterations
    # [measure, procedure, iteration]: k-FDP, k-FWER indicator, FDP, power.
    stats = np.empty((4, len(schedules), iters))
    block = max(1, _BLOCK_VALUES // n)
    for start in range(0, iters, block):
        stop = min(start + block, iters)
        p = _draw_block(config, start, stop)
        order = np.argsort(p, axis=1, kind="stable")
        sorted_p = np.take_along_axis(p, order, axis=1)
        # nulls_below[i, r]: true nulls among the r smallest p-values of row i.
        nulls_below = np.zeros((stop - start, n + 1), dtype=np.intp)
        np.cumsum(order < n0, axis=1, out=nulls_below[:, 1:])
        rows = np.arange(stop - start)
        for j, schedule in enumerate(schedules):
            r = engine.rejection_count(sorted_p, schedule.alphas, schedule.direction)
            v = nulls_below[rows, r]
            r_safe = np.maximum(r, 1)
            stats[0, j, start:stop] = np.where(v >= k, v / r_safe, 0.0)
            stats[1, j, start:stop] = v >= k
            stats[2, j, start:stop] = v / r_safe
            stats[3, j, start:stop] = (r - v) / n1 if n1 > 0 else 0.0

    results = []
    for j, name in enumerate(config.procedures):
        estimates = [value for measure in stats[:, j] for value in _mean_se(measure)]
        results.append(ProcedureEstimates(name, *estimates))
    return SimulationSummary(config=config, results=tuple(results))


def figure_sweep(
    base_config: SimulationConfig, n0_grid: Sequence[int]
) -> list[SimulationSummary]:
    """Run the experiment across a grid of true-null counts, building the
    schedules once for the whole grid."""
    for n0 in n0_grid:
        if not base_config.k <= n0 <= base_config.n:
            raise ValueError(
                f"n0 grid values must lie in [k, n], got n0={n0} with "
                f"k={base_config.k}, n={base_config.n}"
            )
    schedules = _build_schedules(base_config)
    return [
        run_experiment(dataclasses.replace(base_config, n0=int(n0)), schedules)
        for n0 in n0_grid
    ]


SWEEP_COLUMNS = (
    "n0",
    "procedure",
    "kfdr_hat",
    "kfdr_se",
    "kfwer_hat",
    "kfwer_se",
    "fdr_hat",
    "fdr_se",
    "power_hat",
    "power_se",
    "iterations",
    "seed",
)


def write_sweep_csv(summaries: Sequence[SimulationSummary], fh: IO[str]) -> None:
    """Emit one CSV row per (n0, procedure) with the mandatory header."""
    writer = csv.writer(fh)
    writer.writerow(SWEEP_COLUMNS)
    for summary in summaries:
        cfg = summary.config
        for est in summary.results:
            writer.writerow(
                [
                    cfg.n0,
                    est.procedure,
                    repr(est.kfdr_hat),
                    repr(est.kfdr_se),
                    repr(est.kfwer_hat),
                    repr(est.kfwer_se),
                    repr(est.fdr_hat),
                    repr(est.fdr_se),
                    repr(est.power_hat),
                    repr(est.power_se),
                    cfg.iterations,
                    cfg.seed,
                ]
            )


def counterexample_bound(n0: int, n1: int, alpha: float) -> tuple[float, float]:
    """Exact lower bound on the 2-FDR of the generalized Simes stepup rule
    when the n1 nonnull p-values are always rejected first.

    With i.i.d. uniform null p-values and k = 2, the (n1+2)-th critical
    value is c = sqrt((n1+2)(n1+1) alpha / (n(n-1))) and the bound is
    (2/(n1+2)) * Pr{at least 2 of n0 uniforms <= c}. The bound can exceed
    alpha, demonstrating non-control.
    """
    if n0 < 2:
        raise ValueError(f"need n0 >= 2 for a second-order bound, got {n0!r}")
    if n1 < 0:
        raise ValueError(f"n1 must be nonnegative, got {n1!r}")
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"alpha must lie in [0, 1), got {alpha!r}")
    if alpha == 0.0:
        return 0.0, 0.0
    n = n0 + n1
    c = math.sqrt((n1 + 2) * (n1 + 1) * alpha / (n * (n - 1)))
    at_least_two = 1.0 - (1.0 - c) ** n0 - n0 * c * (1.0 - c) ** (n0 - 1)
    bound = 2.0 / (n1 + 2) * at_least_two
    return c, bound
