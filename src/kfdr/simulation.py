"""Monte Carlo harness for error-rate estimation.

Draws equicorrelated normal test statistics via the one-factor model, runs a
panel of stepwise procedures on them and estimates k-FDR, k-FWER, FDR and
average power with standard errors. Each iteration gets its own
counter-based Philox stream keyed by (seed, iteration), so serial and
blocked execution produce bit-identical results, and the draws of an
iteration are the same at every n0.

A sweep over n0 is one grid-major pass. Iterations run in blocks of about
``_BLOCK_VALUES`` statistics: one Philox generator is re-keyed per iteration
to fill the block's normals, which are drawn once per sweep, and every grid
point adds its means to the same common and idiosyncratic terms, then sorts
and counts (``engine.rejection_count``) its [m, n] block of statistics x as
whole arrays; a grid value or procedure name that repeats is scored once.
The rejections and false rejections of every iteration are kept as int32
counts, grid x procedures x iterations x 8 bytes in all (0.6 MB for 5
points, 3 procedures and 5000 iterations), and the measures are formed
from them at the end. ``run_experiment`` is the one-point case.

The sweep never computes p-values. p = 1 - Phi(x) is nonincreasing in x, so
a stepwise decision depends only on the order of the x and on where each
critical value falls on the x axis: once per schedule, each alpha_i becomes
the smallest double tau_i whose p-value meets it
(``std_normal_sf_thresholds``), and a block is compared with these
thresholds after one plain sort of -x. A sweep builds its schedules and
thresholds once, since they do not depend on n0. ``draw_sample`` still
returns the p-values of one iteration, as the reference the tests compare
with. Also provides the exact closed-form lower bound showing that
generalized Simes critical values can fail to control the k-FDR; a sweep at
mu_alt = +inf, where every nonnull p-value is exactly zero, realizes the
construction behind it.
"""

from __future__ import annotations

import csv
import dataclasses
import math
from dataclasses import dataclass
from typing import IO, Sequence

import numpy as np

from . import engine
from .fk_models import equicorrelated_fk, independent_fk
from .numerics import std_normal_sf_array, std_normal_sf_thresholds
from .schedules import STEPUP, CriticalValueSchedule, make_schedule, resolve

# Monte Carlo iterations run in blocks of about this many statistics
# (max(1, _BLOCK_VALUES // n) iterations), which bounds the block's
# temporaries at a few hundred kilobytes whatever n is.
_BLOCK_VALUES = 16384


@dataclass(frozen=True)
class SimulationConfig:
    """One experiment: n tests, n0 true nulls, procedures run at level alpha.

    The n1 = n - n0 nonnull statistics have mean ``mu_alt``. At mu_alt =
    +inf they are all +inf, whose p-values are exact zeros, so every
    procedure rejects the nonnulls first; this realizes the k-FDR violation
    construction.
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


def _streams(seed: int) -> tuple[np.random.Generator, dict]:
    """A Philox generator and a state that re-keys it: with
    ``state["state"]["key"][0]`` set to an iteration, assigning ``state`` to
    the bit generator starts the stream of
    ``Philox(key=(seed << 64) + iteration)`` at counter 0."""
    bit_generator = np.random.Philox(key=seed << 64)
    return np.random.Generator(bit_generator), bit_generator.state


def _draw_block(
    config: SimulationConfig, start: int, stop: int
) -> tuple[np.ndarray, np.ndarray]:
    """The one-factor terms of iterations start..stop-1, row i from
    iteration start + i: the common term sqrt(rho) Z as an [m, 1] column and
    the idiosyncratic terms sqrt(1-rho) eps as an [m, n] block.

    They do not depend on n0, so a sweep draws each block once and
    ``_statistics`` adds the means of every n0 point to the same terms. Per
    iteration the generator is re-keyed to the start of the stream of
    ``Philox(key=(seed << 64) + iteration)``, and Z is drawn first, then the
    n eps_i.
    """
    rng, state = _streams(config.seed)
    draws = np.empty((stop - start, config.n + 1))
    for row, iteration in zip(draws, range(start, stop)):
        state["state"]["key"][0] = iteration
        rng.bit_generator.state = state
        rng.standard_normal(out=row)
    return math.sqrt(config.rho) * draws[:, :1], math.sqrt(1.0 - config.rho) * draws[:, 1:]


def _statistics(config: SimulationConfig, common: np.ndarray, idio: np.ndarray) -> np.ndarray:
    """X_i = mu_i + sqrt(rho) Z + sqrt(1-rho) eps_i for the terms of
    ``_draw_block``, with the first n0 means at zero and the rest at mu_alt,
    as a new array; ``common`` and ``idio`` are left as they are. The p-value
    of X_i is 1 - Phi(X_i). An infinite mu_alt makes those X_i infinite,
    since the draws are finite.
    """
    mu = np.zeros(config.n)
    mu[config.n0 :] = config.mu_alt
    return mu + common + idio


def draw_sample(config: SimulationConfig, iteration_index: int) -> engine.PValueSample:
    """One draw of n one-sided p-values with truth labels attached, the p-values
    of the statistics ``run_experiment`` draws at that iteration."""
    terms = _draw_block(config, iteration_index, iteration_index + 1)
    p = std_normal_sf_array(_statistics(config, *terms)[0])
    return engine.PValueSample(values=p, truth=np.arange(config.n) < config.n0)


def _build_schedules(config: SimulationConfig) -> list[CriticalValueSchedule]:
    # Every name is looked up before any model or schedule is built.
    model = None
    if any([resolve(name).needs_model for name in config.procedures]):
        if config.rho == 0.0:
            model = independent_fk(config.k)
        else:
            model = equicorrelated_fk(config.k, config.rho)
    return [
        make_schedule(name, n=config.n, k=config.k, alpha=config.alpha, model=model)
        for name in config.procedures
    ]


def _statistic_rules(
    schedules: Sequence[CriticalValueSchedule],
) -> list[tuple[str, np.ndarray]]:
    """Each schedule's direction and its critical values moved to the scale
    of s, the ascending sorted -x, for ``engine.rejection_count``.

    s_i carries the i-th smallest p-value, sf(-s_i). A stepup hit p_(i) <=
    alpha_i is x >= tau_i, i.e. s_i <= -tau_i. A stepdown miss p_(i) >=
    alpha_i is x < tau'_i, where tau'_i is the threshold of the double
    below alpha_i (p < alpha_i exactly when p <= that double), i.e. s_i >=
    nextafter(-tau'_i, +inf), except that an alpha_i of 0, which has no
    tau' (-inf), always misses and gets the bound -inf.
    """
    rules = []
    for schedule in schedules:
        if schedule.direction == STEPUP:
            bounds = -std_normal_sf_thresholds(schedule.alphas)
        else:
            tau = std_normal_sf_thresholds(np.nextafter(schedule.alphas, -np.inf))
            bounds = np.where(tau == -np.inf, -np.inf, np.nextafter(-tau, np.inf))
        rules.append((schedule.direction, bounds))
    return rules


def _mean_se(values: np.ndarray) -> tuple[float, float]:
    mean = float(np.mean(values))
    if values.size < 2:
        return mean, 0.0
    se = float(np.std(values, ddof=1) / math.sqrt(values.size))
    return mean, se


def _sweep(
    configs: Sequence[SimulationConfig], rules: Sequence[tuple[str, np.ndarray]]
) -> list[SimulationSummary]:
    """The Monte Carlo kernel: estimates for configs that differ only in n0,
    scored block by block on the same draws. Per config, s = sort(-x) row-wise,
    r is ``engine.rejection_count(s, bounds, direction)`` and V counts the
    nulls with -x <= s_r (0 when r = 0); r and V are kept per iteration as
    int32 [config, procedure, iteration] arrays and become the four measures
    after the last block.
    """
    if not configs:
        return []
    base = configs[0]
    k, iters = base.k, base.iterations
    r = np.empty((len(configs), len(rules), iters), dtype=np.int32)
    v = np.empty_like(r)
    block = max(1, _BLOCK_VALUES // base.n)
    for start in range(0, iters, block):
        stop = min(start + block, iters)
        common, idio = _draw_block(base, start, stop)
        rows = np.arange(stop - start)
        for c, config in enumerate(configs):
            neg_x = -_statistics(config, common, idio)
            s = np.sort(neg_x, axis=1)
            for j, (direction, bounds) in enumerate(rules):
                count = engine.rejection_count(s, bounds, direction)
                last_rejected = s[rows, np.maximum(count, 1) - 1, None]
                below = np.count_nonzero(neg_x[:, : config.n0] <= last_rejected, axis=1)
                r[c, j, start:stop] = count
                v[c, j, start:stop] = np.where(count > 0, below, 0)

    summaries = []
    for config, r_c, v_c in zip(configs, r, v):
        results = []
        for name, r_j, v_j in zip(config.procedures, r_c, v_c):
            r_safe = np.maximum(r_j, 1)
            # k-FDP, k-FWER indicator, FDP and power per iteration.
            measures = (
                np.where(v_j >= k, v_j / r_safe, 0.0),
                (v_j >= k).astype(np.float64),
                v_j / r_safe,
                (r_j - v_j) / config.n1 if config.n1 > 0 else np.zeros(iters),
            )
            estimates = [value for m in measures for value in _mean_se(m)]
            results.append(ProcedureEstimates(name, *estimates))
        summaries.append(SimulationSummary(config=config, results=tuple(results)))
    return summaries


def run_experiment(
    config: SimulationConfig, rules: Sequence[tuple[str, np.ndarray]] | None = None
) -> SimulationSummary:
    """Estimate error rates and power for every configured procedure: the
    one-point case of the sweep kernel, which keeps procedures x iterations
    x 8 bytes of counts.

    Per iteration and procedure the k-FDP (at the config's k), the indicator
    of at least k false rejections, the FDP and the rejected fraction of
    false nulls are recorded; means and standard errors are taken over the
    fixed per-iteration arrays, so reruns are bit-identical. ``rules``, one
    (direction, bounds) pair per configured procedure from
    ``_statistic_rules``, are built from the config when not given; they do
    not depend on n0.

    Counting on sorted -x gives the r and V of the p-value procedure even
    where p-values tie, for instance at 1.0 for distinct very negative x,
    because with nondecreasing alphas a stepwise rule rejects a group of
    tied p-values whole: at a stepup count r, p_(r) = p_(r+1) would make rank
    r + 1 a hit too (p_(r+1) <= alpha_r <= alpha_(r+1)), and at a stepdown
    count r it would keep rank r + 1 from missing (p_(r+1) < alpha_r <=
    alpha_(r+1)). So the rejected set is every hypothesis with p <= p_(r),
    which is every one with -x <= s_r, whatever order a sort gives tied
    values.
    """
    if rules is None:
        rules = _statistic_rules(_build_schedules(config))
    return _sweep([config], rules)[0]


def figure_sweep(
    base_config: SimulationConfig, n0_grid: Sequence[int]
) -> list[SimulationSummary]:
    """Run the experiment across a grid of true-null counts in one pass of
    the sweep kernel: the schedules and their thresholds are built once, and
    every distinct grid point and procedure name is scored once on the same
    block of draws, so the results, returned in grid and procedure order,
    equal those of ``run_experiment`` per point. The kernel keeps distinct
    n0 x distinct procedures x iterations x 8 bytes of counts."""
    for n0 in n0_grid:
        if not base_config.k <= n0 <= base_config.n:
            raise ValueError(
                f"n0 grid values must lie in [k, n], got n0={n0} with "
                f"k={base_config.k}, n={base_config.n}"
            )
    names = tuple(dict.fromkeys(base_config.procedures))
    scored = dataclasses.replace(base_config, procedures=names)
    rules = _statistic_rules(_build_schedules(scored))
    distinct = dict.fromkeys(int(n0) for n0 in n0_grid)
    configs = [dataclasses.replace(scored, n0=n0) for n0 in distinct]
    by_n0 = {}
    for n0, summary in zip(distinct, _sweep(configs, rules)):
        by_name = dict(zip(names, summary.results))
        results = tuple(by_name[name] for name in base_config.procedures)
        by_n0[n0] = SimulationSummary(dataclasses.replace(base_config, n0=n0), results)
    return [by_n0[int(n0)] for n0 in n0_grid]


# The sweep CSV's estimate columns: the ProcedureEstimates fields in order.
_ESTIMATE_COLUMNS = tuple(
    f.name for f in dataclasses.fields(ProcedureEstimates) if f.name != "procedure"
)
SWEEP_COLUMNS = ("n0", "procedure", *_ESTIMATE_COLUMNS, "iterations", "seed")


def write_sweep_csv(summaries: Sequence[SimulationSummary], fh: IO[str]) -> None:
    """Emit one CSV row per (n0, procedure) with the mandatory header."""
    writer = csv.writer(fh)
    writer.writerow(SWEEP_COLUMNS)
    for summary in summaries:
        cfg = summary.config
        for est in summary.results:
            estimates = (repr(getattr(est, name)) for name in _ESTIMATE_COLUMNS)
            writer.writerow([cfg.n0, est.procedure, *estimates, cfg.iterations, cfg.seed])


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
