import dataclasses
import math

import numpy as np
import pytest

from kfdr import simulation
from kfdr.engine import decide, k_fdp
from kfdr.numerics import std_normal_sf, std_normal_sf_array, std_normal_sf_thresholds
from kfdr.schedules import STEPDOWN, STEPUP, CriticalValueSchedule
from kfdr.simulation import SimulationConfig, counterexample_bound, draw_sample, run_experiment


def config(**overrides):
    fields = dict(
        n=20, n0=20, k=2, alpha=0.05, rho=0.0, iterations=10, seed=7, procedures=("gen_bh",)
    )
    return SimulationConfig(**{**fields, **overrides})


@pytest.mark.parametrize("rho", [-0.1, 1.5, math.nan])
def test_rejects_rho_outside_unit_interval(rho):
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        config(rho=rho)


def test_rejects_nan_mu_alt():
    with pytest.raises(ValueError, match="mu_alt must be a number, got nan"):
        config(mu_alt=math.nan)


@pytest.mark.parametrize("mu_alt, p, power", [(math.inf, 0.0, 1.0), (-math.inf, 1.0, 0.0)])
def test_infinite_mu_alt_gives_exact_p_values(mu_alt, p, power):
    cfg = config(n0=15, mu_alt=mu_alt)
    assert draw_sample(cfg, 0).values[15:].tolist() == [p] * 5
    (est,) = run_experiment(cfg).results
    assert est.power_hat == power


def test_perfect_correlation_controls_gen_bh():
    # With rho = 1 every null p-value is the same draw, so gen_bh rejects all
    # n0 nulls exactly when it is <= alpha_n = alpha: the k-FDR is alpha.
    summary = run_experiment(config(rho=1.0, iterations=2000, seed=20070523))
    (est,) = summary.results
    assert est.kfdr_se > 0.0
    assert est.kfdr_hat <= 0.05 + 4 * est.kfdr_se


def test_draw_sample_is_array_native():
    sample = draw_sample(config(n0=15), 3)
    assert sample.values.dtype == np.float64 and sample.values.shape == (20,)
    assert sample.truth.tolist() == [True] * 15 + [False] * 5


def reference_experiment(cfg, schedules=None):
    """run_experiment's estimates from one draw_sample and one engine.decide
    per iteration."""
    if schedules is None:
        schedules = simulation._build_schedules(cfg)
    measures = np.empty((len(schedules), 4, cfg.iterations))
    for it in range(cfg.iterations):
        sample = draw_sample(cfg, it)
        for j, schedule in enumerate(schedules):
            outcome = decide(sample, schedule)
            r, v = outcome.r, outcome.v
            measures[j, :, it] = (
                k_fdp(r, v, cfg.k),  # at the config's k, which bh's schedule does not carry
                1.0 if v >= cfg.k else 0.0,
                v / r if r > 0 else 0.0,
                (r - v) / cfg.n1 if cfg.n1 > 0 else 0.0,
            )
    return [
        [value for row in per_procedure for value in simulation._mean_se(row)]
        for per_procedure in measures
    ]


def estimates(summary):
    return [list(dataclasses.astuple(est))[1:] for est in summary.results]


PANEL = ("gen_bh", "gen_holm", "bh", "gen_simes", "lehmann_romano")


def hand_schedule(direction, alphas):
    return CriticalValueSchedule(
        alphas=alphas, k=3, procedure="hand", alpha_level=0.05, direction=direction
    )


# Critical values of 0.0 and 1.0 in both directions: p-values of exactly 0
# (force_nonnull_zero) and 1 (mu_alt far below 0) meet them with equality.
HAND = (
    hand_schedule(STEPUP, [0.0] * 3 + [0.001, 0.01, 0.05, 0.2, 0.5, 0.5, 0.9, 1.0, 1.0]),
    hand_schedule(STEPDOWN, [0.0] * 3 + [0.001, 0.01, 0.05, 0.2, 0.5, 0.5, 0.9, 1.0, 1.0]),
    hand_schedule(STEPUP, [0.0] * 3 + [0.01, 0.02, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6]),
    hand_schedule(STEPDOWN, [0.01] * 3 + [0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9, 1.0, 1.0]),
)


@pytest.mark.parametrize(
    "overrides, schedules",
    [
        pytest.param(dict(n0=n0, force_nonnull_zero=force, rho=rho), None,
                     id=f"{n0}-{force}-{rho}")
        for n0 in (3, 12) for force in (False, True) for rho in (0.0, 0.5, 1.0)
    ] + [
        # Nonnull p-values tie at 1.0 although their statistics differ.
        pytest.param(dict(n0=3, rho=0.5, mu_alt=-40.0), None, id="mu_alt=-40"),
        pytest.param(dict(n0=3, rho=0.5, mu_alt=-math.inf), None, id="mu_alt=-inf"),
        pytest.param(dict(n0=6, rho=0.5, mu_alt=-40.0), HAND, id="hand-mu_alt=-40"),
        pytest.param(dict(n0=6, rho=0.5, force_nonnull_zero=True), HAND, id="hand-zeros"),
        pytest.param(dict(n0=0, rho=0.0, mu_alt=-math.inf), HAND, id="hand-all-ones"),
        pytest.param(dict(n=400, n0=300, rho=0.5), None, id="n=400"),
    ],
)
def test_batched_matches_per_iteration_reference(overrides, schedules):
    fields = dict(n=12, k=3, iterations=40, procedures=PANEL, mu_alt=2.5)
    if schedules is not None:
        fields["procedures"] = tuple(f"hand-{s.direction}" for s in schedules)
    cfg = config(**{**fields, **overrides})
    rules = None if schedules is None else simulation._statistic_rules(schedules)
    assert estimates(run_experiment(cfg, rules)) == reference_experiment(cfg, schedules)


@pytest.mark.parametrize("schedule", HAND, ids=lambda s: s.direction)
def test_statistic_rules_decide_as_p_values_at_the_thresholds(schedule):
    # Statistics at, just below and just above each threshold, and at +inf:
    # comparing -x with the rule's bounds gives the p-value hit or miss.
    ((direction, bounds),) = simulation._statistic_rules([schedule])
    tau = std_normal_sf_thresholds(schedule.alphas, strict=direction == STEPDOWN)
    alphas = schedule.alphas
    for x in (tau, np.nextafter(tau, -np.inf), np.nextafter(tau, np.inf), np.full(12, np.inf)):
        p = std_normal_sf_array(x)
        if direction == STEPUP:
            assert ((-x <= bounds) == (p <= alphas)).all()
        else:
            assert ((-x >= bounds) == (p >= alphas)).all()


@pytest.mark.parametrize("rows", [1, 3])
def test_block_size_does_not_change_results(rows, monkeypatch):
    cfg = config(n=12, n0=8, rho=0.5, iterations=11, procedures=("gen_bh", "gen_holm"))
    whole = run_experiment(cfg)
    monkeypatch.setattr(simulation, "_BLOCK_VALUES", rows * cfg.n)
    assert run_experiment(cfg) == whole


@pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
def test_rekeyed_stream_equals_fresh_philox(seed):
    rng, state = simulation._streams(seed)
    for it in (5, 0, 12345, 2**64 - 1):
        state["state"]["key"][0] = it
        rng.bit_generator.state = state
        fresh = np.random.Generator(np.random.Philox(key=(seed << 64) + it))
        assert np.array_equal(rng.standard_normal(9), fresh.standard_normal(9))


def test_draw_sample_follows_one_factor_model():
    cfg = config(n=6, n0=4, rho=0.3, mu_alt=1.5, seed=2**64 - 1)
    draws = np.random.Generator(np.random.Philox(key=(cfg.seed << 64) + 9)).standard_normal(7)
    x = [mu + math.sqrt(0.3) * draws[0] + math.sqrt(1.0 - 0.3) * e
         for mu, e in zip([0.0] * 4 + [1.5] * 2, draws[1:])]
    assert draw_sample(cfg, 9).values.tolist() == [std_normal_sf(v) for v in x]


def test_rerun_is_bit_identical():
    cfg = config(n=30, n0=20, rho=0.5, iterations=300, procedures=("gen_bh", "gen_holm"))
    assert run_experiment(cfg) == run_experiment(cfg)


def test_independent_gen_bh_controls_kfdr():
    summary = run_experiment(config(n=20, n0=16, iterations=3000, seed=11))
    (est,) = summary.results
    assert est.kfdr_se > 0.0
    assert est.kfdr_hat <= 0.05 + 4 * est.kfdr_se


def test_counterexample_bound_exceeds_alpha():
    _, bound = counterexample_bound(50, 10, 0.05)
    assert bound == pytest.approx(0.1069, abs=1e-4)
    assert bound > 0.05


def test_simulation_reproduces_simes_violation():
    # With the 10 nonnulls rejected first, gen_simes's 2-FDR is at least the
    # closed-form bound, which is above alpha.
    _, bound = counterexample_bound(50, 10, 0.05)
    cfg = config(n=60, n0=50, iterations=4000, seed=1, procedures=("gen_simes",),
                 force_nonnull_zero=True)
    (est,) = run_experiment(cfg).results
    assert est.kfdr_se > 0.0
    assert est.kfdr_hat >= bound - 4 * est.kfdr_se
