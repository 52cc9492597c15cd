import math

import numpy as np
import pytest

from kfdr.simulation import SimulationConfig, draw_sample, run_experiment


def config(**overrides):
    fields = dict(
        n=20, n0=20, k=2, alpha=0.05, rho=0.0, iterations=10, seed=7, procedures=("gen_bh",)
    )
    return SimulationConfig(**{**fields, **overrides})


@pytest.mark.parametrize("rho", [-0.1, 1.5, math.nan])
def test_rejects_rho_outside_unit_interval(rho):
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        config(rho=rho)


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
