import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kfdr import numerics
from kfdr.numerics import (
    equicorrelated_min_survivor,
    invert_min_survivor,
    std_normal_cdf,
    std_normal_quantile,
    std_normal_quantile_array,
    std_normal_sf,
    std_normal_sf_array,
    std_normal_sf_thresholds,
)
from kfdr.fk_models import equicorrelated_fk, independent_fk
from kfdr.schedules import PROCEDURES, STEPUP, make_schedule

# High-precision reference values (mpmath, 30 digits).
PHI_1959964 = 0.9750000009035576
PHI_INV_0975 = 1.959963984540054
SURV_1_030_3 = 0.017767238499379817
SURV_M07_020_4 = 0.3950235186938144


class TestStdNormalCdf:
    def test_symmetry_at_zero(self):
        assert std_normal_cdf(0.0) == 0.5

    def test_far_tail_saturates(self):
        assert std_normal_cdf(40.0) == pytest.approx(1.0, abs=1e-15)
        assert std_normal_cdf(-40.0) == pytest.approx(0.0, abs=1e-15)

    def test_reference_value(self):
        assert std_normal_cdf(1.959964) == pytest.approx(PHI_1959964, abs=1e-12)

    def test_rejects_non_finite(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                std_normal_cdf(bad)

    def test_sf_complements_cdf(self):
        for x in (-3.0, -0.5, 0.0, 1.7, 6.0):
            assert std_normal_sf(x) + std_normal_cdf(x) == pytest.approx(1.0, abs=1e-14)

    def test_array_matches_scalar(self):
        xs = np.linspace(-5, 5, 37)
        np.testing.assert_array_equal(std_normal_sf_array(xs), [std_normal_sf(x) for x in xs])
        lower = xs[xs <= 0.0]  # where p = Phi(x) carries full precision
        np.testing.assert_allclose(
            std_normal_quantile_array([std_normal_cdf(x) for x in lower]), lower, rtol=0, atol=1e-14
        )

    @given(st.floats(-8, 8), st.floats(-8, 8))
    def test_monotone(self, x1, x2):
        lo, hi = sorted((x1, x2))
        assert std_normal_cdf(lo) <= std_normal_cdf(hi)


class TestSfThresholds:
    @pytest.mark.parametrize("model", [independent_fk(2), equicorrelated_fk(2, 0.5)])
    def test_smallest_double_meeting_each_schedule_alpha(self, model):
        # At each threshold the p-value meets alpha and at the next double
        # down it does not, which also checks that libm's erfc is monotone
        # there. A strict alpha of 0 has no threshold and yields -inf.
        for name in PROCEDURES:
            schedule = make_schedule(name, n=60, k=2, alpha=0.05, model=model)
            strict = schedule.direction != STEPUP
            alphas = np.concatenate([schedule.alphas, [0.0, 5e-324, 1e-300, 0.5, 1.0]])
            taus = std_normal_sf_thresholds(alphas, strict=strict)
            at = std_normal_sf_array(taus)
            below = std_normal_sf_array(np.nextafter(taus, -np.inf))
            meets = (lambda p, a: p < a) if strict else (lambda p, a: p <= a)
            for alpha, tau, p, p_below in zip(alphas, taus, at, below):
                if strict and alpha == 0.0:
                    assert tau == -np.inf
                    continue
                assert meets(p, alpha), (name, alpha, tau)
                assert tau == -np.inf or not meets(p_below, alpha), (name, alpha, tau)


class TestStdNormalQuantile:
    def test_median(self):
        assert std_normal_quantile(0.5) == pytest.approx(0.0, abs=1e-15)

    def test_reference_value(self):
        assert std_normal_quantile(0.975) == pytest.approx(PHI_INV_0975, abs=1e-6)

    def test_antisymmetry(self):
        for p in (0.001, 0.1, 0.25, 0.4997, 0.93):
            assert std_normal_quantile(p) + std_normal_quantile(1 - p) == pytest.approx(
                0.0, abs=1e-9
            )

    def test_rejects_out_of_range(self):
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                std_normal_quantile(bad)

    def test_round_trip_bulk(self):
        rng = np.random.default_rng(1001)
        ps = rng.uniform(1e-8, 1 - 1e-8, size=10_000)
        for p in ps:
            assert abs(std_normal_cdf(std_normal_quantile(p)) - p) <= 1e-8

    @given(st.floats(1e-12, 1 - 1e-12))
    @settings(max_examples=200)
    def test_round_trip_property(self, p):
        assert std_normal_cdf(std_normal_quantile(p)) == pytest.approx(p, abs=1e-9)


class TestEquicorrelatedMinSurvivor:
    def test_independent_symmetric_pair(self):
        assert equicorrelated_min_survivor(0.0, 0.0, 2) == pytest.approx(0.25, abs=1e-12)

    def test_perfect_correlation_limit(self):
        for t in (-1.3, 0.0, 0.8, 2.5):
            for k in (1, 3, 5):
                assert equicorrelated_min_survivor(t, 1.0, k) == std_normal_sf(t)

    def test_arcsine_identity(self):
        # Pr{X1 >= 0, X2 >= 0} = 1/4 + arcsin(rho)/(2 pi); at rho = 1/2 that is 1/3.
        assert equicorrelated_min_survivor(0.0, 0.5, 2) == pytest.approx(1 / 3, abs=1e-6)

    def test_high_precision_anchors(self):
        assert equicorrelated_min_survivor(1.0, 0.30, 3) == pytest.approx(
            SURV_1_030_3, abs=1e-9
        )
        assert equicorrelated_min_survivor(-0.7, 0.20, 4) == pytest.approx(
            SURV_M07_020_4, abs=1e-9
        )

    def test_reduces_to_power_at_rho_zero(self):
        for t in np.linspace(-3, 3, 13):
            for k in (1, 2, 5):
                expected = std_normal_sf(t) ** k
                assert equicorrelated_min_survivor(t, 0.0, k) == pytest.approx(
                    expected, abs=1e-8
                )

    def test_monotone_in_t_and_rho(self):
        ts = np.linspace(-2.5, 2.5, 21)
        for k in (1, 2, 4):
            vals = [equicorrelated_min_survivor(t, 0.3, k) for t in ts]
            assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))
        # more correlation makes the joint survival of the min larger at t > 0
        for t in (0.5, 1.0, 2.0):
            vals = [equicorrelated_min_survivor(t, r, 3) for r in np.linspace(0, 0.9, 10)]
            assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_node_doubling_agreement(self, monkeypatch):
        # The 20-node default agrees with 40 nodes to 1e-12 relative, and 40
        # with 80 to rounding level, out to survivor probabilities of 1e-60.
        assert numerics._NODES == 20
        ts = np.array([-1.5, 0.0, 1.0, 2.5, 5.0, 7.3])

        def survivor(nodes, rho, k):
            monkeypatch.setattr(numerics, "_NODES", nodes)
            return equicorrelated_min_survivor(ts, rho, k)

        node_count_used = False
        for rho in (0.05, 0.3, 0.7, 0.9, 0.99):
            for k in (1, 3, 5, 10):
                a, b, c = (survivor(nodes, rho, k) for nodes in (20, 40, 80))
                np.testing.assert_allclose(a, b, rtol=1e-12, atol=0)
                np.testing.assert_allclose(b, c, rtol=1e-13, atol=0)
                node_count_used |= not np.array_equal(a, c)
        assert node_count_used

    def test_batched_matches_scalar(self):
        ts = np.linspace(-3.0, 6.0, 600)
        batched = equicorrelated_min_survivor(ts, 0.4, 3)
        assert batched.shape == ts.shape
        for i in (0, 255, 256, 599):
            assert batched[i] == pytest.approx(
                equicorrelated_min_survivor(float(ts[i]), 0.4, 3), rel=1e-14
            )

    def test_relative_accuracy_deep_tail(self):
        # k = 1 is the normal tail itself, down to 1e-300
        ts = np.array([5.0, 10.0, 20.0, 37.0])
        for rho in (0.0, 0.5, 0.9):
            got = equicorrelated_min_survivor(ts, rho, 1)
            np.testing.assert_allclose(got, [std_normal_sf(t) for t in ts], rtol=1e-12)

    def test_quadrature_matches_monte_carlo(self):
        rng = np.random.default_rng(77)
        for _ in range(5):
            k = int(rng.integers(1, 6))
            rho = float(rng.uniform(0.0, 0.8))
            t_max = std_normal_quantile(1.0 - 1e-4 ** (1.0 / k))
            t = float(rng.uniform(-2.0, t_max))
            m = 1_000_000
            z = rng.standard_normal(m)
            eps = rng.standard_normal((m, k))
            x = math.sqrt(rho) * z[:, None] + math.sqrt(1 - rho) * eps
            hits = np.all(x >= t, axis=1)
            p_hat = hits.mean()
            se = math.sqrt(max(p_hat * (1 - p_hat), 1e-12) / m)
            quad = equicorrelated_min_survivor(t, rho, k)
            assert abs(quad - p_hat) <= 4 * se, (t, rho, k, quad, p_hat, se)

    def test_rejects_bad_correlation(self):
        for bad in (-0.1, 1.2):
            with pytest.raises(ValueError):
                equicorrelated_min_survivor(0.0, bad, 2)
        with pytest.raises(ValueError):
            equicorrelated_min_survivor(math.inf, 0.3, 2)
        with pytest.raises(ValueError):
            equicorrelated_min_survivor(0.0, 0.3, 0)


class TestInvertMonotone:
    # S_k(t) is decreasing in t; the inverse returns t with S_k(t) = target.
    def test_identity(self):
        # F_1(x) = x for every rho: the threshold is the normal quantile
        for rho in (0.0, 0.3, 0.9, 1.0):
            (t,) = invert_min_survivor([0.3], rho, 1)
            assert std_normal_sf(t) == pytest.approx(0.3, rel=1e-14)

    def test_square(self):
        (t,) = invert_min_survivor([1e-4], 0.0, 2)
        assert std_normal_sf(t) == pytest.approx(1e-2, rel=1e-12)

    def test_cube(self):
        (t,) = invert_min_survivor([0.027], 0.0, 3)
        assert std_normal_sf(t) == pytest.approx(0.3, rel=1e-12)

    def test_out_of_range_target(self):
        for bad in (0.0, 1.0, -0.1, 1.5, math.nan):
            with pytest.raises(ValueError):
                invert_min_survivor([0.2, bad], 0.5, 2)

    def test_respects_custom_tolerance(self, monkeypatch):
        assert numerics._REL_TOL_INVERT == 1e-12
        targets = np.geomspace(1e-12, 0.5, 40)
        for rel_tol in (1e-4, 1e-12):
            monkeypatch.setattr(numerics, "_REL_TOL_INVERT", rel_tol)
            t = invert_min_survivor(targets, 0.5, 3)
            residual = equicorrelated_min_survivor(t, 0.5, 3) / targets - 1.0
            assert np.max(np.abs(residual)) <= rel_tol

    def test_equal_targets_equal_thresholds(self):
        targets = np.array([1e-6, 1e-6, 1e-6, 2e-6, 1e-3, 1e-3])
        t = invert_min_survivor(targets, 0.7, 4)
        assert t[0] == t[1] == t[2] and t[4] == t[5]
        assert np.all(np.diff(t) <= 0.0)

