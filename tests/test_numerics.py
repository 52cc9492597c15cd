import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kfdr import cli, numerics, render
from kfdr.engine import PValueSample
from kfdr.numerics import (
    equicorrelated_min_survivor,
    invert_min_survivor,
    std_normal_quantile_array,
    std_normal_sf_array,
    std_normal_sf_thresholds,
)
from kfdr.fk_models import equicorrelated_fk, fk_eval, independent_fk
from kfdr.schedules import (
    PROCEDURES,
    STEPUP,
    CriticalValueSchedule,
    make_schedule,
    rescaled_stepup,
)

# High-precision reference values (mpmath, 30 digits).
PHI_1959964 = 0.9750000009035576
PHI_INV_0975 = 1.959963984540054
SURV_1_030_3 = 0.017767238499379817
SURV_M07_020_4 = 0.3950235186938144


def sf(x):
    """1 - Phi(x) for one float, the formula std_normal_sf_array is bit-equal to."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


class TestStdNormalCdf:
    # Phi(x) is std_normal_sf_array(-x).
    def test_symmetry_at_zero(self):
        assert std_normal_sf_array(-0.0) == 0.5

    def test_far_tail_saturates(self):
        assert std_normal_sf_array(-40.0) == pytest.approx(1.0, abs=1e-15)
        assert std_normal_sf_array(40.0) == pytest.approx(0.0, abs=1e-15)

    def test_reference_value(self):
        assert std_normal_sf_array(-1.959964) == pytest.approx(PHI_1959964, abs=1e-12)

    def test_sf_complements_cdf(self):
        xs = np.array([-3.0, -0.5, 0.0, 1.7, 6.0])
        np.testing.assert_allclose(
            std_normal_sf_array(xs) + std_normal_sf_array(-xs), 1.0, rtol=0, atol=1e-14
        )

    def test_array_matches_scalar(self):
        xs = np.linspace(-5, 5, 37)
        np.testing.assert_array_equal(std_normal_sf_array(xs), [sf(x) for x in xs])
        lower = xs[xs <= 0.0]  # where p = Phi(x) carries full precision
        np.testing.assert_allclose(
            std_normal_quantile_array(std_normal_sf_array(-lower)), lower, rtol=0, atol=1e-14
        )

    @given(st.floats(-8, 8), st.floats(-8, 8))
    def test_monotone(self, x1, x2):
        lo, hi = sorted((x1, x2))
        assert std_normal_sf_array(-lo) <= std_normal_sf_array(-hi)


class TestSfThresholds:
    @pytest.mark.parametrize("model", [independent_fk(2), equicorrelated_fk(2, 0.5)])
    def test_smallest_double_meeting_each_schedule_alpha(self, model):
        # At each threshold the p-value meets alpha and at the next double
        # down it does not, which also checks that libm's erfc is monotone
        # there. Stepup and stepdown both ask p <= alpha.
        for name in PROCEDURES:
            schedule = make_schedule(name, n=60, k=2, alpha=0.05, model=model)
            alphas = np.concatenate([schedule.alphas, [0.0, 5e-324, 1e-300, 0.5, 1.0]])
            taus = std_normal_sf_thresholds(alphas)
            at = std_normal_sf_array(taus)
            below = std_normal_sf_array(np.nextafter(taus, -np.inf))
            for alpha, tau, p, p_below in zip(alphas, taus, at, below):
                assert p <= alpha, (name, alpha, tau)
                assert tau == -np.inf or p_below > alpha, (name, alpha, tau)


class TestStdNormalQuantile:
    def test_median(self):
        assert std_normal_quantile_array([0.5])[0] == pytest.approx(0.0, abs=1e-15)

    def test_reference_value(self):
        assert std_normal_quantile_array([0.975])[0] == pytest.approx(PHI_INV_0975, abs=1e-6)

    def test_antisymmetry(self):
        ps = np.array([0.001, 0.1, 0.25, 0.4997, 0.93])
        np.testing.assert_allclose(
            std_normal_quantile_array(ps) + std_normal_quantile_array(1 - ps), 0.0,
            rtol=0, atol=1e-9,
        )

    def test_rejects_out_of_range(self):
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError, match="std_normal_quantile_array requires 0 < p < 1"):
                std_normal_quantile_array([bad])

    def test_round_trip_bulk(self):
        rng = np.random.default_rng(1001)
        ps = rng.uniform(1e-8, 1 - 1e-8, size=10_000)
        round_trip = std_normal_sf_array(-std_normal_quantile_array(ps))
        assert np.max(np.abs(round_trip - ps)) <= 1e-8

    @given(st.floats(1e-12, 1 - 1e-12))
    @settings(max_examples=200)
    def test_round_trip_property(self, p):
        x = std_normal_quantile_array([p])
        assert std_normal_sf_array(-x)[0] == pytest.approx(p, abs=1e-9)


class TestEquicorrelatedMinSurvivor:
    # The kernel takes 1-D arrays and 0 < rho < 1; fk_models owns the exact
    # cases rho = 0, rho = 1 and k = 1 (see test_fk_models.TestExactForms).
    def test_independent_symmetric_pair(self):
        # Near independence the kernel meets the arcsine formula
        # 1/4 + arcsin(rho)/(2 pi), whose limit at rho = 0 is 1/4.
        for rho in (1e-12, 1e-6):
            (got,) = equicorrelated_min_survivor(np.array([0.0]), rho, 2)
            assert got == pytest.approx(0.25 + math.asin(rho) / (2 * math.pi), rel=1e-12)

    def test_arcsine_identity(self):
        # Pr{X1 >= 0, X2 >= 0} = 1/4 + arcsin(rho)/(2 pi); at rho = 1/2 that is 1/3.
        (got,) = equicorrelated_min_survivor(np.array([0.0]), 0.5, 2)
        assert got == pytest.approx(1 / 3, abs=1e-6)

    def test_high_precision_anchors(self):
        got = [
            equicorrelated_min_survivor(np.array([t]), rho, k)[0]
            for t, rho, k in ((1.0, 0.30, 3), (-0.7, 0.20, 4))
        ]
        assert got == pytest.approx([SURV_1_030_3, SURV_M07_020_4], abs=1e-9)

    def test_monotone_in_t_and_rho(self):
        ts = np.linspace(-2.5, 2.5, 21)
        for k in (1, 2, 4):
            vals = equicorrelated_min_survivor(ts, 0.3, k)
            assert np.all(np.diff(vals) <= 1e-12)
        # more correlation makes the joint survival of the min larger at t > 0;
        # sf(t)^3 is the value at rho = 0
        for t in (0.5, 1.0, 2.0):
            vals = [sf(t) ** 3] + [
                equicorrelated_min_survivor(np.array([t]), r, 3)[0]
                for r in np.linspace(0, 0.9, 10)[1:]
            ]
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
        # One call over 600 thresholds, in blocks of 256, against one-element calls.
        ts = np.linspace(-3.0, 6.0, 600)
        batched = equicorrelated_min_survivor(ts, 0.4, 3)
        assert batched.shape == ts.shape
        for i in (0, 255, 256, 599):
            assert batched[i] == pytest.approx(
                equicorrelated_min_survivor(ts[i : i + 1], 0.4, 3)[0], rel=1e-14
            )

    def test_relative_accuracy_deep_tail(self):
        # k = 1 is the normal tail itself, down to 1e-300
        ts = np.array([5.0, 10.0, 20.0, 37.0])
        for rho in (0.01, 0.5, 0.9):
            got = equicorrelated_min_survivor(ts, rho, 1)
            np.testing.assert_allclose(got, [sf(t) for t in ts], rtol=1e-12)

    def test_quadrature_matches_monte_carlo(self):
        rng = np.random.default_rng(77)
        for _ in range(5):
            k = int(rng.integers(1, 6))
            rho = float(rng.uniform(0.0, 0.8))
            t_max = float(std_normal_quantile_array([1.0 - 1e-4 ** (1.0 / k)])[0])
            t = float(rng.uniform(-2.0, t_max))
            m = 1_000_000
            z = rng.standard_normal(m)
            eps = rng.standard_normal((m, k))
            x = math.sqrt(rho) * z[:, None] + math.sqrt(1 - rho) * eps
            hits = np.all(x >= t, axis=1)
            p_hat = hits.mean()
            se = math.sqrt(max(p_hat * (1 - p_hat), 1e-12) / m)
            (quad,) = equicorrelated_min_survivor(np.array([t]), rho, k)
            assert abs(quad - p_hat) <= 4 * se, (t, rho, k, quad, p_hat, se)


class TestInvertMonotone:
    # S_k(t) is decreasing in t; the inverse returns t with S_k(t) = target.
    def test_identity(self):
        # F_1(x) = x for every rho: the threshold is the normal quantile
        for rho in (0.01, 0.3, 0.9, 0.99):
            (t,) = invert_min_survivor(np.array([0.3]), rho, 1)
            assert sf(t) == pytest.approx(0.3, rel=1e-14)

    # Near rho = 0 the inverse meets the roots of F_k(x) = x^k.
    def test_square(self):
        (t,) = invert_min_survivor(np.array([1e-4]), 1e-15, 2)
        assert sf(t) == pytest.approx(1e-2, rel=1e-12)

    def test_cube(self):
        (t,) = invert_min_survivor(np.array([0.027]), 1e-15, 3)
        assert sf(t) == pytest.approx(0.3, rel=1e-12)

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



# A last entry beside 0.5 and 0.25, and whether [0, 1] holds it; None for
# the empty array, which every check but a schedule's (at least one critical
# value) passes.
UNIT_CASES = {
    "nan": (math.nan, False),
    "negative-zero": (-0.0, True),
    "inf": (math.inf, False),
    "one-plus-ulp": (math.nextafter(1.0, 2.0), False),
    "below-zero": (-5e-324, False),
    "one": (1.0, True),
    "empty": (None, True),
}


@pytest.mark.parametrize("last, inside", UNIT_CASES.values(), ids=UNIT_CASES.keys())
def test_every_range_check_reads_min_and_max(last, inside, tmp_path):
    values = np.array([] if last is None else [0.25, 0.5, last])
    assert numerics.in_unit_interval(values) is inside
    assert numerics.in_unit_interval(np.array(0.5 if last is None else last)) is inside

    def fails(error, fn, *args):
        try:
            fn(*args)
        except error as exc:
            return str(exc)
        return None

    assert (fails(ValueError, PValueSample, values) is None) == inside
    assert (fails(RuntimeError, render.check_columns, [values]) is None) == inside
    # The first entry outside [0, 1] is named, as before.
    message = fails(ValueError, fk_eval, independent_fk(1), values)
    assert message == (None if inside else f"argument must lie in [0, 1], got {last!r}")
    if last is not None:
        alphas = np.sort(np.array([0.25, 0.5, last]))
        sorted_ok = fails(ValueError, CriticalValueSchedule, alphas, 1, STEPUP)
        assert (sorted_ok is None) == inside
        base = fails(ValueError, rescaled_stepup, 3, 1, 0.05, alphas, independent_fk(1))
        assert (base is None) == inside
    path = tmp_path / "p.csv"
    path.write_text("p\n" + "".join(f"{x!r}\n" for x in values.tolist()))
    message = fails(ValueError, cli._read_pvalues, str(path))
    if inside:
        assert message is None and cli._read_pvalues(str(path)).tobytes() == values.tobytes()
    else:
        assert message == f"{path}: p-value outside [0, 1] on row 4: {last!r}"
