import math
import re
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kfdr import schedules
from kfdr.fk_models import (
    EMPIRICAL,
    FkModel,
    equicorrelated_fk,
    fk_eval,
    fk_invert,
    independent_fk,
)
from kfdr.schedules import (
    SIMES_WARNING,
    STEPDOWN,
    STEPUP,
    WARNINGS,
    CriticalValueSchedule,
    bh,
    gen_bh,
    gen_by,
    gen_hochberg,
    gen_holm,
    gen_simes,
    lehmann_romano,
    PROCEDURES,
    make_schedule,
    rescaled_stepup,
    resolve,
)
from oracle import s_primes

IND1 = independent_fk(1)
IND2 = independent_fk(2)
# The registry names whose builders go through F_k; bh and lehmann_romano
# are marginal and ignore the model.
FK_NAMES = [name for name in PROCEDURES if name not in ("bh", "lehmann_romano")]

# Levels for the closed-form rule: round ones, one just below 1 and a tiny
# normal double.
ALPHA_GRID = (0.01, 0.05, 0.1, 0.2, 0.7, 0.999999, 1e-300)

# (n, k, alpha) for the array-built marginal schedules. At the subnormal
# alpha the builders must raise instead of giving the formula's values.
MARGINAL_CASES = [
    (n, k, alpha)
    for n in (1, 2, 7, 1000, 65537)
    for k in sorted({1, min(2, n), n})
    for alpha in (0.05, 0.999999, 1e-300, 5e-321)
]


class TestGenBh:
    def test_k1_reduces_to_classic_bh(self):
        s = gen_bh(4, 1, 0.05, IND1)
        np.testing.assert_allclose(s.alphas, (0.0125, 0.025, 0.0375, 0.05), atol=1e-15)

    def test_k2_n3(self):
        s = gen_bh(3, 2, 0.05, IND2)
        np.testing.assert_allclose(s.f_targets, (1 / 60, 1 / 60, 0.05), atol=1e-15)
        np.testing.assert_allclose(
            s.alphas,
            (0.12909944487358055, 0.12909944487358055, 0.22360679774997896),
            atol=1e-12,
        )

    def test_target_at_n_is_alpha(self):
        s = gen_bh(101, 2, 0.05, IND2)
        assert s.f_targets[-1] == pytest.approx(0.05, abs=1e-15)

    def test_branches_agree_at_k(self):
        for n, k in ((5, 2), (9, 3), (12, 1), (7, 7)):
            alpha = 0.07
            low_branch = alpha / math.comb(n, k)
            high_branch = k * (n + k - k) * alpha / (k * n * math.comb(n, k))
            assert low_branch == pytest.approx(high_branch, abs=1e-18)
            s = gen_bh(n, k, alpha, independent_fk(k))
            assert s.f_targets[k - 1] == pytest.approx(low_branch, abs=1e-18)

    def test_matches_k2_closed_form(self):
        # with k = 2 the general target collapses to i*alpha/(n(n-i+1))
        n, alpha = 11, 0.05
        s = gen_bh(n, 2, alpha, IND2)
        for i in range(2, n + 1):
            assert s.f_targets[i - 1] == pytest.approx(
                i * alpha / (n * (n - i + 1)), rel=1e-14
            )

    def test_rejects_mismatched_model_order(self):
        with pytest.raises(ValueError):
            gen_bh(5, 2, 0.05, independent_fk(3))


class TestGenBy:
    def test_k1_reduces_to_classic_by(self):
        s = gen_by(3, 1, 0.05, IND1)
        h = 1 + 1 / 2 + 1 / 3
        np.testing.assert_allclose(
            s.alphas, tuple(i * 0.05 / (3 * h) for i in (1, 2, 3)), atol=1e-15
        )
        np.testing.assert_allclose(
            s.alphas, (0.00909090909090909, 0.01818181818181818, 0.02727272727272727),
            atol=1e-12,
        )

    def test_k2_n3(self):
        # direct evaluation of max(i,k)*alpha/(k C(n,k) (1 + sum_{j=k+1}^n 1/j)):
        # denominator 2*3*(1 + 1/3) = 8, so targets (0.0125, 0.0125, 0.01875)
        s = gen_by(3, 2, 0.05, IND2)
        np.testing.assert_allclose(s.f_targets, (0.0125, 0.0125, 0.01875), atol=1e-15)
        np.testing.assert_allclose(
            s.alphas,
            (0.11180339887498948, 0.11180339887498948, 0.13693063937629152),
            atol=1e-12,
        )

    def test_k2_matches_n_n_minus_1_form(self):
        # k*C(n,k) = n(n-1) at k = 2
        n, alpha = 5, 0.05
        s = gen_by(n, 2, alpha, IND2)
        h = 1 + sum(1 / j for j in range(3, n + 1))
        for i in range(1, n + 1):
            assert s.f_targets[i - 1] == pytest.approx(
                max(i, 2) * alpha / (n * (n - 1) * h), rel=1e-13
            )

    def test_last_target_at_most_alpha(self):
        # the k-FDR bound needs F_k(alpha_n) <= alpha; at k = n it is equality
        for n in range(1, 51):
            for k in range(1, n + 1):
                for alpha in (0.05, 0.5, 0.999):
                    s = gen_by(n, k, alpha, independent_fk(k))
                    assert s.f_targets[-1] <= alpha
                    if k == n:
                        assert s.f_targets[-1] == alpha


class TestHolmFamily:
    def test_holm_k1_classic_constants(self):
        s = gen_holm(4, 1, 0.05, IND1)
        np.testing.assert_allclose(
            s.alphas, (0.0125, 0.05 / 3, 0.025, 0.05), atol=1e-15
        )
        assert s.direction == STEPDOWN

    def test_holm_k2_n5(self):
        s = gen_holm(5, 2, 0.05, IND2)
        np.testing.assert_allclose(
            s.f_targets, (0.005, 0.005, 0.05 / 6, 0.05 / 3, 0.05), atol=1e-15
        )
        np.testing.assert_allclose(
            s.alphas,
            (
                0.07071067811865475,
                0.07071067811865475,
                0.09128709291752768,
                0.12909944487358055,
                0.22360679774997896,
            ),
            atol=1e-12,
        )

    def test_last_target_is_alpha(self):
        for n, k in ((5, 2), (8, 3), (6, 1)):
            s = gen_holm(n, k, 0.033, independent_fk(k))
            assert s.f_targets[-1] == pytest.approx(0.033, abs=1e-15)

    def test_hochberg_shares_constants_with_holm(self):
        holm = gen_holm(6, 2, 0.05, IND2)
        hoch = gen_hochberg(6, 2, 0.05, IND2)
        assert hoch.alphas.tolist() == holm.alphas.tolist()
        assert hoch.f_targets.tolist() == holm.f_targets.tolist()
        assert hoch.direction == STEPUP

    def test_hochberg_equals_gen_bh_at_n3_k2(self):
        # equality case of the dominance inequality: i(n+k-i) = nk for all i
        hoch = gen_hochberg(3, 2, 0.05, IND2)
        gbh = gen_bh(3, 2, 0.05, IND2)
        np.testing.assert_allclose(hoch.f_targets, gbh.f_targets, atol=1e-18)

    def test_strict_dominance_instance(self):
        # n=5, k=2, i=3: gen_bh target 0.2*alpha strictly beats alpha/6
        gbh = gen_bh(5, 2, 0.05, IND2)
        hoch = gen_hochberg(5, 2, 0.05, IND2)
        assert gbh.f_targets[2] == pytest.approx(0.2 * 0.05, abs=1e-15)
        assert hoch.f_targets[2] == pytest.approx(0.05 / 6, abs=1e-15)
        assert gbh.f_targets[2] > hoch.f_targets[2]


class TestLehmannRomano:
    def test_k1_classic_holm(self):
        s = lehmann_romano(4, 1, 0.05, None)
        np.testing.assert_allclose(s.alphas, (0.0125, 0.05 / 3, 0.025, 0.05), atol=1e-15)

    def test_k2_n5(self):
        s = lehmann_romano(5, 2, 0.05, None)
        np.testing.assert_allclose(
            s.alphas, (0.02, 0.02, 0.025, 0.1 / 3, 0.05), atol=1e-15
        )

    def test_last_value_is_alpha(self):
        for n, k in ((7, 2), (9, 4), (3, 1)):
            assert lehmann_romano(n, k, 0.11, None).alphas[-1] == 0.11

    def test_no_f_targets(self):
        assert lehmann_romano(5, 2, 0.05, None).f_targets is None

    def test_equals_gen_holm_k1(self):
        for n, alpha in [(n, a) for n in (1, 2, 3, 7, 60, 1000) for a in ALPHA_GRID]:
            ref = gen_holm(n, 1, alpha, IND1)
            got = lehmann_romano(n, 1, alpha, None).alphas.tobytes()
            assert got == ref.alphas.tobytes() == ref.f_targets.tobytes(), (n, alpha)

    @pytest.mark.parametrize("n, k, alpha", MARGINAL_CASES)
    def test_equals_the_python_formula(self, n, k, alpha):
        if alpha < sys.float_info.min:
            with pytest.raises(ValueError, match="alpha must be a normal double, got 5e-321"):
                lehmann_romano(n, k, alpha, None)
            return
        expected = [alpha * float(Fraction(k, n + k - max(i, k))) for i in range(1, n + 1)]
        assert lehmann_romano(n, k, alpha, None).alphas.tolist() == expected


class TestGenSimes:
    def test_k1_reduces_to_bh_constants(self):
        s = gen_simes(6, 1, 0.05, IND1)
        np.testing.assert_allclose(s.alphas, bh(6, 1, 0.05, None).alphas, atol=1e-15)

    def test_published_counterexample_critical(self):
        s = gen_simes(101, 2, 0.05, IND2)
        assert s.alphas[2] == pytest.approx(0.00545, abs=1e-5)

    def test_final_target_is_alpha(self):
        s = gen_simes(9, 2, 0.07, IND2)
        assert s.f_targets[-1] == pytest.approx(0.07, abs=1e-15)

    def test_carries_warning_flag(self):
        assert WARNINGS == {"gen_simes": SIMES_WARNING}
        assert "do not control the k-FDR" in WARNINGS["gen_simes"]


class TestBhClassic:
    def test_basic(self):
        s = bh(4, 1, 0.05, None)
        np.testing.assert_allclose(s.alphas, (0.0125, 0.025, 0.0375, 0.05), atol=1e-15)
        assert s.k == 1 and s.direction == STEPUP

    def test_single_hypothesis(self):
        assert bh(1, 1, 0.05, None).alphas.tolist() == [0.05]

    @pytest.mark.parametrize("n, alpha", sorted({(n, a) for n, _, a in MARGINAL_CASES}))
    def test_equals_the_python_formula(self, n, alpha):
        if alpha < sys.float_info.min:
            with pytest.raises(ValueError, match="alpha must be a normal double, got 5e-321"):
                bh(n, 1, alpha, None)
            return
        expected = [alpha * float(Fraction(i, n)) for i in range(1, n + 1)]
        assert bh(n, 1, alpha, None).alphas.tolist() == expected

    def test_equals_gen_bh_k1(self):
        for n, alpha in [(n, a) for n in (1, 2, 3, 7, 20, 60, 1000) for a in ALPHA_GRID]:
            ref = gen_bh(n, 1, alpha, IND1)
            got = bh(n, 1, alpha, None).alphas.tobytes()
            assert got == ref.alphas.tobytes() == ref.f_targets.tobytes(), (n, alpha)


def s_prime(n, k, n0, base, model):
    """S'(n0) of rescaled_stepup's rescaling constant D' = max S'(n0)."""
    return s_primes(n, k, fk_eval(model, base))[n0 - k]


class TestSPrime:
    def test_n0_equals_k_single_term(self):
        base = (0.1, 0.2, 0.4, 0.8)
        assert s_prime(4, 2, 2, base, IND2) == pytest.approx(
            fk_eval(IND2, 0.8), abs=1e-15
        )

    def test_hand_evaluated_example(self):
        assert s_prime(2, 1, 2, (0.5, 1.0), IND1) == pytest.approx(1.5, abs=1e-15)
        assert s_prime(2, 1, 1, (0.5, 1.0), IND1) == pytest.approx(1.0, abs=1e-15)

    def test_constant_base_telescopes(self):
        c = 0.3
        for n, k, n0 in ((6, 2, 4), (5, 1, 5), (7, 3, 3)):
            model = independent_fk(k)
            expected = math.comb(n0, k) * fk_eval(model, c)
            assert s_prime(n, k, n0, (c,) * n, model) == pytest.approx(expected, abs=1e-13)

    def test_rejects_decreasing_base(self):
        with pytest.raises(ValueError, match="nondecreasing"):
            rescaled_stepup(3, 1, 0.05, (0.5, 0.4, 0.9), IND1)


class TestRescaledStepup:
    @pytest.mark.parametrize(
        "base, message",
        [
            ((0.1, 0.2), "must have length 3, got 2"),
            (np.full((3, 1), 0.5), r"must have length 3, got \(3, 1\)"),
            ((0.1, math.nan, 0.3), r"values must lie in \[0, 1\]"),
            ((-0.1, 0.2, 0.3), r"values must lie in \[0, 1\]"),
            ((0.1, 0.2, 1.5), r"values must lie in \[0, 1\]"),
            ((0.5, 0.4, 0.9), "must be nondecreasing"),
        ],
    )
    def test_base_messages(self, base, message):
        with pytest.raises(ValueError, match=message):
            rescaled_stepup(3, 1, 0.05, base, IND1)

    @pytest.mark.parametrize(
        "n, base, grid, message",
        [
            # F_k(0.5) is 2^-1075, which rounds to 0 as D' does, and 2^-1074, subnormal.
            (1075, 0.5, None, r"underflows double precision: F_k\(b_i\) or its rescaling"),
            (1074, 0.5, None, r"underflows double precision: F_k\(b_i\) or its rescaling"),
            (5, 0.0, None, "degenerate rescaling constant"),
            # This empirical F_k is exactly 0 on [0, 0.3].
            (5, 0.2, ((0.0, 0.0), (0.3, 0.0), (1.0, 1.0)), "degenerate rescaling constant"),
        ],
    )
    def test_a_zero_or_underflowed_f_k(self, n, base, grid, message):
        model = independent_fk(n) if grid is None else FkModel(kind=EMPIRICAL, k=n, grid=grid)
        with pytest.raises(ValueError, match=message):
            rescaled_stepup(n, n, 0.05, np.full(n, base), model)

    @pytest.mark.parametrize("rho", [None, 0.5])
    @pytest.mark.parametrize("n, k", [(50, 2), (200, 5), (1000, 3)])
    def test_rescaled_const_does_not_depend_on_its_constant(self, n, k, rho):
        # A constant base has no F-differences, so D' = C(n, k) F_k(C) and
        # every F-target is alpha / C(n, k), whatever C is, to within 1 ulp:
        # the closed form that the rescaled_const builder takes.
        model = independent_fk(k) if rho is None else equicorrelated_fk(k, rho)
        single_step = make_schedule("rescaled_const", n, k, 0.05, model).f_targets
        assert (single_step == schedules._f_targets(0.05, 1, math.comb(n, k))).all()
        for c in (1e-3, 0.05, 0.3, 0.5, 1.0):
            s = rescaled_stepup(n, k, 0.05, np.full(n, c), model)
            assert (np.abs(s.f_targets - single_step) <= np.spacing(single_step)).all(), c
            assert (s.alphas == s.alphas[0]).all(), c

    @pytest.mark.parametrize(
        "n, k, c, message",
        [
            # F_k(1e-160) = 1e-320 is subnormal.
            (4, 2, 1e-160, r"underflows double precision: F_k\(b_i\) or its rescaling"),
            (5, 2, 0.0, "degenerate rescaling constant"),
        ],
    )
    def test_a_constant_base_that_leaves_the_normal_range(self, n, k, c, message):
        with pytest.raises(ValueError, match=message):
            rescaled_stepup(n, k, 0.05, np.full(n, c), independent_fk(k))

    def test_hand_evaluated_example(self):
        s = rescaled_stepup(2, 1, 0.05, (0.5, 1.0), IND1)
        np.testing.assert_allclose(s.f_targets, (0.05 * 0.5 / 1.5, 0.05 / 1.5), atol=1e-15)
        np.testing.assert_allclose(s.alphas, (0.05 / 3, 0.1 / 3), atol=1e-12)
        assert s.direction == STEPUP

    def test_n_equals_k_scaling(self):
        base = (0.2, 0.2, 0.6)
        model = independent_fk(3)
        s = rescaled_stepup(3, 3, 0.05, base, model)
        # single n0 = k, so D' = F_k(base_n) and the last target is alpha
        assert s.f_targets[-1] == pytest.approx(0.05, abs=1e-14)
        assert s.alphas[-1] == pytest.approx(0.05 ** (1 / 3), abs=1e-10)
        # indices below k use b_k, so alpha_1 = ... = alpha_k: every target is alpha
        ratio = fk_eval(model, base[model.k - 1]) / fk_eval(model, base[-1])
        assert s.f_targets[0] == pytest.approx(0.05 * ratio, abs=1e-14)
        assert s.alphas[0] == s.alphas[-1]

    def test_targets_never_exceed_alpha(self):
        rng = np.random.default_rng(99)
        for _ in range(50):
            n = int(rng.integers(1, 12))
            k = int(rng.integers(1, n + 1))
            base = tuple(sorted(rng.uniform(0.0, 1.0, size=n)))
            alpha = float(rng.uniform(0.01, 0.2))
            s = rescaled_stepup(n, k, alpha, base, independent_fk(k))
            assert all(t <= alpha + 1e-12 for t in s.f_targets)

    def test_rejects_decreasing_base(self):
        with pytest.raises(ValueError):
            rescaled_stepup(3, 1, 0.05, (0.9, 0.5, 1.0), IND1)


class TestScheduleInvariants:
    @given(
        st.integers(1, 25),
        st.integers(1, 25),
        st.floats(0.001, 0.5),
    )
    @settings(max_examples=200, deadline=None)
    def test_nondecreasing_with_equal_head(self, n, k, alpha):
        k = min(k, n)
        model = independent_fk(k)
        for builder in (gen_bh, gen_by, gen_holm, gen_hochberg, gen_simes):
            s = builder(n, k, alpha, model)
            assert all(b >= a for a, b in zip(s.alphas, s.alphas[1:]))
            assert len(set(s.alphas[:k])) == 1
        s = lehmann_romano(n, k, alpha, None)
        assert all(b >= a for a, b in zip(s.alphas, s.alphas[1:]))
        assert len(set(s.alphas[:k])) == 1

    def test_nondecreasing_random_draws(self):
        rng = np.random.default_rng(123)
        equi_models = {}
        for _ in range(1000):
            n = int(rng.integers(1, 40))
            k = int(rng.integers(1, min(n, 5) + 1))
            alpha = float(rng.uniform(0.005, 0.3))
            if rng.random() < 0.05:
                rho = float(rng.choice([0.1, 0.5]))
                model = equi_models.setdefault((k, rho), equicorrelated_fk(k, rho))
            else:
                model = independent_fk(k)
            builder = [gen_bh, gen_by, gen_holm, gen_hochberg, gen_simes][
                int(rng.integers(0, 5))
            ]
            s = builder(n, k, alpha, model)
            assert all(b >= a - 1e-15 for a, b in zip(s.alphas, s.alphas[1:]))
            assert len(set(s.alphas[:k])) == 1

    def test_dominance_over_hochberg(self):
        # target ratio reduces to i(n+k-i) >= nk, an exact integer comparison
        alpha = 0.05
        for n in range(1, 51):
            for k in range(1, min(n, 5) + 1):
                model = independent_fk(k)
                gbh = gen_bh(n, k, alpha, model)
                hoch = gen_hochberg(n, k, alpha, model)
                for i in range(k, n + 1):
                    assert i * (n + k - i) >= n * k
                    assert gbh.f_targets[i - 1] >= hoch.f_targets[i - 1] - 1e-18
                assert all(a >= b - 1e-15 for a, b in zip(gbh.alphas, hoch.alphas))
                if n - k >= 2:
                    assert any(
                        gbh.f_targets[i - 1] > hoch.f_targets[i - 1]
                        for i in range(k + 1, n)
                    )

    def test_k1_reductions(self):
        for n in range(1, 21):
            classic = bh(n, 1, 0.05, None)
            np.testing.assert_allclose(
                gen_bh(n, 1, 0.05, IND1).alphas, classic.alphas, atol=1e-12
            )
            np.testing.assert_allclose(
                gen_simes(n, 1, 0.05, IND1).alphas, classic.alphas, atol=1e-12
            )
            h = sum(1.0 / r for r in range(1, n + 1))
            np.testing.assert_allclose(
                gen_by(n, 1, 0.05, IND1).alphas,
                [i * 0.05 / (n * h) for i in range(1, n + 1)],
                atol=1e-12,
            )
            holm = [0.05 / (n - i + 1) for i in range(1, n + 1)]
            np.testing.assert_allclose(gen_holm(n, 1, 0.05, IND1).alphas, holm, atol=1e-12)
            np.testing.assert_allclose(lehmann_romano(n, 1, 0.05, None).alphas, holm, atol=1e-12)

    def test_bh_comparison_per_index_condition(self):
        # with independent nulls and k = 2, the generalized critical value
        # beats i*alpha/n at index i exactly when n/(i(n-i+1)) >= alpha;
        # the round "n <= 80" heuristic fails at n = 80, i = 40
        alpha = 0.05
        for n in (5, 20, 79, 80, 101):
            gen = gen_bh(n, 2, alpha, IND2)
            classic = bh(n, 1, alpha, None)
            for i in range(2, n + 1):
                condition = n / (i * (n - i + 1)) >= alpha
                if condition:
                    assert gen.alphas[i - 1] >= classic.alphas[i - 1] - 1e-12
                else:
                    assert gen.alphas[i - 1] < classic.alphas[i - 1] + 1e-12
        assert 80 / (40 * 41) < 0.05  # the documented failure at n = 80


class TestScheduleValidation:
    def test_rejects_decreasing_alphas(self):
        with pytest.raises(ValueError):
            CriticalValueSchedule(alphas=(0.2, 0.1), k=1, direction=STEPUP)

    def test_rejects_unequal_head(self):
        with pytest.raises(ValueError):
            CriticalValueSchedule(alphas=(0.1, 0.2, 0.3), k=2, direction=STEPUP)

    def test_rejects_bad_direction(self):
        with pytest.raises(ValueError):
            CriticalValueSchedule(alphas=(0.1,), k=1, direction="sideways")

    @pytest.mark.parametrize(
        "alphas, k, f_targets, message",
        [
            ((), 1, None, "at least one critical value"),
            ((0.1, 0.2), 3, None, "need 1 <= k <= n"),
            ((0.1, math.nan), 1, None, r"lie in \[0, 1\]"),
            ((-0.1, 0.2), 1, None, r"lie in \[0, 1\]"),
            ((0.1, 1.5), 1, None, r"lie in \[0, 1\]"),
            ((0.2, 0.1), 1, None, "nondecreasing"),
            ((0.1, 0.1, 0.2, 0.3), 3, None, "must coincide"),
            ((0.1, 0.2), 1, (0.01,), "match the schedule length"),
            ((0.1, 0.2), 1, (0.01, math.nan), r"F-targets must lie in \[0, 1\]"),
            ((0.1, 0.2), 1, (-0.01, 0.02), r"F-targets must lie in \[0, 1\]"),
            ((0.1, 0.2), 1, (0.01, 1.5), r"F-targets must lie in \[0, 1\]"),
        ],
    )
    def test_messages(self, alphas, k, f_targets, message):
        with pytest.raises(ValueError, match=message):
            CriticalValueSchedule(alphas=alphas, k=k, direction=STEPUP, f_targets=f_targets)

    def test_holds_read_only_float64_arrays(self):
        s = CriticalValueSchedule(
            alphas=(0.1, 0.1, 0.2), k=2, direction=STEPUP, f_targets=(0.01, 0.01, 0.04)
        )
        for arr in (s.alphas, s.f_targets):
            assert isinstance(arr, np.ndarray) and arr.dtype == np.float64 and arr.ndim == 1
        assert s.alphas.tolist() == [0.1, 0.1, 0.2] and s.n == 3
        with pytest.raises(ValueError):
            s.alphas[0] = 0.0
        with pytest.raises(ValueError):
            s.f_targets[0] = 0.0
        for built in (gen_bh(5, 2, 0.05, IND2), bh(5, 1, 0.05, None)):
            assert built.alphas.dtype == np.float64 and not built.alphas.flags.writeable

    def test_copies_a_caller_array(self):
        alphas = np.array([0.1, 0.2])
        s = CriticalValueSchedule(alphas, 1, STEPUP)
        alphas[0] = 0.3
        assert s.alphas.tolist() == [0.1, 0.2] and alphas.flags.writeable

    def test_keeps_a_frozen_array_it_owns(self):
        alphas, f_targets = np.array([0.1, 0.2]), np.array([0.01, 0.04])
        alphas.flags.writeable = f_targets.flags.writeable = False
        s = CriticalValueSchedule(alphas, 1, STEPUP, f_targets=f_targets)
        assert s.alphas is alphas and s.f_targets is f_targets
        # A read-only view can change through its base, so it is copied.
        base = np.array([0.1, 0.2, 0.3])
        view = base[1:]
        view.flags.writeable = False
        kept = CriticalValueSchedule(view, 1, STEPUP)
        assert not np.shares_memory(kept.alphas, base)
        assert not kept.alphas.flags.writeable and kept.alphas.flags.owndata

    @pytest.mark.parametrize("name", ["gen_bh", "gen_holm", "rescaled_hochberg"])
    def test_a_built_schedule_keeps_the_arrays_it_made(self, name, monkeypatch):
        made = []
        invert = schedules.fk_invert
        monkeypatch.setattr(schedules, "fk_invert", lambda *a: made.append(invert(*a)) or made[-1])
        s = make_schedule(name, 7, 2, 0.05, IND2)
        assert np.shares_memory(s.alphas, made[-1]) and s.alphas.flags.owndata
        assert s.f_targets.flags.owndata and not s.f_targets.flags.writeable

    @pytest.mark.parametrize("name", ["bh", "lehmann_romano"])
    def test_a_marginal_schedule_keeps_the_array_it_made(self, name):
        # The alphas are the one n-element array the builder fills, so the
        # peak is 8n bytes and block-sized temporaries; a copy would add 8n.
        n = 2**20
        tracemalloc.start()
        try:
            s = make_schedule(name, n, 3, 0.05)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert s.alphas.flags.owndata and not s.alphas.flags.writeable
        assert peak <= 1.5 * 8 * n

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            gen_bh(5, 2, 1.5, IND2)
        with pytest.raises(ValueError):
            bh(5, 1, 0.0, None)

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            gen_bh(3, 4, 0.05, independent_fk(4))

    @pytest.mark.parametrize(
        "build",
        [gen_bh, gen_by, gen_holm, gen_hochberg, gen_simes,
         lambda n, k, alpha, model: rescaled_stepup(n, k, alpha, [0.5] * n, model)],
        ids=["gen_bh", "gen_by", "gen_holm", "gen_hochberg", "gen_simes", "rescaled_stepup"],
    )
    def test_rejects_a_subnormal_alpha(self, build, monkeypatch):
        # The check comes before any target is built or inverted.
        monkeypatch.setattr(schedules, "fk_eval", None)
        monkeypatch.setattr(schedules, "fk_invert", None)
        with pytest.raises(ValueError, match="alpha must be a normal double, got 5e-321"):
            build(5, 2, 5e-321, IND2)

    @pytest.mark.parametrize("name", FK_NAMES)
    def test_an_fk_builder_checks_its_model_first(self, name, monkeypatch):
        monkeypatch.setattr(schedules, "fk_eval", None)
        monkeypatch.setattr(schedules, "fk_invert", None)
        with pytest.raises(ValueError, match="requires an FkModel"):
            resolve(name)(6, 2, 0.05, None)
        with pytest.raises(ValueError, match="model order 3 does not match schedule order 2"):
            resolve(name)(6, 2, 0.05, independent_fk(3))

    def test_rejects_underflowing_targets(self):
        # 1/C(2000, 1000) is below the smallest double
        for construct in (gen_bh, gen_by, gen_holm, gen_simes):
            with pytest.raises(ValueError, match="underflows"):
                construct(2000, 1000, 0.05, independent_fk(1000))


def loop_targets(name, n, k, alpha):
    """A closed-form builder's F-targets, alpha * (num / den) per row on
    exact Python ints, the reference for the array form."""
    js = [max(i, k) for i in range(1, n + 1)]

    def f(alpha, num, den):
        return alpha * (num / den)

    if name == "gen_bh":
        return [f(alpha, j, n * math.comb(n + k - 1 - j, k - 1)) for j in js]
    if name == "gen_by":
        harmonic = 1.0 + math.fsum(1.0 / j for j in range(k + 1, n + 1))
        return [f(alpha / harmonic, j, k * math.comb(n, k)) for j in js]
    if name == "gen_simes":
        return [f(alpha, math.comb(j, k), math.comb(n, k)) for j in js]
    return [f(alpha, 1, math.comb(n + k - j, k)) for j in js]


CLOSED_FORM = ("gen_bh", "gen_by", "gen_holm", "gen_hochberg", "gen_simes")


def spy_row_divisions(monkeypatch):
    """The entries that ``_f_targets`` divides per row as Python ints, those
    of a call whose num or den is not int64 below 2^53, as they are made."""
    rows = []
    f_targets = schedules._f_targets

    def spy(alpha, num, den):
        both = np.broadcast_arrays(np.asarray(num), np.asarray(den))
        if not all(a.dtype.kind == "i" and a.max() < 2**53 for a in both):
            rows.extend(both[0].tolist())
        return f_targets(alpha, num, den)

    monkeypatch.setattr(schedules, "_f_targets", spy)
    return rows


class TestVectorisedTargets:
    @pytest.mark.parametrize("name", CLOSED_FORM)
    def test_equal_the_integer_loop(self, name):
        # Every k up to n = 60, and k near n = 70 and 100, where the steps
        # to a small C(m, k) pass C(m, m // 2) > 2^63.
        pairs = [(n, k) for n in range(1, 61) for k in range(1, n + 1)]
        pairs += [(n, k) for n in (70, 100) for k in range(n - 4, n + 1)]
        for n, k in pairs:
            got = make_schedule(name, n, k, 0.05, independent_fk(k)).f_targets
            assert got.tolist() == loop_targets(name, n, k, 0.05), (n, k)

    # Pairs whose largest denominator lies just below and just above 2^53:
    # n C(n-1, k-1) = k C(n, k) for gen_bh and gen_by, C(n, k) for the rest.
    @pytest.mark.parametrize(
        "names, n, k, fast",
        [
            (("gen_bh", "gen_by"), 290, 8, True),
            (("gen_bh", "gen_by"), 291, 8, False),
            (("gen_bh", "gen_by"), 61, 17, False),
            (("gen_holm", "gen_hochberg", "gen_simes"), 375, 8, True),
            (("gen_holm", "gen_hochberg", "gen_simes"), 376, 8, False),
            (("gen_holm", "gen_hochberg", "gen_simes"), 59, 22, True),
            (("gen_holm", "gen_hochberg", "gen_simes"), 90, 14, False),
        ],
    )
    def test_exact_float_boundary(self, names, n, k, fast, monkeypatch):
        largest = k * math.comb(n, k) if "gen_bh" in names else math.comb(n, k)
        assert (largest < 2**53) == fast
        rows = spy_row_divisions(monkeypatch)
        for name in names:
            expected = loop_targets(name, n, k, 0.05)
            rows.clear()
            got = make_schedule(name, n, k, 0.05, independent_fk(k)).f_targets
            assert got.tolist() == expected
            assert len(rows) == (0 if fast else n)

    @pytest.mark.parametrize("den", [10, 2**53 - 1, 2**53 + 1, math.comb(2000, 10)])
    def test_a_scalar_ratio_on_either_path(self, den):
        assert schedules._f_targets(0.05, 1, den).tolist() == 0.05 * (1 / den)

    # n = B - 1, B, B + 1 and 2B + 1 for a block of B = 3 indices: a last
    # block that is partial, full, a single index, and past two full ones.
    @pytest.mark.parametrize("name", CLOSED_FORM)
    def test_blocks_equal_the_whole_array(self, name, monkeypatch):
        pairs = [(n, k) for n in (2, 3, 4, 7) for k in range(1, n + 1)]
        monkeypatch.setattr(schedules, "_POWER_BLOCK", 3)
        for n, k in pairs:
            got = make_schedule(name, n, k, 0.05, independent_fk(k)).f_targets
            assert got.tobytes() == np.array(loop_targets(name, n, k, 0.05)).tobytes(), (n, k)

    # Blocks that take different paths: the first blocks, where the
    # binomials are largest, pass 2^53 ("float") or int64 ("int64"), the
    # last ones do not.
    @pytest.mark.parametrize(
        "name, n, k, block, mixed",
        [
            ("gen_holm", 376, 8, 64, "float"),
            ("gen_bh", 291, 8, 64, "float"),
            ("gen_bh", 61, 17, 8, "float"),
            ("gen_holm", 120, 30, 16, "int64"),
            ("gen_simes", 100, 20, 16, "int64"),
        ],
    )
    def test_blocks_on_different_paths_equal_the_whole_array(
        self, name, n, k, block, mixed, monkeypatch
    ):
        whole = make_schedule(name, n, k, 0.05, independent_fk(k)).f_targets
        rows, kinds, combs = spy_row_divisions(monkeypatch), set(), schedules._combs
        monkeypatch.setattr(
            schedules, "_combs", lambda *a, **kw: kinds.add((c := combs(*a, **kw)).dtype.kind) or c
        )
        monkeypatch.setattr(schedules, "_POWER_BLOCK", block)
        got = make_schedule(name, n, k, 0.05, independent_fk(k)).f_targets
        if mixed == "float":
            assert 0 < len(rows) < n
        else:
            assert kinds == {"i", "O"}
        assert got.tobytes() == whole.tobytes()
        assert got.tolist() == loop_targets(name, n, k, 0.05)

    @pytest.mark.parametrize("block", [3, 65536])
    def test_blocks_keep_the_underflow_error(self, block, monkeypatch):
        monkeypatch.setattr(schedules, "_POWER_BLOCK", block)
        for construct in (gen_bh, gen_by, gen_holm, gen_simes):
            with pytest.raises(ValueError, match="underflows"):
                construct(2000, 1000, 0.05, independent_fk(1000))

    @pytest.mark.parametrize("name", ["gen_bh", "gen_holm"])
    def test_blocks_of_the_real_size(self, name):
        assert schedules._POWER_BLOCK == 8192
        for n in (8191, 8192, 8193, 65537):
            got = make_schedule(name, n, 2, 0.05, IND2).f_targets
            assert got.tolist() == loop_targets(name, n, 2, 0.05), n

    def test_gen_bh_at_a_million_rows(self):
        n = 1_000_000
        got = gen_bh(n, 2, 0.05, IND2).f_targets
        assert got.tolist() == loop_targets("gen_bh", n, 2, 0.05)


def empirical_model(k):
    # A piecewise-linear F_k with a flat level and a kink.
    grid = ((0.0, 0.0), (1e-3, 1e-9), (0.01, 1e-9), (0.2, 1e-3), (0.6, 0.3), (1.0, 1.0))
    return FkModel(kind=EMPIRICAL, k=k, grid=grid)


class TestMakeSchedule:
    def test_registry_names(self):
        model = IND2
        for name in ("gen_bh", "gen_by", "gen_holm", "gen_hochberg", "gen_simes"):
            make_schedule(name, n=6, k=2, alpha=0.05, model=model)
        make_schedule("bh", n=6, k=2, alpha=0.05)
        make_schedule("lehmann_romano", n=6, k=2, alpha=0.05)

    def test_rescaled_variants(self):
        model = IND2
        make_schedule("rescaled_hochberg", n=6, k=2, alpha=0.05, model=model)
        const = make_schedule("rescaled_const", n=6, k=2, alpha=0.05, model=model)
        expected = rescaled_stepup(6, 2, 0.05, (0.5,) * 6, model)
        assert const.direction == STEPUP
        np.testing.assert_allclose(const.f_targets, expected.f_targets, rtol=1e-15, atol=0)
        np.testing.assert_allclose(const.alphas, expected.alphas, rtol=1e-15, atol=0)

    def test_registry_builders_need_a_model_exactly_for_f_targets(self):
        for name in PROCEDURES:
            build = resolve(name)
            assert callable(build)
            s = build(6, 2, 0.05, IND2)
            assert s.n == 6
            if name in FK_NAMES:
                assert s.f_targets is not None
                with pytest.raises(ValueError, match=f"procedure '{name}' requires an FkModel"):
                    make_schedule(name, n=6, k=2, alpha=0.05)
            else:
                assert s.f_targets is None
                assert make_schedule(name, n=6, k=2, alpha=0.05).alphas.tolist() == (
                    s.alphas.tolist()
                )

    def test_resolve_returns_registry_entries(self):
        for name, entry in PROCEDURES.items():
            assert resolve(name) is entry and entry.__name__ == name

    @pytest.mark.parametrize(
        "model",
        [IND2, equicorrelated_fk(2, 0.5), equicorrelated_fk(5, 0.9), empirical_model(3), IND1],
    )
    def test_resolve_rescaled_const(self, model):
        # The single-step rule: every F-target is gen_holm's first, bit for bit.
        k = model.k
        for n in (k, 7, 40, 300, 2000):
            const = resolve("rescaled_const")(n, k, 0.05, model)
            holm = gen_holm(n, k, 0.05, model)
            assert const.direction == STEPUP
            assert const.f_targets.tobytes() == np.full(n, holm.f_targets[0]).tobytes()
            assert (const.alphas == const.alphas[0]).all()
            # A target's alpha does not depend on its batch, under an
            # equicorrelated F_k too: gen_holm inverts n targets in one batch
            # and rescaled_const one.
            assert const.alphas[0] == holm.alphas[0], n

    def test_rescaled_const_inverts_one_target(self, monkeypatch):
        sizes = []

        def invert(model, target):
            sizes.append(np.size(target))
            return fk_invert(model, target)

        monkeypatch.setattr(schedules, "fk_invert", invert)
        make_schedule("rescaled_const", 1000, 2, 0.05, equicorrelated_fk(2, 0.5))
        assert sizes == [1]

    @pytest.mark.parametrize(
        "name", ["rescaled", "rescaled_const:0.5", "fisher", "nope", "", "rescaled_const:abc"]
    )
    def test_resolve_unknown_names(self, name):
        with pytest.raises(ValueError, match=f"unknown procedure {name!r}"):
            resolve(name)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown procedure 'fisher'"):
            make_schedule("fisher", n=5, k=1, alpha=0.05, model=IND1)
        # The name is checked before the missing model.
        with pytest.raises(ValueError, match="unknown procedure 'fisher'"):
            make_schedule("fisher", n=5, k=1, alpha=0.05)

    def test_model_required(self):
        with pytest.raises(ValueError):
            make_schedule("gen_bh", n=5, k=2, alpha=0.05)


MARGINAL = ("bh", "lehmann_romano")


# rescaled_stepup on the constant base 0.5, whose closed form is the
# rescaled_const builder: the library construction keeps its checks too.
CONST_BASE = {
    "rescaled_const:0.5": lambda n, k, alpha, model: rescaled_stepup(
        n, k, alpha, np.full(n, 0.5), model
    )
}


def assert_at_most_alpha(name, n, k, alpha, model):
    """Every F-target of ``name``, a registry name or a ``CONST_BASE`` key,
    is at most alpha, and a marginal schedule has every alpha_i at most
    alpha and alpha_n == alpha. Only a build through F_k may instead fail
    for leaving double precision, F_k(b_i) = 0 for a whole rescaled base
    included."""
    try:
        s = {**PROCEDURES, **CONST_BASE}[name](n, k, alpha, model)
    except ValueError as exc:
        assert name not in MARGINAL and re.search("underflows|overflows|degenerate", str(exc)), exc
        return
    if name in MARGINAL:
        assert s.alphas.max() <= alpha and s.alphas[-1] == alpha, (name, n, k, alpha)
    else:
        assert s.f_targets.max() <= alpha, (name, n, k, alpha)


class TestAtMostAlpha:
    NAMES = [*PROCEDURES, *CONST_BASE]

    @pytest.mark.parametrize("alpha", ALPHA_GRID)
    @pytest.mark.parametrize("name", NAMES)
    def test_every_k_at_small_n(self, name, alpha):
        for n in (1, 2, 3, 4, 5, 8, 13, 60):
            for k in range(1, n + 1):
                assert_at_most_alpha(name, n, k, alpha, independent_fk(k))

    @pytest.mark.parametrize("alpha", ALPHA_GRID)
    @pytest.mark.parametrize("name", NAMES)
    def test_equicorrelated(self, name, alpha):
        for n in (1, 2, 3, 5):
            for k in range(1, n + 1):
                assert_at_most_alpha(name, n, k, alpha, equicorrelated_fk(k, 0.5))

    @settings(max_examples=12, deadline=None)
    @given(
        data=st.data(),
        alpha=st.sampled_from(ALPHA_GRID)
        | st.floats(sys.float_info.min, 1.0, exclude_max=True),
    )
    def test_any_k_up_to_n_2000(self, data, alpha):
        n = data.draw(st.integers(1, 2000), label="n")
        k = data.draw(st.integers(1, n), label="k")
        for name in self.NAMES:
            assert_at_most_alpha(name, n, k, alpha, independent_fk(k))


# (1 + 2^-53)^2: the bound of a value rounded twice, the ratio and then the
# product with alpha.
TWO_ROUNDINGS = 1 + Fraction(1, 2**52) + Fraction(1, 2**106)


def exact_ratios(name, n, k):
    """num / den per row of the closed-form value ``_f_targets`` forms for
    ``name``, as Fractions: alpha_i for bh and lehmann_romano, the F-target
    for the rest."""
    js = [max(i, k) for i in range(1, n + 1)]
    if name == "bh":
        return [Fraction(i, n) for i in range(1, n + 1)]
    if name == "lehmann_romano":
        return [Fraction(k, n + k - j) for j in js]
    if name == "gen_bh":
        return [Fraction(j, n * math.comb(n + k - 1 - j, k - 1)) for j in js]
    if name == "gen_holm":
        return [Fraction(1, math.comb(n + k - j, k)) for j in js]
    if name == "gen_simes":
        return [Fraction(math.comb(j, k), math.comb(n, k)) for j in js]
    assert name == "rescaled_const"
    return [Fraction(1, math.comb(n, k))] * n


class TestRoundingBound:
    NAMES = ("bh", "lehmann_romano", "gen_bh", "gen_holm", "gen_simes", "rescaled_const")

    def test_a_value_can_exceed_the_exact_rational(self):
        value = lehmann_romano(5, 1, 0.05, None).alphas[0]
        assert value == 0.010000000000000002
        exact = Fraction(0.05) / 5
        assert exact < Fraction(value) <= exact * TWO_ROUNDINGS

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), alpha=st.floats(1e-200, 1.0, exclude_max=True))
    def test_every_value_is_within_two_roundings_and_at_most_alpha(self, data, alpha):
        # C(200, 100) < 1e60, so every value here is a normal double.
        n = data.draw(st.integers(1, 200), label="n")
        k = data.draw(st.integers(1, n), label="k")
        for name in self.NAMES:
            s = PROCEDURES[name](n, k, alpha, independent_fk(k))
            values = s.alphas if s.f_targets is None else s.f_targets
            for value, ratio in zip(values.tolist(), exact_ratios(name, n, k)):
                assert value <= alpha, (name, n, k)
                assert Fraction(value) <= Fraction(alpha) * ratio * TWO_ROUNDINGS, (name, n, k)
