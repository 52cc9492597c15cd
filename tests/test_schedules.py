import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kfdr import schedules
from kfdr.fk_models import equicorrelated_fk, fk_eval, independent_fk
from kfdr.schedules import (
    STEPDOWN,
    STEPUP,
    CriticalValueSchedule,
    bh_classic,
    gen_bh,
    gen_by,
    gen_hochberg_stepup,
    gen_holm_stepdown,
    gen_simes,
    lehmann_romano_stepdown,
    PROCEDURES,
    make_schedule,
    rescaled_stepup,
    resolve,
)

IND1 = independent_fk(1)
IND2 = independent_fk(2)

# (n, k, alpha) for the array-built marginal schedules, subnormal alphas too.
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
        s = gen_holm_stepdown(4, 1, 0.05, IND1)
        np.testing.assert_allclose(
            s.alphas, (0.0125, 0.05 / 3, 0.025, 0.05), atol=1e-15
        )
        assert s.direction == STEPDOWN

    def test_holm_k2_n5(self):
        s = gen_holm_stepdown(5, 2, 0.05, IND2)
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
            s = gen_holm_stepdown(n, k, 0.033, independent_fk(k))
            assert s.f_targets[-1] == pytest.approx(0.033, abs=1e-15)

    def test_hochberg_shares_constants_with_holm(self):
        holm = gen_holm_stepdown(6, 2, 0.05, IND2)
        hoch = gen_hochberg_stepup(6, 2, 0.05, IND2)
        assert hoch.alphas.tolist() == holm.alphas.tolist()
        assert hoch.f_targets.tolist() == holm.f_targets.tolist()
        assert hoch.direction == STEPUP

    def test_hochberg_equals_gen_bh_at_n3_k2(self):
        # equality case of the dominance inequality: i(n+k-i) = nk for all i
        hoch = gen_hochberg_stepup(3, 2, 0.05, IND2)
        bh = gen_bh(3, 2, 0.05, IND2)
        np.testing.assert_allclose(hoch.f_targets, bh.f_targets, atol=1e-18)

    def test_strict_dominance_instance(self):
        # n=5, k=2, i=3: gen_bh target 0.2*alpha strictly beats alpha/6
        bh = gen_bh(5, 2, 0.05, IND2)
        hoch = gen_hochberg_stepup(5, 2, 0.05, IND2)
        assert bh.f_targets[2] == pytest.approx(0.2 * 0.05, abs=1e-15)
        assert hoch.f_targets[2] == pytest.approx(0.05 / 6, abs=1e-15)
        assert bh.f_targets[2] > hoch.f_targets[2]


class TestLehmannRomano:
    def test_k1_classic_holm(self):
        s = lehmann_romano_stepdown(4, 1, 0.05)
        np.testing.assert_allclose(s.alphas, (0.0125, 0.05 / 3, 0.025, 0.05), atol=1e-15)

    def test_k2_n5(self):
        s = lehmann_romano_stepdown(5, 2, 0.05)
        np.testing.assert_allclose(
            s.alphas, (0.02, 0.02, 0.025, 0.1 / 3, 0.05), atol=1e-15
        )

    def test_last_value_is_alpha(self):
        for n, k in ((7, 2), (9, 4), (3, 1)):
            assert lehmann_romano_stepdown(n, k, 0.11).alphas[-1] == pytest.approx(
                0.11, abs=1e-15
            )

    def test_no_f_targets(self):
        assert lehmann_romano_stepdown(5, 2, 0.05).f_targets is None

    @pytest.mark.parametrize("n, k, alpha", MARGINAL_CASES)
    def test_equals_the_python_formula(self, n, k, alpha):
        expected = [k * alpha / (n + k - max(i, k)) for i in range(1, n + 1)]
        assert lehmann_romano_stepdown(n, k, alpha).alphas.tolist() == expected


class TestGenSimes:
    def test_k1_reduces_to_bh_constants(self):
        s = gen_simes(6, 1, 0.05, IND1)
        np.testing.assert_allclose(s.alphas, bh_classic(6, 0.05).alphas, atol=1e-15)

    def test_published_counterexample_critical(self):
        s = gen_simes(101, 2, 0.05, IND2)
        assert s.alphas[2] == pytest.approx(0.00545, abs=1e-5)

    def test_final_target_is_alpha(self):
        s = gen_simes(9, 2, 0.07, IND2)
        assert s.f_targets[-1] == pytest.approx(0.07, abs=1e-15)

    def test_carries_warning_flag(self):
        assert gen_simes(5, 2, 0.05, IND2).warning is not None
        assert gen_bh(5, 2, 0.05, IND2).warning is None
        assert gen_hochberg_stepup(5, 2, 0.05, IND2).warning is None


class TestBhClassic:
    def test_basic(self):
        s = bh_classic(4, 0.05)
        np.testing.assert_allclose(s.alphas, (0.0125, 0.025, 0.0375, 0.05), atol=1e-15)
        assert s.k == 1 and s.direction == STEPUP

    def test_single_hypothesis(self):
        assert bh_classic(1, 0.05).alphas.tolist() == [0.05]

    @pytest.mark.parametrize("n, alpha", sorted({(n, a) for n, _, a in MARGINAL_CASES}))
    def test_equals_the_python_formula(self, n, alpha):
        expected = [i * alpha / n for i in range(1, n + 1)]
        assert bh_classic(n, alpha).alphas.tolist() == expected

    def test_equals_gen_bh_k1(self):
        for n in (1, 2, 7, 20):
            np.testing.assert_allclose(
                bh_classic(n, 0.05).alphas,
                gen_bh(n, 1, 0.05, IND1).alphas,
                atol=1e-15,
            )


def s_prime(n, k, n0, base, model):
    """S'(n0) of rescaled_stepup's rescaling constant D' = max S'(n0)."""
    (value,) = schedules._s_primes(n, k, [n0], fk_eval(model, base))
    return value


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
        for builder in (gen_bh, gen_by, gen_holm_stepdown, gen_hochberg_stepup, gen_simes):
            s = builder(n, k, alpha, model)
            assert all(b >= a for a, b in zip(s.alphas, s.alphas[1:]))
            assert len(set(s.alphas[:k])) == 1
        s = lehmann_romano_stepdown(n, k, alpha)
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
            builder = [gen_bh, gen_by, gen_holm_stepdown, gen_hochberg_stepup, gen_simes][
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
                bh = gen_bh(n, k, alpha, model)
                hoch = gen_hochberg_stepup(n, k, alpha, model)
                for i in range(k, n + 1):
                    assert i * (n + k - i) >= n * k
                    assert bh.f_targets[i - 1] >= hoch.f_targets[i - 1] - 1e-18
                assert all(a >= b - 1e-15 for a, b in zip(bh.alphas, hoch.alphas))
                if n - k >= 2:
                    assert any(
                        bh.f_targets[i - 1] > hoch.f_targets[i - 1]
                        for i in range(k + 1, n)
                    )

    def test_k1_reductions(self):
        for n in range(1, 21):
            bh = bh_classic(n, 0.05)
            np.testing.assert_allclose(
                gen_bh(n, 1, 0.05, IND1).alphas, bh.alphas, atol=1e-12
            )
            np.testing.assert_allclose(
                gen_simes(n, 1, 0.05, IND1).alphas, bh.alphas, atol=1e-12
            )
            h = sum(1.0 / r for r in range(1, n + 1))
            np.testing.assert_allclose(
                gen_by(n, 1, 0.05, IND1).alphas,
                [i * 0.05 / (n * h) for i in range(1, n + 1)],
                atol=1e-12,
            )
            holm = [0.05 / (n - i + 1) for i in range(1, n + 1)]
            np.testing.assert_allclose(gen_holm_stepdown(n, 1, 0.05, IND1).alphas, holm, atol=1e-12)
            np.testing.assert_allclose(lehmann_romano_stepdown(n, 1, 0.05).alphas, holm, atol=1e-12)

    def test_bh_comparison_per_index_condition(self):
        # with independent nulls and k = 2, the generalized critical value
        # beats i*alpha/n at index i exactly when n/(i(n-i+1)) >= alpha;
        # the round "n <= 80" heuristic fails at n = 80, i = 40
        alpha = 0.05
        for n in (5, 20, 79, 80, 101):
            gen = gen_bh(n, 2, alpha, IND2)
            classic = bh_classic(n, alpha)
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
            CriticalValueSchedule(
                alphas=(0.2, 0.1), k=1, procedure="x", alpha_level=0.05, direction=STEPUP
            )

    def test_rejects_unequal_head(self):
        with pytest.raises(ValueError):
            CriticalValueSchedule(
                alphas=(0.1, 0.2, 0.3), k=2, procedure="x", alpha_level=0.05, direction=STEPUP
            )

    def test_rejects_bad_direction(self):
        with pytest.raises(ValueError):
            CriticalValueSchedule(
                alphas=(0.1,), k=1, procedure="x", alpha_level=0.05, direction="sideways"
            )

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
        ],
    )
    def test_messages(self, alphas, k, f_targets, message):
        with pytest.raises(ValueError, match=message):
            CriticalValueSchedule(
                alphas=alphas, k=k, procedure="x", alpha_level=0.05, direction=STEPUP,
                f_targets=f_targets,
            )

    def test_holds_read_only_float64_arrays(self):
        s = CriticalValueSchedule(
            alphas=(0.1, 0.1, 0.2), k=2, procedure="x", alpha_level=0.05, direction=STEPUP,
            f_targets=(0.01, 0.01, 0.04),
        )
        for arr in (s.alphas, s.f_targets):
            assert isinstance(arr, np.ndarray) and arr.dtype == np.float64 and arr.ndim == 1
        assert s.alphas.tolist() == [0.1, 0.1, 0.2] and s.n == 3
        with pytest.raises(ValueError):
            s.alphas[0] = 0.0
        with pytest.raises(ValueError):
            s.f_targets[0] = 0.0
        for built in (gen_bh(5, 2, 0.05, IND2), bh_classic(5, 0.05)):
            assert built.alphas.dtype == np.float64 and not built.alphas.flags.writeable

    def test_copies_a_caller_array(self):
        alphas = np.array([0.1, 0.2])
        s = CriticalValueSchedule(alphas, 1, "x", 0.05, STEPUP)
        alphas[0] = 0.3
        assert s.alphas.tolist() == [0.1, 0.2] and alphas.flags.writeable

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            gen_bh(5, 2, 1.5, IND2)
        with pytest.raises(ValueError):
            bh_classic(5, 0.0)

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            gen_bh(3, 4, 0.05, independent_fk(4))

    def test_rejects_underflowing_targets(self):
        # 1/C(2000, 1000) is below the smallest double
        for construct in (gen_bh, gen_by, gen_holm_stepdown, gen_simes):
            with pytest.raises(ValueError, match="underflows"):
                construct(2000, 1000, 0.05, independent_fk(1000))


def loop_targets(name, n, k, alpha):
    """A closed-form builder's F-targets from one ``_f_target`` per row on
    exact Python ints, the reference for the array form."""
    f, js = schedules._f_target, [max(i, k) for i in range(1, n + 1)]
    if name == "gen_bh":
        return [f(alpha, j, n * math.comb(n + k - 1 - j, k - 1)) for j in js]
    if name == "gen_by":
        harmonic = 1.0 + math.fsum(1.0 / j for j in range(k + 1, n + 1))
        return [f(alpha / harmonic, j, k * math.comb(n, k)) for j in js]
    if name == "gen_simes":
        return [f(alpha, math.comb(j, k), math.comb(n, k)) for j in js]
    return [f(alpha, 1, math.comb(n + k - j, k)) for j in js]


CLOSED_FORM = ("gen_bh", "gen_by", "gen_holm", "gen_hochberg", "gen_simes")


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
        rows = []
        row_target = schedules._f_target
        monkeypatch.setattr(
            schedules, "_f_target", lambda *a: rows.append(a) or row_target(*a)
        )
        for name in names:
            expected = loop_targets(name, n, k, 0.05)
            rows.clear()
            got = make_schedule(name, n, k, 0.05, independent_fk(k)).f_targets
            assert got.tolist() == expected
            assert len(rows) == (0 if fast else n)

    def test_gen_bh_at_a_million_rows(self):
        n = 1_000_000
        got = gen_bh(n, 2, 0.05, IND2).f_targets
        assert got.tolist() == loop_targets("gen_bh", n, 2, 0.05)


class TestMakeSchedule:
    def test_registry_names(self):
        model = IND2
        for name in ("gen_bh", "gen_by", "gen_holm", "gen_hochberg", "gen_simes"):
            s = make_schedule(name, n=6, k=2, alpha=0.05, model=model)
            assert s.procedure.startswith(name.split("_")[0]) or s.procedure == name
        assert make_schedule("bh", n=6, k=2, alpha=0.05).procedure == "bh"
        assert make_schedule("lehmann_romano", n=6, k=2, alpha=0.05).procedure == "lehmann_romano"

    def test_rescaled_variants(self):
        model = IND2
        hoch = make_schedule("rescaled_hochberg", n=6, k=2, alpha=0.05, model=model)
        assert hoch.procedure == "rescaled_stepup"
        const = make_schedule("rescaled_const:0.5", n=6, k=2, alpha=0.05, model=model)
        expected = rescaled_stepup(6, 2, 0.05, (0.5,) * 6, model)
        assert const.alphas.tolist() == expected.alphas.tolist()
        assert const.f_targets.tolist() == expected.f_targets.tolist()

    def test_registry_needs_model(self):
        for name, entry in PROCEDURES.items():
            assert make_schedule(name, n=6, k=2, alpha=0.05, model=IND2).n == 6
            if entry.needs_model:
                with pytest.raises(ValueError, match="requires an FkModel"):
                    make_schedule(name, n=6, k=2, alpha=0.05)
            else:
                assert make_schedule(name, n=6, k=2, alpha=0.05).n == 6
        assert resolve("rescaled_const:0.5").needs_model
        with pytest.raises(ValueError, match="requires an FkModel"):
            make_schedule("rescaled_const:0.5", n=6, k=2, alpha=0.05)

    def test_resolve_returns_registry_entries(self):
        for name, entry in PROCEDURES.items():
            assert resolve(name) is entry

    @pytest.mark.parametrize("model", [IND2, equicorrelated_fk(2, 0.5)])
    def test_resolve_rescaled_const(self, model):
        got = resolve("rescaled_const:0.5").build(7, 2, 0.05, model)
        expected = rescaled_stepup(7, 2, 0.05, [0.5] * 7, model)
        assert got.alphas.tolist() == expected.alphas.tolist()
        assert got.f_targets.tolist() == expected.f_targets.tolist()

    @pytest.mark.parametrize("name", ["rescaled", "rescaled_const", "fisher", "nope", ""])
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
