"""The equicorrelated F_k kernel against an independent scipy reference, and
the schedules built on it.

scipy is a test-only dependency; the package itself imports only numpy.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle import s_primes
from scipy import integrate, special

from kfdr import numerics, schedules
from kfdr.fk_models import (
    EMPIRICAL,
    FkModel,
    equicorrelated_fk,
    fk_eval,
    fk_invert,
    independent_fk,
)
from kfdr.schedules import (
    gen_bh,
    gen_by,
    gen_hochberg,
    gen_holm,
    gen_simes,
    make_schedule,
    rescaled_stepup,
)

# rho = 0, rho = 1 and k = 1 are fk_models' closed forms; the rest is the kernel.
RHOS = (0.0, 1e-6, 0.01, 0.1, 0.5, 0.9, 0.99, 0.9999, 1.0)
ORDERS = (1, 2, 5, 10)
XS = np.concatenate([np.geomspace(1e-13, 0.5, 27), [0.7, 0.9, 0.99, 0.999]])


def fk_quad(x: float, k: int, rho: float) -> float:
    """F_k(x) by adaptive quadrature of phi(z) Phi((sqrt(rho) z - t)/sqrt(1-rho))^k.

    The integral is split at the step z = t/sqrt(rho), at the ends of the
    step, t/sqrt(rho) +- 3 sqrt(1-rho)/sqrt(rho), and at z = 0: at small rho
    the step lies far from the bulk of phi, and a single split at the step
    leaves quad blind to the mass near z = 0.
    """
    t = -float(special.ndtri(x))
    if rho == 0.0:
        return float(special.ndtr(-t)) ** k
    if rho == 1.0:
        return x
    a, b = math.sqrt(rho), math.sqrt(1.0 - rho)

    def integrand(z: float) -> float:
        density = math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
        return density * special.ndtr((a * z - t) / b) ** k

    edges = [-np.inf, *sorted({t / a, (t - 3 * b) / a, (t + 3 * b) / a, 0.0}), np.inf]
    return math.fsum(
        integrate.quad(integrand, lo, hi, epsabs=0.0, epsrel=1e-13, limit=400)[0]
        for lo, hi in zip(edges, edges[1:])
    )


@pytest.mark.parametrize("rho", RHOS)
@pytest.mark.parametrize("k", ORDERS)
def test_eval_matches_quad(rho, k):
    model = equicorrelated_fk(k, rho)
    got = fk_eval(model, XS)
    ref = np.array([fk_quad(float(x), k, rho) for x in XS])
    np.testing.assert_allclose(got, ref, rtol=1e-10, atol=0)


@pytest.mark.parametrize("rho", (1e-6, 0.01, 0.1, 0.5, 0.9, 0.99, 0.9999))
def test_eval_at_one_half_matches_the_orthant_probabilities(rho):
    # At x = 1/2 (t = 0), F_2 and F_3 are the classical orthant
    # probabilities of equicorrelated normals: no quadrature in the reference.
    got = [fk_eval(equicorrelated_fk(k, rho), np.array([0.5]))[0] for k in (2, 3)]
    ref = [0.25 + math.asin(rho) / (2 * math.pi), 0.125 + 3 * math.asin(rho) / (4 * math.pi)]
    np.testing.assert_allclose(got, ref, rtol=1e-10, atol=0)


@pytest.mark.parametrize("rho", (0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 0.999))
def test_eval_k2_matches_owens_t(rho):
    # F_2(x) = Pr{X_1 >= h, X_2 >= h} = sf(h) - 2 T(h, sqrt((1 - rho)/(1 + rho)))
    # with h = isf(x), in closed form through Owen's T. The subtraction loses
    # about log10(x / F_2) digits, so only points with x <= 1000 F_2 are kept.
    x = np.geomspace(1e-13, 0.999, 200)
    h = -special.ndtri(x)
    ref = special.ndtr(-h) - 2.0 * special.owens_t(h, math.sqrt((1.0 - rho) / (1.0 + rho)))
    kept = x <= 1000.0 * ref
    assert kept.sum() >= 40
    got = fk_eval(equicorrelated_fk(2, rho), x[kept])
    np.testing.assert_allclose(got, ref[kept], rtol=1e-10, atol=0)


@pytest.mark.parametrize("rho", RHOS)
@pytest.mark.parametrize("k", ORDERS)
def test_invert_residual(rho, k):
    model = equicorrelated_fk(k, rho)
    targets = np.geomspace(1e-13, 0.9, 12)
    alphas = fk_invert(model, targets)
    assert np.all(np.diff(alphas) > 0.0)
    residual = np.array([fk_quad(float(a), k, rho) for a in alphas]) / targets - 1.0
    assert np.max(np.abs(residual)) <= 1e-10


@pytest.mark.parametrize("alpha", (0.05, 1e-200))
@pytest.mark.parametrize("n", (33, 500, 2000))
@pytest.mark.parametrize("k", (2, 5, 10, 50))
@pytest.mark.parametrize("rho", (1e-6, 0.1, 0.5, 0.9, 0.9999))
def test_invert_residual_from_the_interpolant_start(rho, k, n, alpha):
    # Every batch starts from the panel interpolants; every threshold still
    # meets the kernel's own stop rule.
    targets = np.geomspace(1e-13, 0.9, n) * (alpha / 0.05)
    t = numerics.invert_min_survivor(targets, rho, k)
    assert np.all(np.diff(t) < 0.0)
    log_s, _ = numerics._log_survivor(t, rho, k)
    assert np.max(np.abs(np.expm1(log_s - np.log(targets)))) <= numerics._REL_TOL_INVERT
    if alpha == 0.05 and k <= 10:
        rows = np.linspace(0, n - 1, 6).round().astype(int)
        x = numerics.std_normal_sf_array(t[rows])
        ref = np.array([fk_quad(float(v), k, rho) for v in x])
        assert np.max(np.abs(ref / targets[rows] - 1.0)) <= 1e-10


def _panel_count(targets, k):
    # Brackets [t(target^(1/k)), t(target)] that overlap meet every unit
    # panel from the lowest bracket end to the highest.
    top = math.floor(-special.ndtri(targets.min()))
    return top - math.floor(-special.ndtri(targets.max() ** (1.0 / k))) + 1


def test_interpolant_start_needs_about_one_kernel_evaluation_per_target(monkeypatch):
    thresholds = []
    real = numerics._log_survivor

    def counting(t, rho, k):
        thresholds.append(t.size)
        return real(t, rho, k)

    monkeypatch.setattr(numerics, "_log_survivor", counting)
    s = gen_holm(2000, 2, 0.05, equicorrelated_fk(2, 0.5))
    distinct = np.unique(s.f_targets).size
    assert distinct == 1999
    assert sum(thresholds) <= distinct + _panel_count(s.f_targets, 2) * numerics._CHEB_NODES
    targets = np.geomspace(1e-13, 0.9, 2000)
    for rho, k in ((1e-6, 10), (0.5, 50), (0.5, 2)):
        thresholds.clear()
        numerics.invert_min_survivor(targets, rho, k)
        bound = targets.size + _panel_count(targets, k) * numerics._CHEB_NODES
        assert sum(thresholds) <= bound, (rho, k)


@pytest.mark.parametrize("rho", (0.1, 0.5, 0.9))
@pytest.mark.parametrize("n", (5, 33, 2000))
@pytest.mark.parametrize("k", (2, 5))
def test_gen_holms_first_alpha_is_rescaled_consts(rho, n, k):
    # Both invert the one target alpha / C(n, k): gen_holm among its n
    # targets, rescaled_const alone.
    model = equicorrelated_fk(k, rho)
    first = make_schedule("gen_holm", n, k, 0.05, model).alphas[0]
    assert make_schedule("rescaled_const", n, k, 0.05, model).alphas.tolist() == [first] * n


PURITY_CASES = ((0.5, 2), (0.9, 5), (0.1, 10), (0.5, 50))


@pytest.mark.parametrize("rho, k", PURITY_CASES)
@given(ts=st.lists(st.floats(-3.0, 12.0), min_size=2, max_size=64))
@settings(max_examples=25, deadline=None)
def test_every_threshold_of_a_block_is_its_lone_value(rho, k, ts):
    t = np.array(ts)
    log_s, slope = numerics._log_survivor(t, rho, k)
    for i in range(t.size):
        lone = numerics._log_survivor(t[i : i + 1], rho, k)
        assert (lone[0][0], lone[1][0]) == (log_s[i], slope[i]), t[i]


@pytest.mark.parametrize("rho, k", PURITY_CASES + ((1e-6, 10), (0.9999, 3)))
def test_a_target_inverts_alike_alone_in_its_batch_and_in_chunks(rho, k):
    # Log-uniform over 13 decades: no two targets lie within the stop rule
    # of each other, so the running minimum leaves every threshold as solved.
    rng = np.random.default_rng(26)
    targets = np.exp(rng.uniform(math.log(1e-13), math.log(0.9), 300))
    whole = numerics.invert_min_survivor(targets, rho, k).tolist()
    for size in (7, 64, 133):
        chunks = [
            numerics.invert_min_survivor(targets[i : i + size], rho, k)
            for i in range(0, targets.size, size)
        ]
        assert np.concatenate(chunks).tolist() == whole, size
    for i in range(0, targets.size, 25):
        assert numerics.invert_min_survivor(targets[i : i + 1], rho, k).tolist() == [whole[i]]


CONSTRUCTIONS = (gen_bh, gen_by, gen_holm, gen_hochberg, gen_simes)


@pytest.mark.parametrize("rho, k", [(0.5, 2), (0.9, 5), (0.99, 3)])
def test_schedules_invert_to_their_targets(rho, k):
    n, alpha = 40, 0.05
    model = equicorrelated_fk(k, rho)
    names = [construct.__name__ for construct in CONSTRUCTIONS] + ["rescaled_hochberg"]
    for name in names:
        s = make_schedule(name, n, k, alpha, model)
        alphas, targets = np.array(s.alphas), np.array(s.f_targets)
        assert np.all(np.diff(alphas) >= 0.0), name
        assert len(set(s.alphas[:k])) == 1, name
        rows = np.unique(np.linspace(0, n - 1, 10).round().astype(int))
        ref = np.array([fk_quad(float(alphas[i]), k, rho) for i in rows])
        assert np.max(np.abs(ref / targets[rows] - 1.0)) <= 1e-10, name
        own = fk_eval(model, alphas) / targets - 1.0
        assert np.max(np.abs(own)) <= 1e-12, name


def test_one_inversion_per_schedule(monkeypatch):
    calls = []
    real = schedules.fk_invert

    def counting(model, targets):
        calls.append(np.size(targets))
        return real(model, targets)

    monkeypatch.setattr(schedules, "fk_invert", counting)
    gen_holm(300, 2, 0.05, equicorrelated_fk(2, 0.5))
    assert calls == [300]


class TestIndependentPinned:
    """Independent-model schedules are exact Python-float arithmetic:
    alpha * (num / den) targets and target ** (1 / k) roots."""

    def test_roots_are_python_powers(self):
        for construct in CONSTRUCTIONS:
            for n, k in ((1, 1), (7, 3), (50, 2), (120, 5)):
                s = construct(n, k, 0.05, independent_fk(k))
                assert s.alphas.tolist() == [t ** (1.0 / k) for t in s.f_targets.tolist()]

    def test_targets_from_integer_ratios(self):
        n, k, alpha = 30, 3, 0.05
        model = independent_fk(k)
        assert gen_holm(n, k, alpha, model).f_targets.tolist() == [
            alpha * (1 / math.comb(n + k - max(i, k), k)) for i in range(1, n + 1)
        ]
        assert gen_simes(n, k, alpha, model).f_targets.tolist() == [
            alpha * (math.comb(max(i, k), k) / math.comb(n, k)) for i in range(1, n + 1)
        ]
        assert gen_bh(n, k, alpha, model).f_targets[k:].tolist() == [
            alpha * (i * (n + k - i) / (k * n * math.comb(n + k - i, k)))
            for i in range(k + 1, n + 1)
        ]

    def test_literal_values(self):
        s = gen_bh(6, 2, 0.05, independent_fk(2))
        assert s.f_targets.tolist() == [
            0.0033333333333333335, 0.0033333333333333335, 0.00625, 0.011111111111111112,
            0.020833333333333336, 0.05,
        ]
        assert s.alphas.tolist() == [
            0.05773502691896258, 0.05773502691896258, 0.07905694150420949,
            0.10540925533894598, 0.14433756729740646, 0.22360679774997896,
        ]
        s = gen_by(5, 2, 0.05, independent_fk(2))
        assert s.f_targets.tolist() == [
            0.00280373831775701, 0.00280373831775701, 0.004205607476635514,
            0.00560747663551402, 0.007009345794392524,
        ]

    def test_empirical_batched_equals_scalar(self):
        levels = np.arange(65) / 64
        model = FkModel(kind=EMPIRICAL, k=2, grid=np.column_stack((np.sqrt(levels), levels)))
        xs = np.linspace(0.0, 1.0, 101)
        assert fk_eval(model, xs).tolist() == [fk_eval(model, float(x)) for x in xs]
        assert fk_invert(model, xs).tolist() == [fk_invert(model, float(x)) for x in xs]


def _s_prime_loop(n, k, n0, f_base):
    # the per-term Python loop the numpy rows replaced
    head = f_base[n - n0 + k - 1]
    terms = [
        (f_base[n - n0 + i - 1] - f_base[n - n0 + i - 2]) / math.comb(i, k)
        for i in range(k + 1, n0 + 1)
    ]
    return math.comb(n0, k) * (head + math.fsum(terms))


def test_rescaling_sum_matches_loop():
    rng = np.random.default_rng(17)
    for _ in range(30):
        n = int(rng.integers(1, 60))
        k = int(rng.integers(1, min(n, 6) + 1))
        base = np.sort(rng.uniform(0.0, 1.0, size=n)).tolist()
        model = independent_fk(k)
        f_base = [b**k for b in base]
        loop = [_s_prime_loop(n, k, n0, f_base) for n0 in range(k, n + 1)]
        assert s_primes(n, k, fk_eval(model, base)) == loop
        assert schedules._d_prime(n, k, fk_eval(model, base)) == max(loop)
        alpha = 0.05
        expected = [alpha * (f_base[max(i, k) - 1] / max(loop)) for i in range(1, n + 1)]
        assert rescaled_stepup(n, k, alpha, base, model).f_targets.tolist() == expected


def _f_base(kind, n, k, base, rng):
    if kind == "independent":
        return fk_eval(independent_fk(k), base)
    if kind == "equicorrelated":
        return fk_eval(equicorrelated_fk(k, float(rng.uniform(0.01, 0.99))), base)
    xs, fs = (np.r_[0.0, np.sort(rng.uniform(0.0, 1.0, 30)), 1.0] for _ in range(2))
    return fk_eval(FkModel(kind=EMPIRICAL, k=k, grid=np.column_stack((xs, fs))), base)


@pytest.mark.parametrize("kind", ("independent", "equicorrelated", "empirical"))
def test_d_prime_is_the_largest_exact_row(kind):
    # The FFT estimate only chooses which rows to sum exactly; D' must be
    # the largest of the O(n^2) rows bit for bit, at every k.
    rng = np.random.default_rng(25)
    cases = [(n, k) for n in (1, 2, 3, 7, 60, 150) for k in range(1, n + 1)]
    cases += [(400, k) for k in (1, 2, 3, 5, 10, 50, 200, 399, 400)]
    cases += [(int(n), int(rng.integers(1, n + 1))) for n in rng.integers(1, 401, 30)]
    for n, k in cases:
        f_base = _f_base(kind, n, k, np.sort(rng.uniform(0.0, 1.0, n)), rng)
        assert schedules._d_prime(n, k, f_base) == max(s_primes(n, k, f_base)), (n, k)


@pytest.mark.parametrize("n", (2, 5, 60, 400))
def test_d_prime_decides_near_ties_exactly(n):
    # With F = 0 below b_n every S'(n0) is C(n0, k) * (F(b_n) / C(n0, k)),
    # equal up to rounding, so every row is a candidate; tiny steps below
    # b_n keep them within about 1e-13 of each other.
    rng = np.random.default_rng(n)
    for k in sorted({1, 2, max(1, n // 2), n}):
        for scale in (0.0, 1e-13):
            f_base = np.sort(rng.uniform(0.0, scale, n))
            f_base[-1] = 0.5
            assert schedules._d_prime(n, k, f_base) == max(s_primes(n, k, f_base)), (n, k, scale)
