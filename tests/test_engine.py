import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kfdr import engine
from kfdr.engine import PValueSample, decide, k_fdp, rejection_count, sample_from
from kfdr.fk_models import equicorrelated_fk, independent_fk
from kfdr.schedules import PROCEDURES, STEPDOWN, STEPUP, CriticalValueSchedule, make_schedule
from oracle import brute_force_stepdown, brute_force_stepup

# p-values and critical values share this grid, so ties among p-values and
# p-values exactly equal to a critical value occur often.
GRID = tuple(i / 8 for i in range(9))


@st.composite
def decision_cases(draw):
    n = draw(st.integers(1, 8))
    k = draw(st.integers(1, n))
    alphas = sorted(draw(st.lists(st.sampled_from(GRID), min_size=n, max_size=n)))
    alphas[:k] = [alphas[0]] * k
    schedule = CriticalValueSchedule(
        alphas=tuple(alphas),
        k=k,
        direction=draw(st.sampled_from((STEPUP, STEPDOWN))),
    )
    values = draw(st.lists(st.sampled_from(GRID), min_size=n, max_size=n))
    truth = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return values, truth, schedule


class TestAgainstOracle:
    @given(decision_cases())
    @settings(max_examples=500, deadline=None)
    def test_decide_matches_brute_force(self, case):
        values, truth, schedule = case
        outcome = decide(sample_from(values, truth), schedule)
        brute = brute_force_stepup if schedule.direction == STEPUP else brute_force_stepdown
        expected = brute(values, schedule.alphas)
        v = sum(truth[i] for i in expected)
        assert outcome.r == len(expected)
        assert set(outcome.order[: outcome.r].tolist()) == expected
        assert outcome.v == v
        expected_fdp = v / len(expected) if v >= schedule.k else 0.0
        assert k_fdp(outcome.r, outcome.v, schedule.k) == expected_fdp

    def test_tie_at_critical_value(self):
        # p_(1) == alpha_1 and p_(3) == alpha_3 are hits in both directions;
        # one double above alpha_1, p_(1) stops stepdown.
        values = (0.3, 0.1, 0.3, 0.9, 0.1)
        alphas = (0.1, 0.2, 0.3, 0.4, 0.5)
        up = CriticalValueSchedule(alphas, 1, STEPUP)
        down = CriticalValueSchedule(alphas, 1, STEPDOWN)
        outcome = decide(sample_from(values), up)
        assert outcome.order.tolist() == [1, 4, 0, 2, 3]
        assert outcome.r == 4 and outcome.v is None
        labeled = decide(sample_from(values, (True, True, False, False, True)), up)
        assert labeled.v == 3 and k_fdp(labeled.r, labeled.v, up.k) == 0.75
        assert decide(sample_from(values), down).r == 4
        above = (0.3, np.nextafter(0.1, 1.0), 0.3, 0.9, np.nextafter(0.1, 1.0))
        assert decide(sample_from(above), up).r == 4
        assert decide(sample_from(above), down).r == 0


class TestKFdp:
    def test_arrays_match_scalars(self):
        rng = np.random.default_rng(31)
        r = rng.integers(0, 50, size=2000, dtype=np.int32)
        v = (rng.uniform(size=r.size) * (r + 1)).astype(np.int32)
        for k in (1, 2, 5):
            got = k_fdp(r, v, k)
            assert got.dtype == np.float64
            assert got.tolist() == [k_fdp(int(a), int(b), k) for a, b in zip(r, v)]
            reference = [b / a if b >= k else 0.0 for a, b in zip(r.tolist(), v.tolist())]
            assert got.tolist() == reference
        assert type(k_fdp(4, 3, 2)) is float and k_fdp(0, 0, 1) == 0.0

    @pytest.mark.parametrize(
        "r, v, k, message",
        [(3, 4, 1, "need 0 <= v <= r, got v=4, r=3"), (3, -1, 1, "got v=-1, r=3"),
         (np.array([5, 2, 7]), np.array([1, 3, 7]), 2, "got v=[1 3 7], r=[5 2 7]"),
         (5, 1, 0, "order k must be >= 1, got 0")],
    )
    def test_rejects_bad_counts(self, r, v, k, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            k_fdp(r, v, k)


class TestOneRuleBothDirections:
    # p_(i) <= alpha_i is a hit for stepup and stepdown alike.
    @pytest.mark.parametrize(
        "n, rho", [*((n, None) for n in (1, 5, 60, 300)), *((n, 0.5) for n in (1, 5, 60))]
    )
    def test_every_schedule_rejects_its_own_alphas(self, n, rho):
        rng = np.random.default_rng(n)
        for k in sorted({1, 2, 3, n} & set(range(1, n + 1))):
            model = independent_fk(k) if rho is None else equicorrelated_fk(k, rho)
            for name in PROCEDURES:
                schedule = make_schedule(name, n, k, 0.05, model)
                outcome = decide(sample_from(rng.permutation(schedule.alphas)), schedule)
                assert outcome.r == n, (name, n, k, rho)

    @given(st.integers(1, 40), st.sampled_from([1, 2]), st.data())
    @settings(max_examples=200, deadline=None)
    def test_holm_and_hochberg_agree_when_every_p_hits(self, n, k, data):
        # Each p_i is alpha_i or below it, so every p_(i) <= alpha_i, ties
        # at equality included.
        k = min(k, n)
        holm, hochberg = (
            make_schedule(name, n, k, 0.05, independent_fk(k))
            for name in ("gen_holm", "gen_hochberg")
        )
        assert holm.alphas.tolist() == hochberg.alphas.tolist()
        scale = data.draw(st.lists(st.sampled_from((1.0, 0.5, 0.0)), min_size=n, max_size=n))
        sample = sample_from(data.draw(st.permutations(holm.alphas * np.array(scale))))
        outcomes = [decide(sample, s) for s in (holm, hochberg)]
        assert [set(o.order[: o.r].tolist()) for o in outcomes] == [set(range(n))] * 2


class TestRejectionCount:
    def test_directions(self):
        sorted_p = np.array([[0.01, 0.5, 0.03]])
        alphas = np.array([0.02, 0.04, 0.06])
        assert rejection_count(sorted_p, alphas, STEPUP).tolist() == [3]
        assert rejection_count(sorted_p, alphas, STEPDOWN).tolist() == [1]

    @given(decision_cases(), st.integers(1, 6))
    @settings(max_examples=200, deadline=None)
    def test_block_rows_match_single_rows(self, case, m):
        _, _, schedule = case
        n, alphas = schedule.n, schedule.alphas
        rng = np.random.default_rng(m)
        block = np.sort(rng.choice(GRID, size=(m, n)), axis=1)
        # Rows of zeros and of ones: every value hits, or (below 1) none does.
        block = np.vstack([block, np.zeros(n), np.ones(n)])
        counts = rejection_count(block, alphas, schedule.direction)
        assert counts.shape == (m + 2,)
        brute = brute_force_stepup if schedule.direction == STEPUP else brute_force_stepdown
        expected = [len(brute(row.tolist(), alphas.tolist())) for row in block]
        assert counts.tolist() == expected

    def test_block_with_no_hit_and_all_hits(self):
        alphas = np.array([0.02, 0.04, 0.06])
        block = np.array([[0.5, 0.6, 0.7], [0.0, 0.01, 0.02], [0.01, 0.5, 0.6]])
        assert rejection_count(block, alphas, STEPUP).tolist() == [0, 3, 1]
        assert rejection_count(block, alphas, STEPDOWN).tolist() == [0, 3, 1]


class TestPValueSample:
    def test_arrays(self):
        sample = sample_from([0.5, 0.25], [True, False])
        assert sample.values.dtype == np.float64 and sample.truth.dtype == bool
        assert sample.n == 2 and sample.truth.tolist() == [True, False]

    @pytest.mark.parametrize("bad", [math.nan, -0.1, 1.5, math.inf])
    def test_rejects_outside_unit_interval(self, bad):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            PValueSample(values=(0.5, bad))

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            PValueSample(values=[[0.5, 0.5]])
        with pytest.raises(ValueError):
            PValueSample(values=(0.5, 0.5), truth=(True,))

    def test_holds_read_only_arrays(self):
        sample = PValueSample(values=(0.01, 0.5), truth=(True, False))
        assert sample.values.dtype == np.float64 and sample.truth.dtype == bool
        for arr in (sample.values, sample.truth):
            assert isinstance(arr, np.ndarray) and arr.ndim == 1
            assert not arr.flags.writeable
        with pytest.raises(ValueError):
            sample.values[1] = -3.0
        with pytest.raises(ValueError):
            sample.truth[0] = False

    def test_copies_a_caller_array(self):
        values, truth = np.array([0.01, 0.5, 0.03]), np.array([True, False, True])
        sample = PValueSample(values, truth)
        values[0], truth[0] = 7.0, False
        assert sample.values.tolist() == [0.01, 0.5, 0.03]
        assert sample.truth.tolist() == [True, False, True]
        assert values.flags.writeable and truth.flags.writeable

    def test_keeps_a_frozen_array_it_owns(self):
        values, truth = np.array([0.01, 0.5, 0.03]), np.array([True, False, True])
        values.flags.writeable = truth.flags.writeable = False
        sample = PValueSample(values, truth)
        assert np.shares_memory(sample.values, values) and np.shares_memory(sample.truth, truth)
        # A read-only view can change through its base, so it is copied.
        base = np.array([0.01, 0.5, 0.03])
        view = base[1:]
        view.flags.writeable = False
        assert not np.shares_memory(PValueSample(view).values, base)

    def test_length_mismatch(self):
        schedule = CriticalValueSchedule((0.1, 0.2), 1, STEPUP)
        with pytest.raises(ValueError, match="does not match"):
            decide(sample_from([0.5]), schedule)


def _orders(values):
    """decide's order and count next to those of a stable sort."""
    values = np.array(values, dtype=np.float64)
    n = values.size
    schedule = CriticalValueSchedule(alphas=np.linspace(0.25, 0.75, n), k=1, direction=STEPUP)
    outcome = decide(sample_from(values), schedule)
    stable = np.argsort(values, kind="stable")
    r = int(rejection_count(values[stable][None], schedule.alphas, STEPUP)[0])
    return (outcome.order.tolist(), outcome.r), (stable.tolist(), r)


class TestDecideOrder:
    @given(st.lists(st.sampled_from((-0.0, 0.0, 0.25, 0.5, 1.0)), min_size=1, max_size=60))
    @settings(max_examples=300, deadline=None)
    def test_many_ties_and_signed_zeros(self, values):
        got, stable = _orders(values)
        assert got == stable

    @given(st.floats(-0.0, 1.0), st.integers(1, 40))
    @settings(max_examples=100, deadline=None)
    def test_all_equal(self, value, n):
        got, stable = _orders([value] * n)
        assert got == stable and got[0] == list(range(n))

    @given(st.lists(st.floats(-0.0, 1.0), min_size=1, max_size=60, unique=True))
    @settings(max_examples=200, deadline=None)
    def test_distinct_values(self, values):
        got, stable = _orders(values)
        assert got == stable

    def test_large_input_with_and_without_ties(self):
        values = np.random.default_rng(9).random(100_000)
        assert _orders(values)[0] == _orders(values)[1]
        values[::7] = values[3]
        values[1::9] = -0.0
        values[2::9] = 0.0
        assert _orders(values)[0] == _orders(values)[1]


class TestSortedBlocks:
    """``decide`` gathers the sorted p-values one ``_SORTED_BLOCK`` at a
    time; a small block puts ties and the count's last hit or first miss
    on both sides of a block's edge."""

    @pytest.mark.parametrize(
        "values, untied, block",
        [
            # The one tie sits at sorted ranks 4 and 5, across the first edge.
            ((0.4, 0.1, 0.5, 0.4, 0.2, 0.3, 0.6), (0.4, 0.1, 0.5, 0.45, 0.2, 0.3, 0.6), 4),
            # -0.0 equals 0.0, so they tie too, each in a block of its own.
            ((0.5, 0.0, -0.0), (0.5, 0.0, 0.25), 1),
        ],
    )
    def test_a_tie_across_blocks_takes_the_stable_sort(self, values, untied, block, monkeypatch):
        monkeypatch.setattr(engine, "_SORTED_BLOCK", block)
        stable = [np.argsort(np.array(v), kind="stable").tolist() for v in (values, untied)]
        kinds = []
        argsort = np.argsort
        monkeypatch.setattr(
            np, "argsort", lambda a, kind=None: kinds.append(kind) or argsort(a, kind=kind)
        )
        schedule = CriticalValueSchedule(np.linspace(0.25, 0.75, len(values)), 1, STEPUP)
        assert decide(sample_from(values), schedule).order.tolist() == stable[0]
        assert kinds == [None, "stable"]
        kinds.clear()
        assert decide(sample_from(untied), schedule).order.tolist() == stable[1]
        assert kinds == [None]

    @pytest.mark.parametrize("n", [3, 4, 5, 7, 8, 9, 12, 13])
    @pytest.mark.parametrize("direction", [STEPUP, STEPDOWN])
    def test_counts_equal_the_brute_force_around_the_block_size(self, n, direction, monkeypatch):
        monkeypatch.setattr(engine, "_SORTED_BLOCK", 4)
        brute = brute_force_stepup if direction == STEPUP else brute_force_stepdown
        rng = np.random.default_rng(n)
        for _ in range(300):
            values = rng.choice(GRID, n).tolist()
            alphas = np.sort(rng.choice(GRID, n))
            truth = (rng.random(n) < 0.5).tolist()
            outcome = decide(sample_from(values, truth), CriticalValueSchedule(alphas, 1, direction))
            expected = brute(values, alphas)
            assert outcome.r == len(expected)
            assert set(outcome.order[: outcome.r].tolist()) == expected
            assert outcome.v == sum(truth[i] for i in expected)
