import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kfdr.engine import PValueSample, decide, rejection_count, sample_from
from kfdr.schedules import STEPDOWN, STEPUP, CriticalValueSchedule
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
        procedure="grid",
        alpha_level=alphas[-1],
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
        assert outcome.k_fdp == (v / len(expected) if v >= schedule.k else 0.0)

    def test_tie_at_critical_value(self):
        # p_(3) == alpha_3 is rejected by stepup; p_(1) == alpha_1 stops stepdown.
        values = (0.3, 0.1, 0.3, 0.9, 0.1)
        alphas = (0.1, 0.2, 0.3, 0.4, 0.5)
        up = CriticalValueSchedule(alphas, 1, "grid", 0.5, STEPUP)
        down = CriticalValueSchedule(alphas, 1, "grid", 0.5, STEPDOWN)
        outcome = decide(sample_from(values), up)
        assert outcome.order.tolist() == [1, 4, 0, 2, 3]
        assert outcome.r == 4 and outcome.v is None and outcome.k_fdp is None
        assert decide(sample_from(values), down).r == 0


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

    def test_length_mismatch(self):
        schedule = CriticalValueSchedule((0.1, 0.2), 1, "grid", 0.2, STEPUP)
        with pytest.raises(ValueError, match="does not match"):
            decide(sample_from([0.5]), schedule)
