"""Exact enumeration checks of the order-statistic inequalities behind the
schedule constructions (Lemma 2.1, Remark 2.1, Lemma 3.1)."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import DiscreteJointDistribution, lemma21_check, lemma31_check, remark21_check

LEVELS = tuple(i / 10 for i in range(1, 11))


@st.composite
def joint_cases(draw, max_n=4):
    """A small discrete joint distribution of n p-values, an order k and
    nondecreasing critical values c_k..c_n."""
    n = draw(st.integers(1, max_n))
    k = draw(st.integers(1, n))
    atoms = draw(
        st.lists(
            st.tuples(*[st.sampled_from(LEVELS)] * n), min_size=1, max_size=5, unique=True
        )
    )
    weights = draw(st.lists(st.integers(1, 9), min_size=len(atoms), max_size=len(atoms)))
    criticals = sorted(
        draw(st.lists(st.sampled_from(LEVELS), min_size=n - k + 1, max_size=n - k + 1))
    )
    return atoms, weights, criticals, k


def _distribution(atoms, weights):
    total = sum(weights)
    return DiscreteJointDistribution(tuple(atoms), tuple(w / total for w in weights))


def _exchangeable(atoms, weights):
    """Spread each atom's weight evenly over all coordinate permutations."""
    perms = list(itertools.permutations(range(len(atoms[0]))))
    support = [tuple(atom[j] for j in perm) for atom in atoms for perm in perms]
    spread = [w for w in weights for _ in perms]
    return _distribution(support, spread)


@given(joint_cases())
@settings(max_examples=200, deadline=None)
def test_lemma21_bound_holds(case):
    atoms, weights, criticals, k = case
    lhs, rhs = lemma21_check(_distribution(atoms, weights), criticals, k)
    assert lhs <= rhs + 1e-12


@given(joint_cases())
@settings(max_examples=100, deadline=None)
def test_remark21_matches_lemma21_under_exchangeability(case):
    atoms, weights, criticals, k = case
    dist = _exchangeable(atoms, weights)
    lhs, rhs = remark21_check(dist, criticals, k)
    _, lemma_rhs = lemma21_check(dist, criticals, k)
    assert rhs == pytest.approx(lemma_rhs, rel=1e-12, abs=1e-12)
    assert lhs <= rhs + 1e-12


def test_lemma31_holds_up_to_n12():
    for n in range(1, 13):
        for n0 in range(1, n + 1):
            for k in range(1, n0 + 1):
                assert lemma31_check(n, n0, k), (n, n0, k)
