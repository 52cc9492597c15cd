"""Independent brute-force references for the tests.

Naive stepwise procedures computed by literal definition scans, plus exact
enumeration checks of the order-statistic probability inequalities that
justify the schedule constructions. Everything enumerates small discrete
instances on plain Python sequences; nothing here imports kfdr. The one
exception to plain sequences is ``s_primes``, the O(n^2) row sums that
``schedules._d_prime`` must reproduce bit for bit.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

_MAX_ENUM_N = 6


@dataclass(frozen=True)
class DiscreteJointDistribution:
    """Finite-support joint distribution of an n-vector of p-values."""

    support: tuple[tuple[float, ...], ...]
    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.support:
            raise ValueError("support must be nonempty")
        if len(self.support) != len(self.weights):
            raise ValueError("support and weights must have equal length")
        n = len(self.support[0])
        if any(len(atom) != n for atom in self.support):
            raise ValueError("all support atoms must have the same dimension")
        if any(w < 0.0 for w in self.weights):
            raise ValueError("weights must be nonnegative")
        if abs(math.fsum(self.weights) - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1 within 1e-12")

    @property
    def n(self) -> int:
        return len(self.support[0])


def _ranked(values: Sequence[float]) -> list[int]:
    return sorted(range(len(values)), key=lambda i: (values[i], i))


def brute_force_stepup(values: Sequence[float], alphas: Sequence[float]) -> set[int]:
    """Rejected indices by a literal scan over all i of the stepup
    definition: the i smallest p-values for the last i with p_(i) <= alpha_i."""
    ranked = _ranked(values)
    j_su = 0
    for i in range(1, len(values) + 1):
        if values[ranked[i - 1]] <= alphas[i - 1]:
            j_su = i
    return set(ranked[:j_su])


def brute_force_stepdown(values: Sequence[float], alphas: Sequence[float]) -> set[int]:
    """Rejected indices by a literal scan of the stepdown definition: the
    i-1 smallest p-values for the first i with p_(i) > alpha_i (all if none)."""
    ranked = _ranked(values)
    j_sd = None
    for i in range(1, len(values) + 1):
        if values[ranked[i - 1]] > alphas[i - 1]:
            j_sd = i
            break
    count = len(values) if j_sd is None else j_sd - 1
    return set(ranked[:count])


def _check_criticals(criticals: Sequence[float], n: int, k: int) -> list[float]:
    criticals = [float(c) for c in criticals]
    if len(criticals) != n - k + 1:
        raise ValueError(
            f"expected {n - k + 1} criticals for indices {k}..{n}, got {len(criticals)}"
        )
    if any(c2 < c1 for c1, c2 in zip(criticals, criticals[1:])):
        raise ValueError("criticals must be nondecreasing")
    return criticals


def lemma21_check(
    dist: DiscreteJointDistribution, criticals: Sequence[float], k: int
) -> tuple[float, float]:
    """Union bound for order statistics against the subset-sum bound.

    Returns (lhs, rhs) where lhs = Pr{union over i=k..n of X_(i) <= c_i} and
    rhs = sum over k-subsets of Pr{max <= c_k} plus the a_i^{-1}-weighted
    layer probabilities, both by exact enumeration. lhs <= rhs must hold.
    """
    n = dist.n
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    if n > _MAX_ENUM_N:
        raise ValueError(f"enumeration supports n <= {_MAX_ENUM_N}, got n={n}")
    c = _check_criticals(criticals, n, k)

    lhs_terms = []
    for atom, w in zip(dist.support, dist.weights):
        x = sorted(atom)
        if any(x[i - 1] <= c[i - k] for i in range(k, n + 1)):
            lhs_terms.append(w)
    lhs = math.fsum(lhs_terms)

    subsets = list(itertools.combinations(range(n), k))
    head_terms = []
    layer_terms: list[list[float]] = [[] for _ in range(k + 1, n + 1)]
    for atom, w in zip(dist.support, dist.weights):
        for subset in subsets:
            m = max(atom[j] for j in subset)
            if m <= c[0]:
                head_terms.append(w)
            for pos, i in enumerate(range(k + 1, n + 1)):
                if c[i - 1 - k] < m <= c[i - k]:
                    layer_terms[pos].append(w)
    rhs = math.fsum(head_terms) + math.fsum(
        math.fsum(terms) / math.comb(i, k)
        for i, terms in zip(range(k + 1, n + 1), layer_terms)
    )
    return lhs, rhs


def common_max_cdf(
    dist: DiscreteJointDistribution, k: int, atol: float = 1e-12
) -> Callable[[float], float]:
    """The common CDF of the max over any k coordinates.

    Verifies exchangeability in the k-th order sense: every k-subset must
    induce the same max distribution (within atol at every support level);
    non-exchangeable input is rejected.
    """
    n = dist.n
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    levels = sorted({v for atom in dist.support for v in atom})
    subsets = list(itertools.combinations(range(n), k))
    per_subset = []
    for subset in subsets:
        cdf = [
            math.fsum(
                w
                for atom, w in zip(dist.support, dist.weights)
                if max(atom[j] for j in subset) <= level
            )
            for level in levels
        ]
        per_subset.append(cdf)
    ref = per_subset[0]
    for cdf in per_subset[1:]:
        if any(abs(a - b) > atol for a, b in zip(ref, cdf)):
            raise ValueError("distribution is not exchangeable at order k")

    def g_k(x: float) -> float:
        total = 0.0
        for level, value in zip(levels, ref):
            if level <= x:
                total = value
            else:
                break
        return total

    return g_k


def remark21_check(
    dist: DiscreteJointDistribution, criticals: Sequence[float], k: int
) -> tuple[float, float]:
    """Closed-form version of the subset-sum bound under exchangeability.

    Returns (lhs, rhs) with rhs = C(n,k)[G_k(c_k) + sum a_i^{-1} telescoped
    G_k differences]; rhs must agree with the enumerated lemma21_check rhs
    and dominate lhs.
    """
    n = dist.n
    if n > _MAX_ENUM_N:
        raise ValueError(f"enumeration supports n <= {_MAX_ENUM_N}, got n={n}")
    c = _check_criticals(criticals, n, k)
    g_k = common_max_cdf(dist, k)
    lhs, _ = lemma21_check(dist, criticals, k)
    rhs = math.comb(n, k) * (
        g_k(c[0])
        + math.fsum(
            (g_k(c[i - k]) - g_k(c[i - 1 - k])) / math.comb(i, k)
            for i in range(k + 1, n + 1)
        )
    )
    return lhs, rhs


def lemma31_check(n: int, n0: int, k: int) -> bool:
    """Pointwise inequality (n-r+k) v >= n0 k over all feasible (r, v).

    Feasible means k <= v <= min(r, n0) and r - v <= n - n0 with r <= n.
    """
    if not (1 <= k <= n0 <= n):
        raise ValueError(f"need 1 <= k <= n0 <= n, got k={k}, n0={n0}, n={n}")
    if n > 30:
        raise ValueError(f"exhaustive check supports n <= 30, got n={n}")
    for r in range(k, n + 1):
        for v in range(k, min(r, n0) + 1):
            if r - v > n - n0:
                continue
            if (n - r + k) * v < n0 * k:
                return False
    return True


def s_primes(n: int, k: int, f_base: np.ndarray) -> list[float]:
    """S'(n0) for n0 = k..n, from F_k at the base sequence, one exact
    ``math.fsum`` per row:
    C(n0,k) * [F(b_{n-n0+k}) + sum_{i=k+1}^{n0} (F(b_{n-n0+i}) - F(b_{n-n0+i-1})) / C(i,k)].
    """
    diffs = np.diff(f_base)
    combs = np.array([float(math.comb(i, k)) for i in range(k + 1, n + 1)])
    return [
        math.comb(n0, k)
        * (float(f_base[n - n0 + k - 1]) + math.fsum(diffs[n - n0 + k - 1 :] / combs[: n0 - k]))
        for n0 in range(k, n + 1)
    ]
