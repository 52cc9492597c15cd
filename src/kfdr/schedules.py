"""Critical-value schedules for stepwise multiple-testing procedures.

Every generalized procedure is defined through the k-th order joint null
distribution F_k: the construction fixes a target value for F_k(alpha_i) at
each index and the schedule materializes alpha_i by inverting the model.
Closed-form targets are alpha * (num / den) with exact integer num and den:
Python's int/int division is correctly rounded, so equal rationals give equal
targets and integer inequalities between ratios carry over to the floats.
The targets are computed as arrays: binomials are built in int64 where one
``math.comb`` at the largest index shows they cannot overflow
(``_combs``), and where num and den are below 2^53 they are divided as
float64, which rounds the same (``_f_targets``); elsewhere the integer
loop runs per row. Each schedule is inverted with one batched
``fk_invert`` call. Schedules hold the inverted alphas and their F-targets
as read-only float64 arrays, so downstream checks can compare targets
without re-inversion noise.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .fk_models import FkModel, fk_eval, fk_invert

STEPUP = "stepup"
STEPDOWN = "stepdown"

# Every integer below 2^53 is a float64.
_EXACT_INT = 2**53


def _frozen_array(values: Sequence[float], dtype: type = np.float64) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class CriticalValueSchedule:
    """A nondecreasing sequence alpha_1 <= ... <= alpha_n plus identity.

    ``alphas`` and ``f_targets`` are read-only float64 arrays; any sequence
    passed in is copied into one. ``f_targets`` holds the F_k(alpha_i) values
    the construction prescribed (None for marginal constructions that bypass
    F_k). ``warning`` is set on schedules that are known not to control the
    error rate they resemble.
    """

    alphas: np.ndarray
    k: int
    procedure: str
    alpha_level: float
    direction: str
    f_targets: np.ndarray | None = None
    warning: str | None = None

    def __post_init__(self) -> None:
        alphas = _frozen_array(self.alphas)
        object.__setattr__(self, "alphas", alphas)
        if alphas.ndim != 1:
            raise ValueError("a schedule is a one-dimensional sequence")
        n = alphas.size
        if n == 0:
            raise ValueError("schedule must have at least one critical value")
        if not 1 <= self.k <= n:
            raise ValueError(f"need 1 <= k <= n, got k={self.k}, n={n}")
        if self.direction not in (STEPUP, STEPDOWN):
            raise ValueError(f"direction must be stepup or stepdown, got {self.direction!r}")
        # NaN fails both comparisons, so it is rejected here too.
        if not ((alphas >= 0.0) & (alphas <= 1.0)).all():
            raise ValueError("critical values must lie in [0, 1]")
        if (np.diff(alphas) < 0.0).any():
            raise ValueError("critical values must be nondecreasing")
        if (alphas[: self.k] != alphas[0]).any():
            raise ValueError("the first k critical values must coincide")
        if self.f_targets is not None:
            f_targets = _frozen_array(self.f_targets)
            object.__setattr__(self, "f_targets", f_targets)
            if f_targets.shape != alphas.shape:
                raise ValueError("f_targets must match the schedule length")

    @property
    def n(self) -> int:
        return self.alphas.size


def _validate_inputs(n: int, k: int, alpha: float, model: FkModel | None) -> None:
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")
    if model is not None and model.k != k:
        raise ValueError(f"model order {model.k} does not match schedule order {k}")


def _f_target(alpha: float, num: int, den: int) -> float:
    """alpha * num/den with the ratio rounded once, from exact integers."""
    ratio = num / den
    if ratio == 0.0:
        raise ValueError("an F-target underflows double precision: C(n, k) is too large")
    return alpha * ratio


def _indices(n: int, k: int) -> np.ndarray:
    """max(i, k) for i = 1..n, as int64."""
    return np.maximum(np.arange(1, n + 1, dtype=np.int64), k)


def _combs(m: np.ndarray, r: int, scale: int = 1) -> np.ndarray:
    """scale * C(m, r) for each entry of an int64 array m >= r, exactly.

    The result is int64 when no step can overflow it, else an object array
    of Python ints from one ``math.comb`` per entry. The int64 form takes r
    vectorised steps C(m, t+1) = C(m, t) (m - t) // (t + 1), whose products
    are C(m, t+1) (t+1). Every C(m', t') with m' <= M = max(m) and t' <= r
    is at most C(M, min(r, M // 2)), so that one ``math.comb`` times
    max(r, scale) bounds every step and result.
    """
    top = int(m.max())
    if math.comb(top, min(r, top // 2)) * max(r, scale) <= np.iinfo(np.int64).max:
        c = np.ones_like(m)
        for t in range(r):
            c = c * (m - t) // (t + 1)
        return scale * c
    return np.array([scale * math.comb(v, r) for v in m.tolist()], dtype=object)


def _f_targets(alpha: float, num: np.ndarray | int, den: np.ndarray | int) -> np.ndarray:
    """``_f_target`` per entry of exact integers num and den (int64 or object
    arrays, or Python ints, broadcast together), as a float64 array.

    Where every num and den is an int64 below 2^53 they convert to float64
    exactly, so one IEEE division rounds each ratio as Python's int/int
    does, and ``alpha * ratio`` is the same multiply; with num >= 1, as in
    every builder, such a ratio is at least 2^-53 and cannot underflow.
    Elsewhere the integer loop runs, with its underflow ValueError.
    """
    num, den = np.broadcast_arrays(np.asarray(num), np.asarray(den))
    if (
        num.dtype.kind == den.dtype.kind == "i"
        and num.max() < _EXACT_INT
        and den.max() < _EXACT_INT
    ):
        return alpha * (num.astype(np.float64) / den.astype(np.float64))
    return np.array([_f_target(alpha, a, b) for a, b in zip(num.tolist(), den.tolist())])


def _invert_targets(
    targets: np.ndarray,
    model: FkModel,
    k: int,
    procedure: str,
    alpha: float,
    direction: str,
    warning: str | None = None,
) -> CriticalValueSchedule:
    return CriticalValueSchedule(
        alphas=fk_invert(model, targets),
        k=k,
        procedure=procedure,
        alpha_level=alpha,
        direction=direction,
        f_targets=targets,
        warning=warning,
    )


def gen_bh(n: int, k: int, alpha: float, model: FkModel) -> CriticalValueSchedule:
    """Generalized Benjamini-Hochberg stepup schedule (k-FDR controlling).

    F-targets are alpha/C(n,k) for i <= k and i(n+k-i)alpha/(k n C(n+k-i,k))
    for i >= k; the branches agree at i = k and the target at i = n is alpha.
    Since k C(m,k) = m C(m-1,k-1), both are alpha * j/(n C(n+k-1-j, k-1))
    with j = max(i,k), whose smaller integers divide faster.
    """
    _validate_inputs(n, k, alpha, model)
    j = _indices(n, k)
    targets = _f_targets(alpha, j, _combs(n + k - 1 - j, k - 1, scale=n))
    return _invert_targets(targets, model, k, "gen_bh", alpha, STEPUP)


def gen_by(n: int, k: int, alpha: float, model: FkModel) -> CriticalValueSchedule:
    """Generalized Benjamini-Yekutieli stepup schedule.

    Controls the k-FDR under arbitrary dependence with F-targets
    max(i,k) * alpha / (k C(n,k) H), H = 1 + sum_{j=k+1}^n 1/j. At k = 1 this
    is BY; at k = n the last target is alpha.

    Proof sketch. Each of the C(V,k) k-subsets S of the V rejected nulls
    contributes 1/C(V,k), so with V/C(V,k) = k/C(V-1,k-1) <= k,
    k-FDR = E[V/R 1{V>=k}] <= sum_S E[k/R 1{S rejected}]. A stepup with R
    rejections rejects S only if M_S = max_{i in S} P_i <= alpha_R, R >= k.
    Bin M_S into (0, alpha_k] (j = k) or (alpha_{j-1}, alpha_j] (j > k); a
    rejected S has j <= R, so k/R <= k/j. Taking expectations and summing
    over at most C(n,k) subsets, k-FDR <= k C(n,k) [F_k(alpha_k)/k +
    sum_{j>k} (F_k(alpha_j) - F_k(alpha_{j-1}))/j]. With F_k(alpha_j) = c j
    the bracket is c H, so c = alpha/(k C(n,k) H) gives k-FDR <= alpha. The
    i = n target n c <= alpha because k C(n,k) = n C(n-1,k-1) >= n and H >= 1.
    """
    _validate_inputs(n, k, alpha, model)
    harmonic = 1.0 + math.fsum(1.0 / np.arange(k + 1, n + 1))
    targets = _f_targets(alpha / harmonic, _indices(n, k), k * math.comb(n, k))
    return _invert_targets(targets, model, k, "gen_by", alpha, STEPUP)


def _holm_targets(n: int, k: int, alpha: float) -> np.ndarray:
    return _f_targets(alpha, 1, _combs(n + k - _indices(n, k), k))


def gen_holm_stepdown(n: int, k: int, alpha: float, model: FkModel) -> CriticalValueSchedule:
    """Generalized Holm stepdown schedule: F-targets alpha/C(n+k-max(i,k), k).

    Controls the k-FWER under arbitrary dependence.
    """
    _validate_inputs(n, k, alpha, model)
    return _invert_targets(_holm_targets(n, k, alpha), model, k, "gen_holm", alpha, STEPDOWN)


def gen_hochberg_stepup(n: int, k: int, alpha: float, model: FkModel) -> CriticalValueSchedule:
    """Generalized Hochberg stepup schedule: same constants as generalized
    Holm, applied stepup. k-FWER control requires positive dependence (MTP2).
    """
    _validate_inputs(n, k, alpha, model)
    return _invert_targets(_holm_targets(n, k, alpha), model, k, "gen_hochberg", alpha, STEPUP)


def lehmann_romano_stepdown(n: int, k: int, alpha: float) -> CriticalValueSchedule:
    """Marginal k-FWER stepdown schedule alpha_i = k*alpha/(n+k-max(i,k))."""
    _validate_inputs(n, k, alpha, None)
    return CriticalValueSchedule(
        alphas=k * alpha / (n + k - _indices(n, k)),
        k=k,
        procedure="lehmann_romano",
        alpha_level=alpha,
        direction=STEPDOWN,
    )


SIMES_WARNING = (
    "generalized Simes critical values control the k-FWER under the "
    "intersection null but do not control the k-FDR in general"
)


def gen_simes(n: int, k: int, alpha: float, model: FkModel) -> CriticalValueSchedule:
    """Generalized Simes stepup schedule: F-targets C(max(i,k),k)/C(n,k)*alpha.

    Provided for study only; the returned schedule carries a warning flag
    because these constants can fail to control the k-FDR.
    """
    _validate_inputs(n, k, alpha, model)
    targets = _f_targets(alpha, _combs(_indices(n, k), k), math.comb(n, k))
    return _invert_targets(targets, model, k, "gen_simes", alpha, STEPUP, warning=SIMES_WARNING)


def bh_classic(n: int, alpha: float) -> CriticalValueSchedule:
    """Original Benjamini-Hochberg stepup schedule alpha_i = i*alpha/n."""
    _validate_inputs(n, 1, alpha, None)
    return CriticalValueSchedule(
        alphas=np.arange(1, n + 1) * alpha / n,
        k=1,
        procedure="bh",
        alpha_level=alpha,
        direction=STEPUP,
    )


def _check_base(n: int, base: Sequence[float]) -> np.ndarray:
    base = np.asarray(base, dtype=np.float64)
    if base.shape != (n,):
        size = len(base) if base.ndim == 1 else base.shape
        raise ValueError(f"base sequence must have length {n}, got {size}")
    # NaN fails both comparisons, so it is rejected here too.
    if not ((base >= 0.0) & (base <= 1.0)).all():
        raise ValueError("base sequence values must lie in [0, 1]")
    if (np.diff(base) < 0.0).any():
        raise ValueError("base sequence must be nondecreasing")
    return base


def _s_primes(n: int, k: int, n0s: Sequence[int], f_base: np.ndarray) -> list[float]:
    """S'(n0) for each n0, from F_k at the base sequence:
    C(n0,k) * [F(b_{n-n0+k}) + sum_{i=k+1}^{n0} (F(b_{n-n0+i}) - F(b_{n-n0+i-1})) / C(i,k)].
    """
    diffs = np.diff(f_base)
    try:
        # C(i, k) grows with i, so every C(n0, k) below fits once these do.
        combs = np.array([float(math.comb(i, k)) for i in range(k + 1, n + 1)])
    except OverflowError as exc:
        raise ValueError(
            "a rescaling weight overflows double precision: C(n, k) is too large"
        ) from exc
    return [
        math.comb(n0, k)
        * (float(f_base[n - n0 + k - 1]) + math.fsum(diffs[n - n0 + k - 1 :] / combs[: n0 - k]))
        for n0 in n0s
    ]


def rescaled_stepup(
    n: int,
    k: int,
    alpha: float,
    base: Sequence[float],
    model: FkModel,
) -> CriticalValueSchedule:
    """k-FWER stepup schedule from an arbitrary nondecreasing base sequence.

    The base constants are rescaled by D' = max_{k<=n0<=n} S'(n0), giving
    F-targets alpha * F_k(b_{max(i,k)}) / D'. Valid under arbitrary
    dependence; all targets are <= alpha because D' >= F_k(b_n). Where
    F_k(b_i) > 0 but alpha * F_k(b_i) is subnormal or the target is 0, the
    target has lost its precision and a ValueError is raised.
    """
    _validate_inputs(n, k, alpha, model)
    base = _check_base(n, base)
    f_base = fk_eval(model, base)
    d_prime = max(_s_primes(n, k, range(k, n + 1), f_base))
    if d_prime <= 0.0:
        raise ValueError("base sequence gives a degenerate rescaling constant")
    f = f_base[_indices(n, k) - 1]
    scaled = alpha * f
    targets = scaled / d_prime
    if ((f > 0.0) & ((scaled < sys.float_info.min) | (targets == 0.0))).any():
        raise ValueError("an F-target underflows double precision: alpha * F_k(b_i) is too small")
    return _invert_targets(targets, model, k, "rescaled_stepup", alpha, STEPUP)


class Procedure(NamedTuple):
    """A procedure as ``resolve`` returns it: ``build(n, k, alpha, model)``
    and whether it needs an FkModel (model-free builders ignore ``model``)."""

    build: Callable[[int, int, float, FkModel | None], CriticalValueSchedule]
    needs_model: bool


def _bh(n: int, k: int, alpha: float, model: FkModel | None) -> CriticalValueSchedule:
    # Classic BH has k = 1 whatever k a caller runs it next to, but the k it
    # is given must still be a valid order for n hypotheses.
    _validate_inputs(n, k, alpha, None)
    return bh_classic(n, alpha)


def _rescaled_hochberg(n: int, k: int, alpha: float, model: FkModel) -> CriticalValueSchedule:
    hochberg = gen_hochberg_stepup(n, k, alpha, model)
    return rescaled_stepup(n, k, alpha, hochberg.alphas, model)


PROCEDURES: dict[str, Procedure] = {
    "bh": Procedure(_bh, False),
    "gen_bh": Procedure(gen_bh, True),
    "gen_by": Procedure(gen_by, True),
    "gen_holm": Procedure(gen_holm_stepdown, True),
    "gen_hochberg": Procedure(gen_hochberg_stepup, True),
    "gen_simes": Procedure(gen_simes, True),
    "lehmann_romano": Procedure(
        lambda n, k, alpha, model: lehmann_romano_stepdown(n, k, alpha), False
    ),
    "rescaled_hochberg": Procedure(_rescaled_hochberg, True),
}


def resolve(name: str) -> Procedure:
    """The procedure called ``name``: its ``PROCEDURES`` entry, or for the
    form rescaled_const:C, ``rescaled_stepup`` on the constant base C in
    [0, 1]. Every other name raises ValueError."""
    if name in PROCEDURES:
        return PROCEDURES[name]
    if not name.startswith("rescaled_const:"):
        raise ValueError(f"unknown procedure {name!r}")
    text = name.split(":", 1)[1]
    try:
        c = float(text)
    except ValueError:
        c = math.nan
    # NaN fails this test too.
    if not 0.0 <= c <= 1.0:
        raise ValueError(
            f"procedure {name!r}: the constant C of rescaled_const:C must be a number "
            f"in [0, 1], got {text!r}"
        )
    return Procedure(
        lambda n, k, alpha, model: rescaled_stepup(n, k, alpha, np.full(n, c), model), True
    )


def make_schedule(
    name: str, n: int, k: int, alpha: float, model: FkModel | None = None
) -> CriticalValueSchedule:
    """Build the schedule of the procedure ``resolve(name)`` returns."""
    procedure = resolve(name)
    if model is None and procedure.needs_model:
        raise ValueError(f"procedure {name!r} requires an FkModel")
    return procedure.build(n, k, alpha, model)
