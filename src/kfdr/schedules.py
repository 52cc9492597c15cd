"""Critical-value schedules for stepwise multiple-testing procedures.

A procedure is a named rule that fixes a target value for the k-th order
joint null distribution F_k at each index, or a marginal critical value, and
a direction. ``PROCEDURES`` maps each name to its builder, a function of
that name with the one signature ``(n, k, alpha, model)``, and
``make_schedule(name, n, k, alpha, model)`` is the one way to build a named
schedule. ``rescaled_stepup`` rescales an arbitrary base sequence, which has
no name. A builder that goes through F_k checks its model and inverts its
targets with one batched ``fk_invert`` call; bh and lehmann_romano are
marginal and ignore the model.

Every closed-form value, an F-target or a marginal critical value, is formed
by one rule, ``_f_targets``: alpha * (num / den) with exact integers num and
den, the ratio rounded once. Python's int/int division is correctly rounded,
so equal rationals give equal values and integer inequalities between ratios
carry over to the floats; a ratio <= 1 gives a value <= alpha, and a ratio
of 1 gives alpha exactly. The values are computed as arrays, one
``_POWER_BLOCK`` of indices at a time into one preallocated float64 array
(``_block_targets``), so no n-element integer or quotient temporaries are
made. In each block, binomials are built in int64 where one ``math.comb`` at
the block's largest index shows they cannot overflow (``_combs``), and where
num and den are below 2^53 they are divided as float64, which rounds the
same; elsewhere the ratios are divided per row as Python ints. Every path
gives the same correctly rounded value, so the blocks change no bit.
Schedules hold the alphas and their F-targets as read-only float64 arrays,
so downstream checks can compare targets without re-inversion noise.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .fk_models import EMPIRICAL, FkModel, fk_eval, fk_invert
from .numerics import _POWER_BLOCK, in_unit_interval

STEPUP = "stepup"
STEPDOWN = "stepdown"

# Every integer below 2^53 is a float64.
_EXACT_INT = 2**53


def _frozen_array(values: Sequence[float], dtype: type = np.float64) -> np.ndarray:
    """``values`` as a read-only array of ``dtype``: the input itself when it
    is already one that owns its data, else a copy."""
    if (
        type(values) is np.ndarray
        and values.dtype == dtype
        and values.flags.owndata
        and not values.flags.writeable
    ):
        return values
    arr = np.array(values, dtype=dtype)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class CriticalValueSchedule:
    """A nondecreasing sequence alpha_1 <= ... <= alpha_n, its order k and
    the direction it is applied in.

    ``alphas`` and ``f_targets`` are read-only float64 arrays. A read-only
    float64 array that owns its data is kept as it is; any other sequence,
    a writeable array included, is copied into one. ``f_targets`` holds the
    F_k(alpha_i) values the construction prescribed (None for marginal
    constructions that bypass F_k). Both are checked to lie in [0, 1], so
    every float of a schedule can be printed as it is.
    """

    alphas: np.ndarray
    k: int
    direction: str
    f_targets: np.ndarray | None = None

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
        if not in_unit_interval(alphas):
            raise ValueError("critical values must lie in [0, 1]")
        if (alphas[1:] < alphas[:-1]).any():
            raise ValueError("critical values must be nondecreasing")
        if (alphas[: self.k] != alphas[0]).any():
            raise ValueError("the first k critical values must coincide")
        if self.f_targets is not None:
            f_targets = _frozen_array(self.f_targets)
            object.__setattr__(self, "f_targets", f_targets)
            if f_targets.shape != alphas.shape:
                raise ValueError("f_targets must match the schedule length")
            if not in_unit_interval(f_targets):
                raise ValueError("F-targets must lie in [0, 1]")

    @property
    def n(self) -> int:
        return self.alphas.size


def _validate_inputs(n: int, k: int, alpha: float) -> None:
    """Raise ValueError unless 1 <= k <= n and alpha is a normal double in
    (0, 1): a subnormal alpha makes critical values that round to 0.0."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")
    if alpha < sys.float_info.min:
        raise ValueError(f"alpha must be a normal double, got {alpha!r}")


def _validate_fk_inputs(procedure: str, n: int, k: int, alpha: float, model: FkModel | None):
    """``_validate_inputs``, and that ``model`` is an FkModel of order k: the
    check of every builder that goes through F_k, before any target."""
    _validate_inputs(n, k, alpha)
    if model is None:
        raise ValueError(f"procedure {procedure!r} requires an FkModel")
    if model.k != k:
        raise ValueError(f"model order {model.k} does not match schedule order {k}")


_UNDERFLOW = "an F-target underflows double precision: alpha / C(n, k) is too small"


def _indices(stop: int, k: int, start: int = 0) -> np.ndarray:
    """max(i, k) for i = start + 1..stop, as int64."""
    return np.maximum(np.arange(start + 1, stop + 1, dtype=np.int64), k)


def _block_targets(n: int, k: int, targets: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """``targets(j)`` for j = max(i, k), i = 1..n, filled into one float64
    array one ``_POWER_BLOCK`` of indices at a time, so every temporary is
    block-sized. Each block picks its own paths in ``_combs`` and
    ``_f_targets``, which give the same targets and underflow error. The
    array is returned read-only, so a schedule keeps it without a copy."""
    out = np.empty(n)
    for start in range(0, n, _POWER_BLOCK):
        stop = min(n, start + _POWER_BLOCK)
        out[start:stop] = targets(_indices(stop, k, start))
    out.flags.writeable = False
    return out


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
    """alpha * (num / den) per entry of exact integers num and den (int64 or
    object arrays, or Python ints, broadcast together), the ratio rounded
    once, as a float64 array: the one rule of every closed-form value.

    Where every num and den is an int64 below 2^53 they convert to float64
    exactly, so one IEEE division rounds each ratio as Python's int/int
    does, and with num >= 1, as in every builder, a ratio is at least 2^-53;
    elsewhere Python's int/int divides per entry. A target of 0 raises the
    underflow ValueError either way.

    The product rounds a second time, so a value can exceed the exact
    rational alpha * num / den: alpha = 0.05, num / den = 1/5 gives
    0.010000000000000002. Each rounding is within a factor 1 + 2^-53, so
    every value that is a normal double is at most
    (alpha * num / den) (1 + 2^-52 + 2^-106); rounding is monotone, so where
    num <= den, as in every builder, every value is at most alpha.
    """
    num, den = np.broadcast_arrays(np.asarray(num), np.asarray(den))
    if (
        num.dtype.kind == den.dtype.kind == "i"
        and num.max() < _EXACT_INT
        and den.max() < _EXACT_INT
    ):
        ratios = num.astype(np.float64) / den.astype(np.float64)
    else:
        pairs = zip(num.ravel().tolist(), den.ravel().tolist())
        ratios = np.array([a / b for a, b in pairs]).reshape(num.shape)
    targets = alpha * ratios
    if not targets.all():
        raise ValueError(_UNDERFLOW)
    return targets


def _invert_targets(
    targets: np.ndarray, model: FkModel, k: int, direction: str
) -> CriticalValueSchedule:
    # Frozen here, the arrays the builder made are kept by the schedule
    # without a copy.
    alphas = fk_invert(model, targets)
    alphas.flags.writeable = targets.flags.writeable = False
    return CriticalValueSchedule(alphas, k, direction, f_targets=targets)


def gen_bh(n: int, k: int, alpha: float, model: FkModel) -> CriticalValueSchedule:
    """Generalized Benjamini-Hochberg stepup schedule (k-FDR controlling).

    F-targets are alpha/C(n,k) for i <= k and i(n+k-i)alpha/(k n C(n+k-i,k))
    for i >= k; the branches agree at i = k and the target at i = n is alpha.
    Since k C(m,k) = m C(m-1,k-1), both are alpha * j/(n C(n+k-1-j, k-1))
    with j = max(i,k), whose smaller integers divide faster.
    """
    _validate_fk_inputs("gen_bh", n, k, alpha, model)
    targets = _block_targets(
        n, k, lambda j: _f_targets(alpha, j, _combs(n + k - 1 - j, k - 1, scale=n))
    )
    return _invert_targets(targets, model, k, STEPUP)


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
    _validate_fk_inputs("gen_by", n, k, alpha, model)
    harmonic = 1.0 + math.fsum(1.0 / np.arange(k + 1, n + 1))
    den = k * math.comb(n, k)
    targets = _block_targets(n, k, lambda j: _f_targets(alpha / harmonic, j, den))
    return _invert_targets(targets, model, k, STEPUP)


def _holm_targets(n: int, k: int, alpha: float) -> np.ndarray:
    return _block_targets(n, k, lambda j: _f_targets(alpha, 1, _combs(n + k - j, k)))


def gen_holm(n: int, k: int, alpha: float, model: FkModel) -> CriticalValueSchedule:
    """Generalized Holm stepdown schedule: F-targets alpha/C(n+k-max(i,k), k).

    Controls the k-FWER under arbitrary dependence.
    """
    _validate_fk_inputs("gen_holm", n, k, alpha, model)
    return _invert_targets(_holm_targets(n, k, alpha), model, k, STEPDOWN)


def gen_hochberg(n: int, k: int, alpha: float, model: FkModel) -> CriticalValueSchedule:
    """Generalized Hochberg stepup schedule: same constants as generalized
    Holm, applied stepup. k-FWER control requires positive dependence (MTP2).
    """
    _validate_fk_inputs("gen_hochberg", n, k, alpha, model)
    return _invert_targets(_holm_targets(n, k, alpha), model, k, STEPUP)


def lehmann_romano(n: int, k: int, alpha: float, model: FkModel | None) -> CriticalValueSchedule:
    """Marginal k-FWER stepdown schedule alpha_i = alpha * (k/(n+k-max(i,k))),
    whose last value is alpha; at k = 1 these are gen_holm's F-targets. The
    schedule does not depend on F_k, so ``model`` is ignored. As every
    ``_f_targets`` value, each alpha_i is at most alpha and, where it is a
    normal double, at most (alpha k / (n+k-max(i,k))) (1 + 2^-52 + 2^-106)."""
    _validate_inputs(n, k, alpha)
    return CriticalValueSchedule(
        _block_targets(n, k, lambda j: _f_targets(alpha, k, n + k - j)), k, STEPDOWN
    )


SIMES_WARNING = (
    "generalized Simes critical values control the k-FWER under the "
    "intersection null but do not control the k-FDR in general"
)
# By procedure name, the warning printed above its tables: for the procedures
# known not to control the error rate they resemble.
WARNINGS = {"gen_simes": SIMES_WARNING}


def gen_simes(n: int, k: int, alpha: float, model: FkModel) -> CriticalValueSchedule:
    """Generalized Simes stepup schedule: F-targets C(max(i,k),k)/C(n,k)*alpha.

    Provided for study only: these constants can fail to control the k-FDR,
    which ``WARNINGS["gen_simes"]`` says.
    """
    _validate_fk_inputs("gen_simes", n, k, alpha, model)
    den = math.comb(n, k)
    targets = _block_targets(n, k, lambda j: _f_targets(alpha, _combs(j, k), den))
    return _invert_targets(targets, model, k, STEPUP)


def bh(n: int, k: int, alpha: float, model: FkModel | None) -> CriticalValueSchedule:
    """Original Benjamini-Hochberg stepup schedule alpha_i = alpha * (i/n),
    gen_bh's F-targets at k = 1, whose last value is alpha. The schedule has
    k = 1 whatever k it is run beside, but that k must still be a valid
    order for n hypotheses; ``model`` is ignored. As every ``_f_targets``
    value, each alpha_i is at most alpha and, where it is a normal double,
    at most (alpha i / n) (1 + 2^-52 + 2^-106)."""
    _validate_inputs(n, k, alpha)
    return CriticalValueSchedule(
        _block_targets(n, 1, lambda j: _f_targets(alpha, j, n)), 1, STEPUP
    )


def _check_base(n: int, base: Sequence[float]) -> np.ndarray:
    base = np.asarray(base, dtype=np.float64)
    if base.shape != (n,):
        size = len(base) if base.ndim == 1 else base.shape
        raise ValueError(f"base sequence must have length {n}, got {size}")
    if not in_unit_interval(base):
        raise ValueError("base sequence values must lie in [0, 1]")
    if (base[1:] < base[:-1]).any():
        raise ValueError("base sequence must be nondecreasing")
    return base


def _d_prime(n: int, k: int, f_base: np.ndarray) -> float:
    """D' = max over n0 = k..n of the rows
    S'(n0) = C(n0,k) * [F(b_{n-n0+k}) + sum_{i=k+1}^{n0} (F(b_{n-n0+i}) - F(b_{n-n0+i-1})) / C(i,k)],
    each summed exactly by one ``math.fsum`` of its rounded terms.

    Only a few rows are summed. The bracketed sums are one correlation
    T[s] = sum_m d[s+m] w[m], s = n - n0 + k - 1, of the differences d with
    w[m] = 1 / C(k+1+m, k), estimated for every n0 at once with real FFTs of
    power-of-two length L. A radix-2 transform with twiddles correct to the
    unit roundoff u is within eps_L of exact in the 2-norm, eps_L = log2(L)
    eta / (1 - log2(L) eta) with eta = u + gamma_4 (sqrt(2) + u) (Higham
    2002, Thm. 24.2); numpy's power-of-two transforms, radix-4 and radix-2
    passes, are taken to meet it. With |X|_inf <= |x|_1 and |X|_2 =
    sqrt(L) |x|_2 for a transform X of x, the two forward transforms, the
    spectral product (sqrt(2) gamma_2) and the inverse transform give,
    wherever eps_L sqrt(L) <= 1,
        |T_est[s] - T[s]| <= (5 eps_L + 3 sqrt(2) gamma_2) ln(n) |d|_1,
    whose first-order part is 4 eps_L + 2 sqrt(2) gamma_2, and where
    ln n >= |w|_1 because C(i, k) >= i for i > k. Adding 16u (max F +
    |d|_1), for the rounding of the weights and of an estimated and an exact
    row, gives E with every exact row within C(n0, k) E of its estimate. A
    row whose estimate plus that bound falls below another row's estimate
    minus its bound cannot be the maximum; every other row is summed
    exactly, so D' is the maximum of the exact rows, bit for bit.
    """
    diffs = np.diff(f_base)
    try:
        # C(i, k) grows with i, so every C(n0, k) below fits once these do.
        combs = np.array([float(math.comb(i, k)) for i in range(k + 1, n + 1)])
    except OverflowError as exc:
        raise ValueError(
            "a rescaling weight overflows double precision: C(n, k) is too large"
        ) from exc

    def exact(n0: int) -> float:
        s = n - n0 + k - 1
        return math.comb(n0, k) * (float(f_base[s]) + math.fsum(diffs[s:] / combs[: n0 - k]))

    if n == k:
        return exact(k)
    size = 1 << (2 * n - k - 2).bit_length()  # no cyclic wrap into s <= n - 2
    spectrum = np.fft.rfft(diffs, size) * np.fft.rfft(1.0 / combs, size).conj()
    sums = np.append(np.fft.irfft(spectrum, size)[: n - 1], 0.0)  # T[n - 1] is empty
    rows = np.arange(k, n + 1)
    weights = np.append(1.0, combs)  # C(n0, k) for n0 = k..n
    starts = n - rows + k - 1
    estimates = weights * (f_base[starts] + sums[starts])
    u = 2.0**-53
    gamma_2, gamma_4 = 2.0 * u / (1.0 - 2.0 * u), 4.0 * u / (1.0 - 4.0 * u)
    eta = math.log2(size) * (u + gamma_4 * (math.sqrt(2.0) + u))
    fft_eps = eta / (1.0 - eta)
    d_sum = float(np.abs(diffs).sum()) * (1.0 + n * u)
    error = (5.0 * fft_eps + 3.0 * math.sqrt(2.0) * gamma_2) * math.log(n) * d_sum
    error += 16.0 * u * (float(f_base.max()) + d_sum)
    bounds = weights * error
    candidates = rows[estimates + bounds >= np.max(estimates - bounds)]
    return max(exact(n0) for n0 in candidates.tolist())


def rescaled_stepup(
    n: int,
    k: int,
    alpha: float,
    base: Sequence[float],
    model: FkModel,
) -> CriticalValueSchedule:
    """k-FWER stepup schedule from an arbitrary nondecreasing base sequence.

    The base constants are rescaled by D' = max_{k<=n0<=n} S'(n0), giving
    F-targets alpha * (F_k(b_{max(i,k)}) / D'), the ratio formed first.
    Valid under arbitrary dependence. S'(k) is F_k(b_n) exactly, so in floats
    too D' >= every F_k(b_i), each ratio is at most 1 and each target at
    most alpha. Where F_k(b_i) > 0 but F_k(b_i) or the target is subnormal
    or 0, the target has lost its precision and a ValueError is raised, as
    where F_k(b_n) underflows to 0. A base where F_k is exactly 0 has no
    rescaling constant and is rejected as degenerate. A constant base C has
    D' = C(n, k) F_k(C), so every target is alpha / C(n, k) to within
    rounding: the single-step rule, which rescaled_const forms exactly.
    """
    _validate_fk_inputs("rescaled_stepup", n, k, alpha, model)
    base = _check_base(n, base)
    f_base = fk_eval(model, base)
    d_prime = _d_prime(n, k, f_base)
    # D' >= F_k(b_n) >= every f. F_k is exactly 0 at b_n > 0 only on an
    # empirical grid's level at 0; elsewhere a D' of 0 is an F_k(b_n) that
    # underflowed, and every f and target is 0 with it.
    if d_prime == 0.0 and (base[-1] == 0.0 or model.kind == EMPIRICAL):
        raise ValueError("base sequence gives a degenerate rescaling constant")
    f = f_base[_indices(n, k) - 1]
    targets = alpha * (f / d_prime) if d_prime > 0.0 else f
    if d_prime == 0.0 or ((f > 0.0) & (np.minimum(f, targets) < sys.float_info.min)).any():
        raise ValueError(
            "an F-target underflows double precision: F_k(b_i) or its rescaling is too small"
        )
    return _invert_targets(targets, model, k, STEPUP)


def rescaled_hochberg(n: int, k: int, alpha: float, model: FkModel) -> CriticalValueSchedule:
    """``rescaled_stepup`` on gen_hochberg's critical values as the base."""
    _validate_fk_inputs("rescaled_hochberg", n, k, alpha, model)
    return rescaled_stepup(n, k, alpha, gen_hochberg(n, k, alpha, model).alphas, model)


def rescaled_const(n: int, k: int, alpha: float, model: FkModel) -> CriticalValueSchedule:
    """``rescaled_stepup`` on a constant base, in closed form: every F-target
    is alpha / C(n, k), gen_holm's first bit for bit, inverted once. A target
    that is not a normal double raises, as in ``rescaled_stepup``."""
    _validate_fk_inputs("rescaled_const", n, k, alpha, model)
    target = float(_f_targets(alpha, 1, math.comb(n, k)))
    if target < sys.float_info.min:
        raise ValueError(_UNDERFLOW)
    targets, alphas = np.full(n, target), np.full(n, fk_invert(model, target))
    alphas.flags.writeable = targets.flags.writeable = False
    return CriticalValueSchedule(alphas, k, STEPUP, f_targets=targets)


# A procedure: ``builder(n, k, alpha, model)`` gives its schedule, and its
# key is the builder's name. A builder that goes through F_k raises
# ValueError where ``model`` is None.
Builder = Callable[[int, int, float, FkModel | None], CriticalValueSchedule]

PROCEDURES: dict[str, Builder] = {
    builder.__name__: builder
    for builder in (
        bh, gen_bh, gen_by, gen_holm, gen_hochberg, gen_simes, lehmann_romano,
        rescaled_const, rescaled_hochberg,
    )
}


def resolve(name: str) -> Builder:
    """The ``PROCEDURES`` entry of ``name``; an unknown name raises ValueError."""
    try:
        return PROCEDURES[name]
    except KeyError:
        raise ValueError(f"unknown procedure {name!r}") from None


def make_schedule(
    name: str, n: int, k: int, alpha: float, model: FkModel | None = None
) -> CriticalValueSchedule:
    """The schedule of procedure ``name``: ``resolve(name)(n, k, alpha,
    model)``, the one way to build a named schedule. The name is looked up
    first, so an unknown one is named before any input is checked; the
    builder then checks its own inputs, the model included where it goes
    through F_k. bh and lehmann_romano need no model."""
    return resolve(name)(n, k, alpha, model)
