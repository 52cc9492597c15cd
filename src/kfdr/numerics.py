"""Numerical primitives: the standard normal and the equicorrelated F_k kernel.

The kernel is the survivor function of the minimum of k equicorrelated
standard normals, in the one-factor form of Dunnett & Sobel (1955),

    S_k(t) = Pr{min_i X_i >= t} = integral phi(z) Phi(u(z))^k dz,
    u(z) = (sqrt(rho) z - t) / sqrt(1 - rho),

evaluated for a whole array of thresholds t at once. The integrand is
log-concave in z. Per threshold, Newton searches find its mode and, on each
side, a point where it has fallen e^-36 to e^-37 below the peak; by
concavity the tail beyond such a point holds at most e^-36 = 2.3e-16 of that
side's mass, and it is dropped. Where u > 8, Phi(u)^k is 1 to within
k * 6.2e-16, so that part is the closed form Phi(-z) and the interval ends
there. The rest is split at the mode and at u = 2, the end of the
integrand's step, and each piece gets ``_NODES``-point Gauss-Legendre.
log Phi and the Mills ratio come from a numpy port of Cody's (1969)
rational erfcx, so S_k keeps its relative accuracy however small it is; the
same sums give d log S_k/dt for the Newton inverse, which stops at a
relative residual of ``_REL_TOL_INVERT``. Every batch of targets starts
from Chebyshev fits of log S_k at ``_CHEB_NODES`` points on the unit panels
[j, j + 1) in t that its brackets meet, all fitted in one kernel pass: each
Newton solve starts from the root of the fit on the panel that holds its
iterate, which usually meets the stop rule at once.

Domain: 1-D float64 arrays, k >= 1 and 0 < rho < 1, unchecked: the one
caller, ``fk_models``, validates its inputs and takes the closed forms
(F_k(x) = x^k at rho = 0, x at k = 1 or rho = 1) itself. Tested accuracy:
F_k(x) = S_k(-Phi^-1(x)) and the inversion residuals within 1e-10 relative
of split adaptive quadrature (measured below 1e-12) for rho in [1e-6,
0.9999], k in {2, 5, 10} and x in [1e-13, 0.999]; 20 nodes within 1e-12 of
40 for rho in [0.05, 0.99] and k <= 10, with S_k down to 1e-60. Thresholds
go in blocks of 256, which bounds the temporaries at 256 x 20 doubles.
Passes over n rows, here and in the modules above, go ``_ROW_BLOCK`` rows
at a time: that is the package's one row block.
Everything here is a pure function of its inputs, and elementwise: a
threshold's S_k and a target's threshold have the same bits alone, in any
batch and in any chunks of it, as the tests check, unless two targets lie
within the stop rule of each other, where keeping thresholds nonincreasing
can move one. This rests on numpy's ufuncs giving the same bits at any
array position.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import chain, repeat
from typing import Callable

import numpy as np

_SQRT2 = math.sqrt(2.0)
_SQRT2PI = math.sqrt(2.0 * math.pi)
_LOG_SQRT2PI = math.log(_SQRT2PI)

_BLOCK = 256  # thresholds per kernel pass
_DROP = 36.0  # the integration range ends where the integrand is e^-_DROP below its peak
_U_STEP = 2.0  # split point past the integrand's step, where Phi(u)^k turns flat
_U_FLAT = 8.0  # beyond this u, Phi(u)^k is 1 to within k * 6.2e-16
_MAX_NEWTON = 60
_NODES = 20  # Gauss-Legendre nodes per piece of the integral
_REL_TOL_INVERT = 1e-12  # inversion stops once |S_k(t) / target - 1| is at most this
_CHEB_NODES = 20  # Chebyshev points per unit panel of the inversion's start
_SQRT_EPS = 2.0**-26  # a Newton step this small leaves an error of order eps
# Rows per block. Every pass over n rows, here and in the modules that
# import this constant, works one block at a time, so its temporaries stay
# block-sized. 8192 floats are about 256 KB as Python objects, so at 1e6
# rows the build of adjust's schedule stays below the memory of its decide.
_ROW_BLOCK = 8192


def in_unit_interval(arr: np.ndarray) -> bool:
    """Whether every entry of ``arr`` lies in [0, 1], -0.0 included, read
    from its minimum and maximum, so no mask of its size is made. NaN
    propagates to both and fails; an empty array passes."""
    return arr.size == 0 or bool(arr.min() >= 0.0 and arr.max() <= 1.0)


def python_float_map(fn: Callable[..., float], arr: np.ndarray, *args: float) -> np.ndarray:
    """``fn(x, *args)`` per entry x of ``arr`` in Python floats, whose ``pow``
    and ``erfc`` round unlike numpy's, made one ``_ROW_BLOCK`` at a time.
    A 1-D result is not reshaped, so it owns its data."""
    flat = arr.ravel()
    blocks = (flat[i : i + _ROW_BLOCK].tolist() for i in range(0, flat.size, _ROW_BLOCK))
    consts = [repeat(a) for a in args]
    values = chain.from_iterable(map(fn, block, *consts) for block in blocks)
    out = np.fromiter(values, np.float64, arr.size)
    return out if arr.ndim == 1 else out.reshape(arr.shape)


def std_normal_sf_array(x: np.ndarray) -> np.ndarray:
    """1 - Phi over an array, cancellation-free and bit-equal to
    ``0.5 * math.erfc(x / sqrt(2))``: numpy's division and halving round as
    Python's do, so only ``math.erfc`` runs per element."""
    return 0.5 * python_float_map(math.erfc, np.asarray(x, dtype=np.float64) / _SQRT2)


# Doubles map to int64 keys in the same order (-0.0 just below +0.0) by
# flipping the non-sign bits of negative ones; the map is its own inverse.
_NON_SIGN_BITS = np.int64(0x7FFFFFFFFFFFFFFF)


def _ordered_key_flip(bits: np.ndarray) -> np.ndarray:
    return bits ^ ((bits >> 63) & _NON_SIGN_BITS)


def std_normal_sf_thresholds(alphas: np.ndarray) -> np.ndarray:
    """For each alpha in [0, 1], the smallest double t with
    ``std_normal_sf_array(t) <= alpha``, so that sf(x) <= alpha exactly when
    x >= t. sf(+inf) = 0 meets every such alpha, so t always exists.

    Bisects the ordered int64 keys of the doubles in [-inf, +inf], about 64
    vectorised passes of the exact float predicate. This relies on the
    computed sf being nonincreasing in x, which the tests check at every
    threshold of every registry schedule.
    """
    alphas = np.asarray(alphas, dtype=np.float64)
    ends = _ordered_key_flip(np.array([-np.inf, np.inf]).view(np.int64))
    # lo never meets the predicate: it starts one key below -inf. hi always
    # does: it starts at +inf.
    lo = np.full(alphas.shape, ends[0] - 1)
    hi = np.full(alphas.shape, ends[1])
    # hi - lo overflows int64 across the whole range, hence this loop test
    # and a midpoint built from halves.
    active = lo + 1 < hi
    while active.any():
        mid = (lo >> 1) + (hi >> 1) + (lo & hi & 1)
        # Settled entries may sit at the key below -inf, a NaN; clip them to a double.
        x = _ordered_key_flip(np.clip(mid, ends[0], ends[1])).view(np.float64)
        sf = std_normal_sf_array(x)
        met = sf <= alphas
        hi = np.where(active & met, mid, hi)
        lo = np.where(active & ~met, mid, lo)
        active = lo + 1 < hi
    return _ordered_key_flip(hi).view(np.float64)


# Cody (1969) rational approximations, as in the CALERF routine of SPECFUN:
# erf on [0, 0.46875], erfc * exp(x^2) on (0.46875, 4] and asymptotically
# beyond 4. Relative error below 1.1e-15 on [0, inf).
_CODY_A = (3.16112374387056560e00, 1.13864154151050156e02, 3.77485237685302021e02,
           3.20937758913846947e03, 1.85777706184603153e-1)
_CODY_B = (2.36012909523441209e01, 2.44024637934444173e02, 1.28261652607737228e03,
           2.84423683343917062e03)
_CODY_C = (5.64188496988670089e-1, 8.88314979438837594e00, 6.61191906371416295e01,
           2.98635138197400131e02, 8.81952221241769090e02, 1.71204761263407058e03,
           2.05107837782607147e03, 1.23033935479799725e03, 2.15311535474403846e-8)
_CODY_D = (1.57449261107098347e01, 1.17693950891312499e02, 5.37181101862009858e02,
           1.62138957456669019e03, 3.29079923573345963e03, 4.36261909014324716e03,
           3.43936767414372164e03, 1.23033935480374942e03)
_CODY_P = (3.05326634961232344e-1, 3.60344899949804439e-1, 1.25781726111229246e-1,
           1.60837851487422766e-2, 6.58749161529837803e-4, 1.63153871373020978e-2)
_CODY_Q = (2.56852019228982242e00, 1.87295284992346725e00, 5.27905102951428412e-1,
           6.05183413124413191e-2, 2.33520497626869185e-3)
_INV_SQRTPI = 1.0 / math.sqrt(math.pi)


def _erfcx(y: np.ndarray) -> np.ndarray:
    """Scaled complementary error function exp(y^2) erfc(y) for y >= 0."""
    out = np.empty_like(y)
    small = y <= 0.46875
    large = y > 4.0
    mid = ~(small | large)

    v = y[small]
    v2 = v * v
    num, den = _CODY_A[4] * v2, v2
    for a, b in zip(_CODY_A[:3], _CODY_B[:3]):
        num, den = (num + a) * v2, (den + b) * v2
    out[small] = np.exp(v2) * (1.0 - v * (num + _CODY_A[3]) / (den + _CODY_B[3]))

    v = y[mid]
    num, den = _CODY_C[8] * v, v
    for c, d in zip(_CODY_C[:7], _CODY_D[:7]):
        num, den = (num + c) * v, (den + d) * v
    out[mid] = (num + _CODY_C[7]) / (den + _CODY_D[7])

    v = y[large]
    r = 1.0 / (v * v)
    num, den = _CODY_P[5] * r, r
    for p, q in zip(_CODY_P[:4], _CODY_Q[:4]):
        num, den = (num + p) * r, (den + q) * r
    out[large] = (_INV_SQRTPI - r * (num + _CODY_P[4]) / (den + _CODY_Q[4])) / v
    return out


def _log_cdf_and_mills(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """log Phi(u) and the Mills ratio phi(u)/Phi(u), both to full relative precision."""
    y = np.abs(u) / _SQRT2
    y2 = y * y
    scaled = _erfcx(y)
    gauss = np.exp(-y2)
    lower = u < 0.0
    # Phi(u) is exp(-y^2) * part below zero and part itself above; part >= 0.5
    # above zero, so log(part) needs no log1p.
    part = np.where(lower, 0.5 * scaled, 1.0 - 0.5 * gauss * scaled)
    log_cdf = np.log(part) - np.where(lower, y2, 0.0)
    mills = np.where(lower, 1.0, gauss) / (_SQRT2PI * part)
    return log_cdf, mills


# Acklam's rational approximation to the normal quantile (|rel error| < 1.2e-9),
# polished by Newton steps on log Phi.
_ACKLAM_A = (-3.969683028665376e01, 2.209460984245205e02, -2.759285104469687e02,
             1.383577518672690e02, -3.066479806614716e01, 2.506628277459239e00)
_ACKLAM_B = (-5.447609879822406e01, 1.615858368580409e02, -1.556989798598866e02,
             6.680131188771972e01, -1.328068155288572e01)
_ACKLAM_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e00,
             -2.549732539343734e00, 4.374664141464968e00, 2.938163982698783e00)
_ACKLAM_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e00,
             3.754408661907416e00)
_ACKLAM_P_LOW = 0.02425


def _polyval(coeffs: tuple[float, ...], x: np.ndarray) -> np.ndarray:
    acc = np.zeros_like(x)
    for c in coeffs:
        acc = acc * x + c
    return acc


def _lower_quantile(p: np.ndarray) -> np.ndarray:
    """Phi^-1(p) for 0 < p <= 0.5."""
    tail = p < _ACKLAM_P_LOW
    q = np.sqrt(-2.0 * np.log(np.minimum(p, _ACKLAM_P_LOW)))
    x_tail = _polyval(_ACKLAM_C, q) / _polyval(_ACKLAM_D + (1.0,), q)
    c = p - 0.5
    r = c * c
    x_mid = c * _polyval(_ACKLAM_A, r) / _polyval(_ACKLAM_B + (1.0,), r)
    x = np.where(tail, x_tail, x_mid)
    log_p = np.log(p)
    for _ in range(2):
        log_cdf, mills = _log_cdf_and_mills(x)
        x = x - (log_cdf - log_p) / mills
    return x


def std_normal_quantile_array(p: np.ndarray) -> np.ndarray:
    """Phi^-1 over an array of probabilities in (0, 1), to about 1e-15 relative.

    The lower half is solved directly; the upper half uses Phi^-1(p) =
    -Phi^-1(1 - p), where 1 - p is exact for p >= 0.5.
    """
    arr = np.asarray(p, dtype=np.float64)
    if not np.all((arr > 0.0) & (arr < 1.0)):
        raise ValueError("std_normal_quantile_array requires 0 < p < 1")
    upper = arr > 0.5
    x = _lower_quantile(np.where(upper, 1.0 - arr, arr))
    return np.where(upper, -x, x)


@lru_cache(maxsize=8)
def _legendre_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    # Gauss-Legendre on [0, 1]: nodes (xi + 1)/2 and weights w/2.
    xi, w = np.polynomial.legendre.leggauss(n)
    nodes, weights = 0.5 * (xi + 1.0), 0.5 * w
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def _log_survivor_block(
    t: np.ndarray, rho: float, k: int, nodes: tuple[np.ndarray, np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """log S_k(t) and d log S_k/dt for one block of thresholds, 0 < rho < 1.
    Each Newton search stops on its own row's test, never on the block's."""
    a, s = math.sqrt(rho), math.sqrt(1.0 - rho)
    c = a / s
    t_s = t / s

    def log_integrand(z, t_s):
        # log of phi(z) Phi(u)^k, its z-derivative and minus its second derivative
        u = c * z - t_s
        log_cdf, mills = _log_cdf_and_mills(u)
        g = -0.5 * z * z - _LOG_SQRT2PI + k * log_cdf
        curvature = 1.0 + k * c * c * np.clip(mills * (u + mills), 0.0, 1.0)
        return g, k * c * mills - z, curvature

    # Mode: Newton on g', which is decreasing and convex, started at the mode
    # of the Gaussian-tail approximation log Phi(u) ~ -u^2/2. The mode only
    # places a split point, so a thousandth of the peak's width is enough.
    z = k * a * t / (s * s + k * rho)
    todo = np.arange(t.size)
    for _ in range(_MAX_NEWTON):
        _, slope, curvature = log_integrand(z[todo], t_s[todo])
        step = slope / curvature
        z[todo] += step
        todo = todo[np.abs(step) * np.sqrt(curvature) > 1e-3]
        if todo.size == 0:
            break
    peak, _, curvature = log_integrand(z, t_s)

    # Ends: Newton on g - peak + _DROP, for both sides at once, from points
    # past the e^-_DROP level: the curvature is at least 1 everywhere and
    # grows to the left of the mode. Concavity keeps the iterates outside, so
    # the interval never loses mass. A row stops once the drop at both ends
    # is at most _DROP + 1; at _DROP + 4 the wider interval took 20 nodes
    # past 1e-12 of 40 (1.07e-12 at rho = 0.9, k = 3, t = 0).
    ends = np.stack([z - np.sqrt(2.0 * _DROP / curvature), z + math.sqrt(2.0 * _DROP)])
    todo = np.arange(t.size)
    for _ in range(_MAX_NEWTON):
        g, slope, _ = log_integrand(ends[:, todo], t_s[todo])
        excess = g - peak[todo] + _DROP
        wide = np.any(excess < -1.0, axis=0)
        todo = todo[wide]
        if todo.size == 0:
            break
        ends[:, todo] -= excess[:, wide] / slope[:, wide]
    lo, hi = ends
    z_flat = (t + _U_FLAT * s) / a
    hi = np.maximum(lo, np.minimum(hi, z_flat))
    edges = [lo, *np.sort(np.clip([z, (t + _U_STEP * s) / a], lo, hi), axis=0), hi]

    xi, w = nodes
    mass = np.zeros_like(t)
    mass_mills = np.zeros_like(t)
    for left, right in zip(edges, edges[1:]):
        width = (right - left)[:, None]
        if not np.any(width > 0.0):
            continue
        zs = left[:, None] + width * xi
        log_cdf, mills = _log_cdf_and_mills(c * zs - t_s[:, None])
        terms = width * w * np.exp(k * log_cdf - 0.5 * zs * zs - _LOG_SQRT2PI - peak[:, None])
        mass += terms.sum(axis=1)
        mass_mills += (terms * mills).sum(axis=1)
    with np.errstate(divide="ignore"):
        log_s = peak + np.log(mass)
    log_flat, _ = _log_cdf_and_mills(-z_flat)
    log_s = np.logaddexp(log_s, log_flat)
    # dS/dt = -(k/s) * integral phi Phi^k mills; the flat part adds ~0.
    return log_s, -(k / s) * mass_mills * np.exp(peak - log_s)


def _log_survivor(t: np.ndarray, rho: float, k: int) -> tuple[np.ndarray, np.ndarray]:
    nodes = _legendre_nodes(_NODES)
    log_s, slope = np.empty_like(t), np.empty_like(t)
    for start in range(0, t.size, _BLOCK):
        block = slice(start, start + _BLOCK)
        log_s[block], slope[block] = _log_survivor_block(t[block], rho, k, nodes)
    return log_s, slope


def equicorrelated_min_survivor(t: np.ndarray, rho: float, k: int) -> np.ndarray:
    """Pr{min of k equicorrelated standard normals >= t}, elementwise over t."""
    log_s, _ = _log_survivor(t, rho, k)
    return np.minimum(np.exp(log_s), 1.0)


def _clenshaw(coef: np.ndarray, panel: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_m coef[m, panel] T_m(x), elementwise, gathering one row of
    coefficients at a time."""
    b1 = b2 = np.zeros_like(x)
    for row in coef[:0:-1]:
        b1, b2 = row[panel] + 2.0 * x * b1 - b2, b1
    return coef[0, panel] + x * b1 - b2


def _chebyshev_start(
    log_level: np.ndarray, t_lo: np.ndarray, t_hi: np.ndarray, rho: float, k: int
) -> np.ndarray:
    """Per target, the root of ``_CHEB_NODES``-point Chebyshev interpolants
    of log S_k on the unit panels [j, j + 1) in t that meet its bracket.

    Every panel that meets a bracket is fitted in one kernel pass, and its
    fit depends on j alone. Newton from t_hi on the fit of the panel that
    holds the iterate, clipped to the bracket. A row is frozen after a step
    below sqrt(eps) (1 + |t|): Newton's error after such a step is of order
    eps, and further steps would only chase rounding noise.
    """
    # Panel j meets a bracket where more brackets start at or below j than
    # end below it; initial=0 keeps an empty batch valid.
    first, last = np.floor(t_lo), np.floor(t_hi)
    hull = np.arange(first.min(initial=0.0), last.max(initial=0.0) + 1.0)
    started = np.searchsorted(np.sort(first), hull, "right")
    panels = hull[started > np.searchsorted(np.sort(last), hull)]
    points = np.polynomial.chebyshev.chebpts1(_CHEB_NODES)
    log_s, _ = _log_survivor((panels + 0.5 * (points[:, None] + 1.0)).ravel(), rho, k)
    # Coefficients summed point by point: one matrix product over all panels
    # could round differently with their number.
    vander = np.polynomial.chebyshev.chebvander(points, _CHEB_NODES - 1) * (2.0 / _CHEB_NODES)
    vander[:, 0] *= 0.5
    fit = sum(map(np.multiply.outer, vander, log_s.reshape(_CHEB_NODES, -1)))
    slope_fit = np.polynomial.chebyshev.chebder(fit, scl=2.0)
    t = t_hi.copy()
    todo = np.arange(t.size)
    for _ in range(_MAX_NEWTON):
        now = t[todo]
        panel = np.searchsorted(panels, np.floor(now))
        x = 2.0 * (now - panels[panel]) - 1.0  # [j, j + 1) onto [-1, 1)
        step = (_clenshaw(fit, panel, x) - log_level[todo]) / _clenshaw(slope_fit, panel, x)
        t[todo] = np.clip(now - step, t_lo[todo], t_hi[todo])
        todo = todo[np.abs(step) > _SQRT_EPS * (1.0 + np.abs(now))]
        if todo.size == 0:
            break
    return t


def invert_min_survivor(targets: np.ndarray, rho: float, k: int) -> np.ndarray:
    """Thresholds t with S_k(t) = target, elementwise over the targets.

    Newton's method in t on log S_k, which is concave. The root lies in
    x in [target, target^(1/k)] (x = 1 - Phi(t) is the p-value scale, and
    x^k <= F_k(x) <= x for rho >= 0). Every batch, of any size, starts
    from ``_chebyshev_start``: log S_k is smooth in t, and its 20-point
    interpolants on the unit panels of t in [-3, 12] came within 9.9e-14 to
    1.0e-12 of the kernel's log S_k at (rho, k) in {(0.5, 2), (0.9, 5),
    (0.1, 10), (0.5, 50), (1e-6, 10), (0.9999, 3)}, and within 8.3e-12 at
    (0.99, 200) (largest gap at 200 equispaced t per panel). 16, 24 and 32
    points reached only 5.2e-12, 5.1e-12 and 5.9e-12 there: the kernel's
    own jitter, not the degree, sets the floor. Where the gap is below the
    stop rule a target is done at its first kernel evaluation, and
    elsewhere one Newton step later: at 20 points every one of 114 000
    targets (geomspace from 1e-13, 1e-8 and 1e-200 to 0.9, rho in {1e-6,
    0.1, 0.5, 0.9, 0.9999}, k in {2, 5, 10, 50}) took one evaluation, and at
    16 points 6.5 % took two. The start only saves kernel passes: the
    stop rule is the kernel's own, so the interpolant's error never reaches
    a threshold. Steps that leave the current bracket are replaced by
    bisection. Each t stops once |S_k(t) / target - 1| is at most
    ``_REL_TOL_INVERT`` or its bracket has shrunk to rounding level.
    Equal targets are solved once, so they get equal thresholds, and the
    result is nonincreasing in the target. Neither the start nor the solve
    couples a target to the rest of its batch.
    """
    level, where = np.unique(targets, return_inverse=True)
    t_hi = -std_normal_quantile_array(level)
    t_lo = -std_normal_quantile_array(np.minimum(level ** (1.0 / k), np.nextafter(1.0, 0.0)))
    log_level = np.log(level)
    t = _chebyshev_start(log_level, t_lo, t_hi, rho, k)
    todo = np.arange(level.size)
    for _ in range(_MAX_NEWTON):
        log_s, slope = _log_survivor(t[todo], rho, k)
        excess = log_s - log_level[todo]
        now = t[todo]
        lo = np.where(excess > 0.0, now, t_lo[todo])
        hi = np.where(excess > 0.0, t_hi[todo], now)
        t_lo[todo], t_hi[todo] = lo, hi
        residual = np.abs(np.expm1(excess))
        done = (residual <= _REL_TOL_INVERT) | (hi - lo <= 1e-15 * (1.0 + np.abs(now)))
        with np.errstate(divide="ignore", invalid="ignore"):
            step = now - excess / slope
        step = np.where((step > lo) & (step < hi), step, 0.5 * (lo + hi))
        t[todo] = np.where(done, now, step)
        todo = todo[~done]
        if todo.size == 0:
            break
    return np.minimum.accumulate(t)[where]
