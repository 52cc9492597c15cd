"""Joint null distribution models for the maximum of k null p-values.

A model represents F_k(x) = Pr{max of any k null p-values <= x}, assumed
identical across k-subsets (exchangeability). Two kinds are supported:

- ``equicorrelated_normal_one_sided``: p-values are one-sided tails of
  equicorrelated standard normals (P = 1 - Phi(X)), so F_k(x) =
  S_k(-Phi^-1(x)), the orthant survivor probability of
  ``numerics.equicorrelated_min_survivor``. Independence is rho = 0, where
  F_k(x) = x^k (``independent_fk``).
- ``empirical``: a monotone piecewise-linear grid fitted from simulated
  null draws, for dependence structures with no closed form.

F_k is exactly x^p where ``_exact_power`` finds p: k at rho = 0, and 1 (the
uniform marginal) at k = 1 or rho = 1. There ``fk_eval`` and ``fk_invert``
are x^p and x^(1/p) in Python float arithmetic. Only the equicorrelated
kind with k >= 2 and 0 < rho < 1 reaches the quadrature kernel, whose
accuracy ``numerics`` states, and its elementwise Newton inverse.
``fk_eval`` and ``fk_invert`` take a scalar or a whole array, so a schedule
is evaluated or inverted in one call. Models are immutable; evaluation and
inversion are pure functions.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .numerics import (
    equicorrelated_min_survivor,
    invert_min_survivor,
    python_float_map,
    std_normal_quantile_array,
    std_normal_sf_array,
)

EQUICORRELATED = "equicorrelated_normal_one_sided"
EMPIRICAL = "empirical"

_KINDS = (EQUICORRELATED, EMPIRICAL)


@dataclass(frozen=True, eq=False)
class FkModel:
    """Distribution of the maximum of k exchangeable null p-values.

    An empirical model's ``grid`` is a read-only [m, 2] float64 array of
    (x, F_k(x)) rows; any other sequence of pairs is copied into one.
    """

    kind: str
    k: int
    rho: float | None = None
    grid: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.k < 1:
            raise ValueError(f"order k must be >= 1, got {self.k!r}")
        if self.kind == EQUICORRELATED:
            if self.rho is None:
                raise ValueError("equicorrelated model requires rho")
            if not 0.0 <= self.rho <= 1.0:
                raise ValueError(f"rho must be in [0, 1], got {self.rho!r}")
        if self.kind == EMPIRICAL:
            if self.grid is None:
                raise ValueError("empirical model requires a grid")
            grid = np.array(self.grid, dtype=np.float64)
            grid.flags.writeable = False
            object.__setattr__(self, "grid", grid)
            if grid.ndim != 2 or grid.shape[1] != 2 or not grid.size:
                raise ValueError(f"an empirical grid is an [m, 2] array, got shape {grid.shape}")
            xs, fs = grid.T
            if not (np.isfinite(xs).all() and np.isfinite(fs).all()):
                raise ValueError("empirical grid values must be finite")
            if (xs[0], fs[0]) != (0.0, 0.0) or (xs[-1], fs[-1]) != (1.0, 1.0):
                raise ValueError("empirical grid must be pinned at (0,0) and (1,1)")
            if (np.diff(xs) < 0.0).any() or (np.diff(fs) < 0.0).any():
                raise ValueError("empirical grid must be nondecreasing in both coordinates")


def independent_fk(k: int) -> FkModel:
    return FkModel(kind=EQUICORRELATED, k=k, rho=0.0)


def equicorrelated_fk(k: int, rho: float) -> FkModel:
    return FkModel(kind=EQUICORRELATED, k=k, rho=rho)


def _as_unit_array(values: float | np.ndarray, what: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    outside = ~((arr >= 0.0) & (arr <= 1.0))
    if outside.any():
        raise ValueError(f"{what} must lie in [0, 1], got {float(arr[outside][0])!r}")
    return arr


def _like_input(values: float | np.ndarray, out: np.ndarray) -> float | np.ndarray:
    return float(out) if np.ndim(values) == 0 else out


def _exact_power(model: FkModel) -> int | None:
    """p with F_k(x) = x^p exactly, or None where F_k has no closed form."""
    if model.kind == EMPIRICAL:
        return None
    if model.rho == 0.0:
        return model.k
    return 1 if model.k == 1 or model.rho == 1.0 else None


def fk_eval(model: FkModel, x: float | np.ndarray) -> float | np.ndarray:
    """Evaluate F_k at x in [0, 1]: a float for a scalar x, else an array."""
    arr = _as_unit_array(x, "argument")
    power = _exact_power(model)
    if power is not None:
        out = python_float_map(pow, arr, power)
    elif model.kind == EMPIRICAL:
        xs, fs = model.grid.T
        out = np.interp(arr, xs, fs)
    else:
        # {P <= x} = {X >= Phi^-1(1-x)}; -quantile(x) keeps small-x precision.
        out = arr.copy()
        inner = (arr > 0.0) & (arr < 1.0)
        t = -std_normal_quantile_array(arr[inner])
        out[inner] = equicorrelated_min_survivor(t, model.rho, model.k)
    return _like_input(x, out)


def fk_invert(model: FkModel, target: float | np.ndarray) -> float | np.ndarray:
    """Smallest x with F_k(x) = target, elementwise; a float for a scalar target."""
    arr = _as_unit_array(target, "target")
    power = _exact_power(model)
    if power is not None:
        out = python_float_map(pow, arr, 1.0 / power)
    elif model.kind == EMPIRICAL:
        xs, fs = model.grid.T
        # interp works from the last grid level at or below the target, so
        # between levels it follows the rising segment, but on a flat level
        # it would give the rightmost x; there the first x at the level wins.
        first = np.searchsorted(fs, arr)
        out = np.where(fs[first] == arr, xs[first], np.interp(arr, fs, xs))
    else:
        out = arr.copy()
        inner = (arr > 0.0) & (arr < 1.0)
        t = invert_min_survivor(arr[inner], model.rho, model.k)
        out[inner] = std_normal_sf_array(t)
    return _like_input(target, out)


def fit_empirical_fk(
    null_sampler: Callable[[int], np.ndarray],
    draws: int,
    grid_size: int = 512,
) -> FkModel:
    """Estimate an empirical FkModel from simulated null p-value k-tuples.

    ``null_sampler(m)`` must return an (m, k) array of exchangeable null
    p-values; it owns its RNG state, so the fit is deterministic given the
    sampler's seed, ``draws`` and ``grid_size``. The grid stores the sample
    quantiles of the k-tuple maxima at ``grid_size`` equally spaced levels,
    pinned at (0,0) and (1,1).
    """
    if draws < 1:
        raise ValueError("draws must be positive")
    if grid_size < 2:
        raise ValueError("grid_size must be at least 2")
    sample = np.asarray(null_sampler(draws), dtype=np.float64)
    if sample.ndim != 2 or sample.shape[0] != draws:
        raise ValueError("sampler must return a (draws, k) array")
    if sample.min() < 0.0 or sample.max() > 1.0:
        raise ValueError("sampler produced p-values outside [0, 1]")
    k = sample.shape[1]
    maxima = sample.max(axis=1)
    if maxima.max() == maxima.min():
        raise ValueError("degenerate sampler: all k-tuple maxima are identical")
    levels = np.arange(1, grid_size) / grid_size
    xs = np.quantile(maxima, levels)
    xs = np.maximum.accumulate(xs)
    grid = np.column_stack((np.r_[0.0, xs, 1.0], np.r_[0.0, levels, 1.0]))
    return FkModel(kind=EMPIRICAL, k=k, grid=grid)


def save_empirical_csv(model: FkModel, path: str) -> None:
    """Serialize an empirical model to a two-column CSV with header x,fk."""
    if model.kind != EMPIRICAL:
        raise ValueError("only empirical models serialize to CSV")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "fk"])
        for x, f in model.grid.tolist():
            writer.writerow([repr(x), repr(f)])


def load_empirical_csv(path: str, k: int) -> FkModel:
    """Load an empirical model from the x,fk CSV format: UTF-8 text, less
    one leading byte-order mark."""
    grid: list[tuple[float, float]] = []
    with open(path, encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [c.strip() for c in header] != ["x", "fk"]:
            raise ValueError(f"{path}: expected header 'x,fk'")
        for row in reader:
            if not row:
                continue
            try:
                x, f = (float(cell) for cell in row)
            except ValueError as exc:
                raise ValueError(f"{path}: malformed row {reader.line_num}: {row!r}") from exc
            if not (math.isfinite(x) and math.isfinite(f)):
                raise ValueError(f"{path}: non-finite value in row {reader.line_num}: {row!r}")
            grid.append((x, f))
    return FkModel(kind=EMPIRICAL, k=k, grid=grid)
