"""Joint null distribution models for the maximum of k null p-values.

A model represents F_k(x) = Pr{max of any k null p-values <= x}, assumed
identical across k-subsets (exchangeability). Two kinds are supported:

- ``equicorrelated_normal_one_sided``: p-values are one-sided tails of
  equicorrelated standard normals (P = 1 - Phi(X)), so F_k(x) =
  S_k(-Phi^-1(x)), the orthant survivor probability of
  ``numerics.equicorrelated_min_survivor``. Independence is rho = 0, where
  F_k(x) = x^k (``independent_fk``).
- ``empirical``: a given monotone piecewise-linear grid of (x, F_k(x)), for
  dependence with no closed form: an ``x,fk`` CSV that ``load_empirical_csv``
  reads (``--model empirical:PATH``), or ``FkModel(kind=EMPIRICAL, grid=...)``.

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
import re
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .numerics import (
    equicorrelated_min_survivor,
    in_unit_interval,
    invert_min_survivor,
    python_float_map,
    std_normal_quantile_array,
    std_normal_sf_array,
)

EQUICORRELATED = "equicorrelated_normal_one_sided"
EMPIRICAL = "empirical"

_KINDS = (EQUICORRELATED, EMPIRICAL)
_UNDECODED = re.compile("[\udc80-\udcff]")


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
    if not in_unit_interval(arr):
        outside = ~((arr >= 0.0) & (arr <= 1.0))
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


def save_empirical_csv(model: FkModel, path: str) -> None:
    """Serialize an empirical model to a two-column CSV with header x,fk."""
    if model.kind != EMPIRICAL:
        raise ValueError("only empirical models serialize to CSV")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "fk"])
        for x, f in model.grid.tolist():
            writer.writerow([repr(x), repr(f)])


def utf8_rows(rows: Iterable[str]) -> Iterator[str]:
    """``rows``, decoded from UTF-8 with ``surrogateescape``, as they are,
    but for the first that holds a byte that is not UTF-8: that byte
    decodes to a lone surrogate, which UTF-8 text never holds, and
    UnicodeError names it by its row, counted from 1."""
    for number, row in enumerate(rows, start=1):
        if not row.isascii() and (bad := _UNDECODED.search(row)):
            raise UnicodeError(f"'utf-8' codec can't decode byte "
                               f"{ord(bad.group()) - 0xDC00:#04x} on row {number}")
        yield row


def load_empirical_csv(path: str, k: int) -> FkModel:
    """Load an empirical model from the x,fk CSV format: UTF-8 text, less
    one leading byte-order mark. A byte that is not UTF-8 raises
    UnicodeError, which names its row."""
    grid: list[tuple[float, float]] = []
    with open(path, encoding="utf-8-sig", errors="surrogateescape", newline="") as fh:
        reader = csv.reader(utf8_rows(fh))
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
