"""Workload definitions, seeded inputs and independent output checks.

Every check here recomputes what the kfdr CLI printed from first principles
(numpy closed forms, exact rationals and ``scipy.integrate.quad``); nothing in
this module imports kfdr.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np
from scipy import integrate, special

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
GOLDEN_SEED = 20070523

# Relative F_k errors below this read as this value: it is the accuracy
# ROADMAP item 3 targets, and far above the quad reference's own ~1e-15.
FK_ERR_FLOOR = 1e-10

ADJUST_ROWS = 1_000_000
ADJUST_K = 2
ADJUST_ALPHA = 0.05
ADJUST_ARGV = ["--procedure", "gen_bh", "--k", str(ADJUST_K), "--model", "independent"]


@dataclass(frozen=True)
class ScheduleCall:
    """One ``kfdr schedule`` invocation and how strictly its F_k is checked.

    ``fail_rel`` is the relative F_k error above which a sampled row counts
    as a failed check. Where the seed's quadrature is exact (rho <= 0.5,
    k = 2) only the inversion tolerance contributes, about 3e-7 at worst,
    so 5e-7 catches a 1e-6 perturbation of an alpha. At rho = 0.9, k = 5
    64-node Gauss-Hermite is known to be off by up to ~3e-2; that error is
    recorded by ``fk_rel_err_max`` instead of failing every run.
    """

    name: str
    procedure: str
    n: int
    k: int
    rho: float
    fail_rel: float
    alpha: float = 0.05

    @property
    def argv(self) -> list[str]:
        return [
            "schedule", "--procedure", self.procedure, "--n", str(self.n),
            "--k", str(self.k), "--model", f"equicorrelated:{self.rho}",
        ]


SCHEDULE_CALLS = (
    ScheduleCall("gen_holm_n2000_k2_rho0.5", "gen_holm", 2000, 2, 0.5, 5e-7),
    ScheduleCall("rescaled_hochberg_n1000_k2_rho0.5", "rescaled_hochberg", 1000, 2, 0.5, 5e-7),
    ScheduleCall("gen_bh_n500_k5_rho0.9", "gen_bh", 500, 5, 0.9, 1e-1),
)


@dataclass(frozen=True)
class SweepSpec:
    n: int = 100
    k: int = 2
    rho: float = 0.5
    alpha: float = 0.05
    grid: tuple[int, ...] = (20, 40, 60, 80, 100)
    iterations: int = 5000
    procedures: tuple[str, ...] = ("gen_bh", "gen_holm", "bh")

    def argv(self, seed: int) -> list[str]:
        return [
            "simulate", "--n", str(self.n), "--k", str(self.k), "--rho", str(self.rho),
            "--n0-grid", f"{self.grid[0]}:{self.grid[-1]}:{self.grid[1] - self.grid[0]}",
            "--iterations", str(self.iterations), "--procedures", ",".join(self.procedures),
            "--seed", str(seed),
        ]

    def schedule_calls(self) -> tuple[ScheduleCall, ...]:
        """The F_k schedules the sweep applies; its CSV does not print them."""
        return tuple(
            ScheduleCall(f"sweep_{p}", p, self.n, self.k, self.rho, 5e-7)
            for p in self.procedures
            if p != "bh"
        )


SWEEP = SweepSpec()


@dataclass
class CheckResult:
    """Verdict on one output file plus the accuracy figures it yields."""

    errors: list[str] = field(default_factory=list)
    fk_rel_err_max: float = FK_ERR_FLOOR
    fk_inaccurate_entries: int = 0

    @property
    def ok(self) -> bool:
        return not self.errors

    def record_fk(self, rel_err: np.ndarray) -> None:
        if rel_err.size:
            self.fk_rel_err_max = max(self.fk_rel_err_max, float(rel_err.max()))
            self.fk_inaccurate_entries += int(np.count_nonzero(rel_err > FK_ERR_FLOOR))


# --------------------------------------------------------------------------
# Inputs


def adjust_pvalues(seed: int, n: int = ADJUST_ROWS) -> np.ndarray:
    """95 % U(0,1) nulls and 5 % one-sided p-values of N(3,1), shuffled."""
    rng = np.random.Generator(np.random.PCG64(seed))
    n_alt = n // 20
    nulls = rng.random(n - n_alt)
    alts = special.ndtr(-rng.normal(3.0, 1.0, n_alt))
    p = np.concatenate([nulls, alts])
    rng.shuffle(p)
    return p


def write_pvalue_csv(p: np.ndarray, path: Path) -> None:
    path.write_text("p\n" + "\n".join(map(repr, p.tolist())) + "\n")


# --------------------------------------------------------------------------
# References


def fk_reference(x: float, k: int, rho: float) -> float:
    """F_k(x) for one-sided p-values of equicorrelated normals.

    Integrates phi(z) Phi((sqrt(rho) z - t)/sqrt(1-rho))^k with adaptive
    quadrature, split at the integrand's step z = t/sqrt(rho).
    """
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    t = -float(special.ndtri(x))
    a, b = math.sqrt(rho), math.sqrt(1.0 - rho)

    def integrand(z: float) -> float:
        density = math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
        return density * special.ndtr((a * z - t) / b) ** k

    z0 = t / a
    lo, _ = integrate.quad(integrand, -np.inf, z0, epsabs=0.0, epsrel=1e-13, limit=200)
    hi, _ = integrate.quad(integrand, z0, np.inf, epsabs=0.0, epsrel=1e-13, limit=200)
    return lo + hi


def holm_targets(n: int, k: int, alpha: float) -> list[float]:
    return [float(Fraction(alpha) / math.comb(n + k - max(i, k), k)) for i in range(1, n + 1)]


def gen_bh_targets(n: int, k: int, alpha: float) -> list[float]:
    a = Fraction(alpha)
    return [
        float(a / math.comb(n, k)) if i <= k
        else float(a * i * (n + k - i) / (k * n * math.comb(n + k - i, k)))
        for i in range(1, n + 1)
    ]


CLOSED_FORM_TARGETS = {"gen_holm": holm_targets, "gen_bh": gen_bh_targets}


def sampled_rows(n: int, k: int, count: int = 48) -> np.ndarray:
    """Fixed rows 0..k-1 plus ``count`` evenly spaced ones; seed-independent
    so the accuracy metric does not vary with the workload seed."""
    spread = np.linspace(0, n - 1, count).round().astype(int)
    return np.unique(np.concatenate([np.arange(k), spread]))


# --------------------------------------------------------------------------
# Output parsing


def _split_csv(text: str, header: str, result: CheckResult) -> list[str] | None:
    lines = text.splitlines()
    body = [ln for ln in lines if not ln.startswith("#")]
    if not body or body[0] != header:
        result.errors.append(f"expected header {header!r}")
        return None
    return body[1:]


def _rel(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.abs(a - b) / np.abs(b)


# --------------------------------------------------------------------------
# Checkers


def check_adjust(text: str, p: np.ndarray) -> CheckResult:
    """Critical column against a numpy gen_bh/independent schedule (1e-12
    relative) and the rejected set against the stepup rule (exact)."""
    result = CheckResult()
    rows = _split_csv(text, "index,p,critical,rejected", result)
    if rows is None:
        return result
    n = p.size
    if len(rows) != n:
        result.errors.append(f"expected {n} rows, got {len(rows)}")
        return result
    body = "\n".join(rows).replace("true", "1").replace("false", "0")
    try:
        table = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
    except ValueError as exc:
        result.errors.append(f"unparseable adjust output: {exc}")
        return result
    if table.shape != (n, 4):
        result.errors.append(f"expected {n}x4 table, got {table.shape}")
        return result
    index, p_out, critical, rejected = table.T
    if not np.array_equal(index, np.arange(1, n + 1)):
        result.errors.append("index column is not 1..n")
    if not np.array_equal(p_out, p):
        result.errors.append("p column differs from the input")
    if not np.isin(rejected, (0.0, 1.0)).all():
        result.errors.append("rejected column is not true/false")

    k, alpha = ADJUST_K, ADJUST_ALPHA
    i = np.arange(1, n + 1, dtype=np.float64)
    m = n + k - np.maximum(i, k)
    comb = np.ones(n)
    for j in range(k):
        comb *= (m - j) / (j + 1)
    targets = np.where(i <= k, alpha / math.comb(n, k), i * (n + k - i) * alpha / (k * n * comb))
    alphas = targets ** (1.0 / k)
    order = np.argsort(p, kind="stable")
    expected_critical = np.empty(n)
    expected_critical[order] = alphas
    bad = np.count_nonzero(_rel(critical, expected_critical) > 1e-12)
    if bad:
        result.errors.append(f"{bad} critical values differ from the reference by > 1e-12 relative")
    hits = np.nonzero(p[order] <= alphas)[0]
    r = int(hits[-1]) + 1 if hits.size else 0
    expected_rejected = np.zeros(n, dtype=bool)
    expected_rejected[order[:r]] = True
    flips = np.count_nonzero(expected_rejected != (rejected == 1.0))
    if flips:
        result.errors.append(f"{flips} rejected flags differ from the stepup rule")
    result.record_fk(_rel(critical[order] ** k, targets))
    return result


def check_schedule(text: str, call: ScheduleCall) -> CheckResult:
    """Schedule invariants, closed-form targets where they exist, and a quad
    F_k reference over sampled rows."""
    result = CheckResult()
    rows = _split_csv(text, "index,f_target,alpha", result)
    if rows is None:
        return result
    if len(rows) != call.n:
        result.errors.append(f"expected {call.n} rows, got {len(rows)}")
        return result
    try:
        table = np.array([[float(c) for c in row.split(",")] for row in rows])
    except ValueError as exc:
        result.errors.append(f"unparseable schedule row: {exc}")
        return result
    if table.shape != (call.n, 3):
        result.errors.append(f"expected {call.n}x3 table, got {table.shape}")
        return result
    index, targets, alphas = table.T
    if not np.array_equal(index, np.arange(1, call.n + 1)):
        result.errors.append("index column is not 1..n")
    if np.any(np.diff(alphas) < 0.0):
        result.errors.append("alphas are not nondecreasing")
    if np.any(alphas[: call.k] != alphas[0]):
        result.errors.append("the first k alphas differ")
    if alphas.min() < 0.0 or alphas.max() > 1.0:
        result.errors.append("alphas outside [0, 1]")
    if not (np.all(targets > 0.0) and np.all(targets <= call.alpha)):
        result.errors.append("targets outside (0, alpha]")
    closed_form = CLOSED_FORM_TARGETS.get(call.procedure)
    if closed_form is not None:
        expected = np.array(closed_form(call.n, call.k, call.alpha))
        bad = np.count_nonzero(_rel(targets, expected) > 1e-12)
        if bad:
            result.errors.append(f"{bad} targets differ from the closed form by > 1e-12 relative")
    rows_checked = sampled_rows(call.n, call.k)
    reference = np.array([fk_reference(alphas[r], call.k, call.rho) for r in rows_checked])
    rel_err = _rel(reference, targets[rows_checked])
    result.record_fk(rel_err)
    worst = float(rel_err.max())
    if worst > call.fail_rel:
        result.errors.append(f"F_k relative error {worst:.3g} exceeds {call.fail_rel:g}")
    return result


SWEEP_HEADER = (
    "n0,procedure,kfdr_hat,kfdr_se,kfwer_hat,kfwer_se,fdr_hat,fdr_se,power_hat,power_se,"
    "iterations,seed"
)


def check_sweep(text: str, seed: int, spec: SweepSpec = SWEEP) -> CheckResult:
    """Every (n0, procedure) row present, estimates in [0, 1], and the
    controlled error rates within alpha + 4 SE."""
    result = CheckResult()
    rows = _split_csv(text, SWEEP_HEADER, result)
    if rows is None:
        return result
    expected = [(n0, proc) for n0 in spec.grid for proc in spec.procedures]
    try:
        parsed = [
            ((int(c[0]), c[1]), [float(v) for v in c[2:10]], (int(c[10]), int(c[11])))
            for c in (row.split(",") for row in rows)
        ]
    except (ValueError, IndexError) as exc:
        result.errors.append(f"unparseable sweep row: {exc}")
        return result
    if [key for key, _, _ in parsed] != expected:
        result.errors.append(f"expected rows {expected}, got {[key for key, _, _ in parsed]}")
        return result
    for (n0, proc), estimates, tail in parsed:
        _, _, kfwer, kfwer_se, fdr, fdr_se, _, _ = estimates
        if tail != (spec.iterations, seed):
            result.errors.append(f"n0={n0} {proc}: wrong iterations or seed column")
        if not all(0.0 <= v <= 1.0 for v in estimates):
            result.errors.append(f"n0={n0} {proc}: estimate outside [0, 1]")
        if proc == "gen_holm" and kfwer > spec.alpha + 4.0 * kfwer_se:
            result.errors.append(f"n0={n0} gen_holm: kfwer_hat {kfwer} above alpha + 4 SE")
        if proc == "bh" and fdr > spec.alpha + 4.0 * fdr_se:
            result.errors.append(f"n0={n0} bh: fdr_hat {fdr} above alpha + 4 SE")
    return result


def golden_mismatch_rows(text: str, golden_name: str) -> int:
    """Rows of ``text`` that differ from the golden file, counting missing
    and extra rows; comment lines are ignored."""
    golden = (GOLDEN_DIR / golden_name).read_text().splitlines()
    got = [ln for ln in text.splitlines() if not ln.startswith("#")]
    golden = [ln for ln in golden if not ln.startswith("#")]
    mismatched = sum(a != b for a, b in zip(got, golden))
    return mismatched + abs(len(got) - len(golden))
