"""Command-line surface.

Subcommands: ``adjust`` (apply a procedure to a CSV of p-values),
``schedule`` (print critical values), ``simulate`` (error rate sweep CSV)
and ``counterexample`` (closed-form 2-FDR violation bound). All outputs are
CSV with '#'-prefixed metadata comment lines and a mandatory header row.
Exit codes: 0 success, 1 validation error, 2 runtime/numerical failure.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from itertools import chain, count, islice, repeat
from typing import IO, Iterable, Iterator, Sequence

import numpy as np

from . import engine
from .fk_models import FkModel, equicorrelated_fk, independent_fk, load_empirical_csv
from .schedules import PROCEDURES, CriticalValueSchedule, make_schedule, needs_model
from .simulation import (
    SimulationConfig,
    counterexample_bound,
    figure_sweep,
    write_sweep_csv,
)

# Output rows joined per write call: large tables are written in bounded
# blocks instead of one print per row or one string for the whole table.
_LINES_PER_WRITE = 65536
_PROCEDURES_HELP = f"{', '.join(PROCEDURES)} or rescaled_const:C"


class CliError(Exception):
    """Validation failure; maps to exit code 1."""


def _parse_model(spec: str, k: int) -> FkModel:
    if spec == "independent":
        return independent_fk(k)
    if spec.startswith("equicorrelated:"):
        try:
            rho = float(spec.split(":", 1)[1])
        except ValueError as exc:
            raise CliError(f"bad correlation in --model {spec!r}") from exc
        if not 0.0 <= rho <= 1.0:
            raise CliError(f"correlation must lie in [0, 1], got {rho}")
        return equicorrelated_fk(k, rho)
    if spec.startswith("empirical:"):
        path = spec.split(":", 1)[1]
        try:
            return load_empirical_csv(path, k)
        except OSError as exc:
            raise CliError(f"cannot read empirical model {path!r}: {exc}") from exc
    raise CliError(
        f"--model must be independent, equicorrelated:RHO or empirical:PATH, got {spec!r}"
    )


def _build_schedule(args: argparse.Namespace, n: int) -> CriticalValueSchedule:
    model = _parse_model(args.model, args.k) if needs_model(args.procedure) else None
    return make_schedule(args.procedure, n=n, k=args.k, alpha=args.alpha, model=model)


def _schedule_comments(schedule: CriticalValueSchedule, args: argparse.Namespace) -> list[str]:
    lines = [
        f"# procedure={schedule.procedure}",
        f"# k={schedule.k}",
        f"# alpha={schedule.alpha_level}",
        f"# direction={schedule.direction}",
    ]
    if needs_model(args.procedure):
        lines.append(f"# model={args.model}")
    if schedule.warning is not None:
        lines.append(f"# warning={schedule.warning}")
    return lines


def _read_pvalues(path: str) -> list[float]:
    try:
        with open(path, newline="") as fh:
            raw = fh.read().splitlines()
    except OSError as exc:
        raise CliError(f"cannot read {path!r}: {exc}") from exc
    values: list[float] = []
    for lineno, line in enumerate(raw, start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        if lineno == 1 and text.lower() == "p":
            continue
        try:
            p = float(text)
        except ValueError as exc:
            raise CliError(f"{path}: malformed p-value on row {lineno}: {text!r}") from exc
        if not 0.0 <= p <= 1.0:
            raise CliError(f"{path}: p-value outside [0, 1] on row {lineno}: {p}")
        values.append(p)
    return values


@contextlib.contextmanager
def _output(path: str | None) -> Iterator[IO[str]]:
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w", newline="") as fh:
            yield fh


def _write_lines(out: IO[str], lines: Iterable[str]) -> None:
    """Write each line newline-terminated, _LINES_PER_WRITE lines per write."""
    lines = iter(lines)
    while block := list(islice(lines, _LINES_PER_WRITE)):
        out.write("\n".join(block) + "\n")


def _cmd_adjust(args: argparse.Namespace) -> int:
    # Everything that can fail runs before --output is opened, so a failing
    # call leaves an existing output file as it was.
    values = _read_pvalues(args.input)
    lines: Iterable[str] = ["index,p,critical,rejected"]
    if values:
        schedule = _build_schedule(args, n=len(values))
        outcome = engine.decide(engine.sample_from(values), schedule)
        critical = np.empty(len(values))
        critical[outcome.order] = schedule.alphas
        rejected = np.zeros(len(values), dtype=bool)
        rejected[outcome.order[: outcome.r]] = True
        rows = (
            f"{i},{p!r},{c!r},{'true' if flag else 'false'}"
            for i, p, c, flag in zip(count(1), values, critical.tolist(), rejected.tolist())
        )
        lines = chain(_schedule_comments(schedule, args), lines, rows)
    with _output(args.output) as out:
        _write_lines(out, lines)
    return 0


def _cmd_schedule(args: argparse.Namespace) -> int:
    schedule = _build_schedule(args, n=args.n)
    targets = repeat("") if schedule.f_targets is None else map(repr, schedule.f_targets)
    rows = (f"{i},{t},{a!r}" for i, t, a in zip(count(1), targets, schedule.alphas))
    with _output(args.output) as out:
        header = ["index,f_target,alpha"]
        _write_lines(out, chain(_schedule_comments(schedule, args), header, rows))
    return 0


def _parse_grid(spec: str, k: int, n: int) -> list[int]:
    try:
        if ":" in spec:
            parts = [int(v) for v in spec.split(":")]
            if len(parts) != 3:
                raise ValueError("grid must be start:stop:step")
            start, stop, step = parts
            if step <= 0 or stop < start:
                raise ValueError("grid must satisfy start <= stop with step > 0")
            grid = list(range(start, stop + 1, step))
        else:
            grid = [int(v) for v in spec.split(",")]
    except ValueError as exc:
        raise CliError(f"bad --n0-grid {spec!r}: {exc}") from exc
    if not grid:
        raise CliError(f"--n0-grid {spec!r} is empty")
    for n0 in grid:
        if not k <= n0 <= n:
            raise CliError(f"--n0-grid value {n0} outside [k={k}, n={n}]")
    return grid


def _cmd_simulate(args: argparse.Namespace) -> int:
    procedures = tuple(name.strip() for name in args.procedures.split(",") if name.strip())
    if not procedures:
        raise CliError("--procedures must list at least one procedure")
    grid = _parse_grid(args.n0_grid, args.k, args.n)
    base = SimulationConfig(
        n=args.n,
        n0=grid[0],
        k=args.k,
        alpha=args.alpha,
        rho=args.rho,
        iterations=args.iterations,
        seed=args.seed,
        procedures=procedures,
        mu_alt=args.mu_alt,
        force_nonnull_zero=args.force_nonnull_zero,
    )
    summaries = figure_sweep(base, grid)
    with _output(args.output) as out:
        write_sweep_csv(summaries, out)
    return 0


def _cmd_counterexample(args: argparse.Namespace) -> int:
    alpha_crit, bound = counterexample_bound(args.n0, args.n1, args.alpha)
    print("alpha_crit,bound")
    print(f"{alpha_crit!r},{bound!r}")
    return 0


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--k", type=int, default=1, help="error-rate order parameter")
    parser.add_argument("--alpha", type=float, default=0.05, help="target error level")
    parser.add_argument(
        "--model",
        default="independent",
        help="joint null model: independent, equicorrelated:RHO or empirical:PATH",
    )
    parser.add_argument("--output", default=None, help="output path (default stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kfdr",
        description="Stepwise multiple-testing procedures controlling k-FWER and k-FDR",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_adjust = sub.add_parser("adjust", help="apply a procedure to a CSV of p-values")
    p_adjust.add_argument("input", help="CSV with one p-value per row (optional header 'p')")
    p_adjust.add_argument("--procedure", default="bh", help=f"procedure name: {_PROCEDURES_HELP}")
    _add_common_flags(p_adjust)
    p_adjust.set_defaults(func=_cmd_adjust)

    p_sched = sub.add_parser("schedule", help="print a critical-value schedule as CSV")
    p_sched.add_argument("--n", type=int, required=True, help="number of hypotheses")
    p_sched.add_argument("--procedure", default="bh", help=f"procedure name: {_PROCEDURES_HELP}")
    _add_common_flags(p_sched)
    p_sched.set_defaults(func=_cmd_schedule)

    p_sim = sub.add_parser("simulate", help="run an error-rate sweep and emit CSV")
    p_sim.add_argument("--n", type=int, required=True)
    p_sim.add_argument("--k", type=int, default=2)
    p_sim.add_argument("--alpha", type=float, default=0.05)
    p_sim.add_argument("--rho", type=float, default=0.0)
    p_sim.add_argument("--iterations", type=int, default=5000)
    p_sim.add_argument(
        "--procedures",
        default="gen_bh,gen_hochberg,bh",
        help=f"comma-separated procedure names: {_PROCEDURES_HELP}",
    )
    p_sim.add_argument(
        "--n0-grid",
        dest="n0_grid",
        required=True,
        help="true-null counts: start:stop:step (stop inclusive when aligned) or comma list",
    )
    p_sim.add_argument("--seed", type=int, default=20070523)
    p_sim.add_argument("--mu-alt", dest="mu_alt", type=float, default=2.0)
    p_sim.add_argument(
        "--force-nonnull-zero",
        dest="force_nonnull_zero",
        action="store_true",
        help="set nonnull p-values to exactly zero (violation study mode)",
    )
    p_sim.add_argument("--output", default=None)
    p_sim.set_defaults(func=_cmd_simulate)

    p_ce = sub.add_parser(
        "counterexample", help="closed-form 2-FDR lower bound for generalized Simes"
    )
    p_ce.add_argument("--n0", type=int, required=True, help="number of true nulls (>= 2)")
    p_ce.add_argument("--n1", type=int, required=True, help="number of false nulls (>= 0)")
    p_ce.add_argument("--alpha", type=float, default=0.05)
    p_ce.set_defaults(func=_cmd_counterexample)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags; report as validation failure.
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - map anything else to runtime failure
        print(f"failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
