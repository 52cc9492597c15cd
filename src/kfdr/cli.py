"""Command-line surface.

Subcommands: ``adjust`` (apply a procedure to a CSV of p-values),
``schedule`` (print critical values), ``simulate`` (error rate sweep CSV)
and ``counterexample`` (closed-form 2-FDR violation bound). All outputs are
CSV with '#'-prefixed metadata comment lines and a mandatory header row.
Exit codes: 0 success, 1 validation error (an ``adjust`` input with no
p-value rows among them), 2 runtime/numerical failure.

``adjust`` stays in float64 arrays from input to output: the p-values are
parsed in one ``float`` pass with one range check, and a row loop runs only
on a file that pass rejects, to give the same result or word the error.
Both tables, of ``adjust`` and of ``schedule``, are written from their array
columns by ``_write_table``: one ``_LINES_PER_WRITE`` block at a time
becomes Python values and rows, with floats formatted by ``repr``.

The parse and the row formatting are single-core Python loops, so both go
through ``_split_map``: with P >= 2 usable CPUs and at least two chunks of
lines or blocks of rows, a ``ProcessPoolExecutor`` of P forked workers runs
them, at most P + 1 chunks or blocks ahead of the caller, and the results
come back in input order. The pool is imported only when it is used, so a
call that never forks does not pay for the import. With one CPU, one chunk,
or no ``os.fork``, it is plain ``map``. Either way the output bytes and the
error messages are the same.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys
from collections import deque
from itertools import count, islice
from typing import IO, Any, Callable, Iterator, Sequence

import numpy as np

from . import engine
from .fk_models import FkModel, equicorrelated_fk, independent_fk, load_empirical_csv
from .schedules import PROCEDURES, CriticalValueSchedule, make_schedule, resolve
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


def _parse_model(spec: str, k: int) -> FkModel:
    if spec == "independent":
        return independent_fk(k)
    if spec.startswith("equicorrelated:"):
        try:
            rho = float(spec.split(":", 1)[1])
        except ValueError as exc:
            raise ValueError(f"bad correlation in --model {spec!r}") from exc
        return equicorrelated_fk(k, rho)
    if spec.startswith("empirical:"):
        path = spec.split(":", 1)[1]
        try:
            return load_empirical_csv(path, k)
        except (OSError, UnicodeDecodeError) as exc:
            raise ValueError(f"cannot read empirical model {path!r}: {exc}") from exc
    raise ValueError(
        f"--model must be independent, equicorrelated:RHO or empirical:PATH, got {spec!r}"
    )


def _build_schedule(args: argparse.Namespace, n: int) -> CriticalValueSchedule:
    model = _parse_model(args.model, args.k) if resolve(args.procedure).needs_model else None
    return make_schedule(args.procedure, n=n, k=args.k, alpha=args.alpha, model=model)


def _schedule_comments(schedule: CriticalValueSchedule, args: argparse.Namespace) -> list[str]:
    lines = [
        f"# procedure={args.procedure}",
        f"# k={schedule.k}",
        f"# alpha={schedule.alpha_level}",
        f"# direction={schedule.direction}",
    ]
    if resolve(args.procedure).needs_model:
        lines.append(f"# model={args.model}")
    if schedule.warning is not None:
        lines.append(f"# warning={schedule.warning}")
    return lines


def _read_pvalues(path: str) -> np.ndarray:
    """The p-values of ``path`` as a float64 array, one per row.

    Rows are the ``splitlines`` of the file. A first row reading p (any
    case, stripped) is a header; blank rows and rows starting with # are
    skipped. The fast path runs the builtin ``float`` over every row but
    such a header and checks [0, 1] once for the whole array. ``float``
    raises on a row the loop skips, and strips no whitespace that
    ``str.strip`` keeps, so where it succeeds it gives the loop's values.

    The text is cut after a newline at about every ``_LINES_PER_WRITE``
    lines (``_line_chunks``), and ``_split_map`` parses the chunks, on
    every usable CPU when there are several chunks and on one otherwise.
    A cut after \\n never splits \\r\\n, so the chunks' rows are the file's
    rows, and only the first chunk can hold the header. No more than one
    chunk's row strings are held at a time. On any ValueError, dead worker
    or failed range check the row loop (``_parse_rows``) runs over the whole
    file instead, and words the error with its row number.
    """
    try:
        with open(path, newline="") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read {path!r}: {exc}") from exc

    def parse(chunk: tuple[int, int]) -> np.ndarray:
        lines = text[chunk[0] : chunk[1]].splitlines()
        start = 1 if chunk[0] == 0 and lines and lines[0].strip().lower() == "p" else 0
        return np.fromiter(map(float, islice(lines, start, None)), np.float64, len(lines) - start)

    try:
        values = np.concatenate(list(_split_map(parse, _line_chunks(text))))
    except (ValueError, RuntimeError):  # RuntimeError: a dead worker
        return _parse_rows(path, text.splitlines())
    # NaN fails both comparisons, so it takes the row loop too.
    if not ((values >= 0.0) & (values <= 1.0)).all():
        return _parse_rows(path, text.splitlines())
    return values


def _line_chunks(text: str) -> list[tuple[int, int]]:
    """(start, stop) offsets that cut ``text`` after a \\n at about every
    ``_LINES_PER_WRITE`` lines; at least one chunk, empty for empty text."""
    step = max(1, len(text) * _LINES_PER_WRITE // max(1, text.count("\n")))
    chunks, start = [], 0
    while not chunks or start < len(text):
        stop = text.find("\n", start + step - 1) + 1 or len(text)
        chunks.append((start, stop))
        start = stop
    return chunks


def _parse_rows(path: str, lines: list[str]) -> np.ndarray:
    """The p-values of the rows of ``path``, one row at a time."""
    values: list[float] = []
    for lineno, line in enumerate(lines, start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        if lineno == 1 and text.lower() == "p":
            continue
        try:
            p = float(text)
        except ValueError as exc:
            raise ValueError(f"{path}: malformed p-value on row {lineno}: {text!r}") from exc
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"{path}: p-value outside [0, 1] on row {lineno}: {p}")
        values.append(p)
    return np.array(values, dtype=np.float64)


@contextlib.contextmanager
def _output(path: str | None) -> Iterator[IO[str]]:
    if path is None or path == "-":
        yield sys.stdout
    else:
        try:
            fh = open(path, "w", newline="")
        except OSError as exc:
            raise ValueError(f"cannot write {path!r}: {exc}") from exc
        with fh:
            yield fh


def _check_output_dir(path: str | None) -> None:
    """Fail as ``_output`` would when the directory of ``path`` is missing or
    not a directory, without creating or truncating anything, so a long run
    can check its destination before it starts."""
    if path is None or path == "-":
        return
    directory = os.path.dirname(path) or "."
    if not os.path.isdir(directory):
        raise ValueError(f"cannot write {path!r}: {directory!r} is not an existing directory")


def _write_table(
    out: IO[str], head: Sequence[str], row: Callable[..., str], *columns: np.ndarray
) -> None:
    """Write the head lines, then one ``row(index, *values)`` line per entry
    of the columns, indexed from 1. The columns become Python values one
    _LINES_PER_WRITE block at a time, each block is formatted by
    ``_split_map`` and written in one call; only this process writes."""
    out.write("".join(line + "\n" for line in head))
    size = _LINES_PER_WRITE

    def block(start: int) -> str:
        values = (c[start : start + size].tolist() for c in columns)
        return "".join(map(row, count(start + 1), *values))

    with contextlib.closing(_split_map(block, range(0, columns[0].size, size))) as blocks:
        out.writelines(blocks)


def _usable_cpus() -> int:
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def _split_map(fn: Callable[[Any], Any], items: Sequence[Any]) -> Iterator[Any]:
    """``map(fn, items)``, with the work shared out over the usable CPUs.

    With P = min(usable CPUs, len(items)) >= 2, a ``ProcessPoolExecutor``
    on the fork context runs ``fn`` in P workers. ``fn`` reaches them as the
    pool's initializer argument, which a fork inherits without pickling, so
    it may be a closure over large data; only the items and the results are
    pickled. A deque of futures keeps at most P + 1 items submitted and not
    yet yielded, so a slow consumer does not pile up results. An exception
    that ``fn`` raises is raised here, where ``map`` would raise it; a worker
    that dies raises BrokenProcessPool, a RuntimeError. When the generator
    fails or is closed, the queued items are cancelled and the pool joins
    every worker, so no child outlives the call. With one CPU, one item or
    no ``os.fork`` this is plain ``map``.
    """
    workers = min(_usable_cpus(), len(items))
    if workers < 2:
        yield from map(fn, items)
        return
    # Imported here, not at the top: the import adds about 20 ms to a fresh
    # kfdr, and the calls that never fork should not pay for it.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(
        workers, multiprocessing.get_context("fork"), _set_worker_fn, (fn,)
    ) as pool:
        pending: deque[Any] = deque()
        try:
            for item in items:
                pending.append(pool.submit(_call_worker_fn, item))
                if len(pending) > workers:
                    yield pending.popleft().result()
            while pending:
                yield pending.popleft().result()
        finally:
            for future in pending:
                future.cancel()


# Set only in a pool worker: the ``fn`` of the ``_split_map`` that forked it.
_worker_fn: Callable[[Any], Any]


def _set_worker_fn(fn: Callable[[Any], Any]) -> None:
    global _worker_fn
    _worker_fn = fn


def _call_worker_fn(item: Any) -> Any:
    return _worker_fn(item)


def _adjust_row(i: int, p: float, c: float, flag: bool) -> str:
    return f"{i},{p!r},{c!r},{'true' if flag else 'false'}\n"


def _cmd_adjust(args: argparse.Namespace) -> int:
    # Everything that can fail runs before --output is opened, so a failing
    # call leaves an existing output file as it was.
    sample = engine.sample_from(_read_pvalues(args.input))
    if not sample.n:
        raise ValueError(f"{args.input}: no p-values")
    schedule = _build_schedule(args, n=sample.n)
    outcome = engine.decide(sample, schedule)
    critical = np.empty(sample.n)
    critical[outcome.order] = schedule.alphas
    rejected = np.zeros(sample.n, dtype=bool)
    rejected[outcome.order[: outcome.r]] = True
    head = [*_schedule_comments(schedule, args), "index,p,critical,rejected"]
    with _output(args.output) as out:
        _write_table(out, head, _adjust_row, sample.values, critical, rejected)
    return 0


def _cmd_schedule(args: argparse.Namespace) -> int:
    schedule = _build_schedule(args, n=args.n)
    head = [*_schedule_comments(schedule, args), "index,f_target,alpha"]
    with _output(args.output) as out:
        if schedule.f_targets is None:
            _write_table(out, head, "{},,{!r}\n".format, schedule.alphas)
        else:
            _write_table(out, head, "{},{!r},{!r}\n".format, schedule.f_targets, schedule.alphas)
    return 0


def _parse_grid(spec: str) -> list[int]:
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
        raise ValueError(f"bad --n0-grid {spec!r}: {exc}") from exc
    if not grid:
        raise ValueError(f"--n0-grid {spec!r} is empty")
    return grid


def _cmd_simulate(args: argparse.Namespace) -> int:
    procedures = tuple(name.strip() for name in args.procedures.split(",") if name.strip())
    if not procedures:
        raise ValueError("--procedures must list at least one procedure")
    grid = _parse_grid(args.n0_grid)
    base = SimulationConfig(
        n=args.n,
        n0=grid[0],
        k=args.k,
        alpha=args.alpha,
        rho=args.rho,
        iterations=args.iterations,
        seed=args.seed,
        procedures=procedures,
        mu_alt=math.inf if args.force_nonnull_zero else args.mu_alt,
    )
    _check_output_dir(args.output)
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
    parser.add_argument("--procedure", default="bh", help=f"procedure name: {_PROCEDURES_HELP}")
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
    _add_common_flags(p_adjust)
    p_adjust.set_defaults(func=_cmd_adjust)

    p_sched = sub.add_parser("schedule", help="print a critical-value schedule as CSV")
    p_sched.add_argument("--n", type=int, required=True, help="number of hypotheses")
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
        help="same as --mu-alt inf: set nonnull p-values to exactly zero (violation study mode)",
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
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - map anything else to runtime failure
        print(f"failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
