"""Command-line surface.

Subcommands: ``adjust`` (apply a procedure to a CSV of p-values),
``schedule`` (print critical values), ``simulate`` (error rate sweep CSV)
and ``counterexample`` (closed-form 2-FDR violation bound). All outputs are
CSV with '#'-prefixed metadata comment lines and a mandatory header row.
Exit codes: 0 success, 1 validation error (an ``adjust`` input with no
p-value rows among them), 2 runtime/numerical failure, and 141 (128 +
SIGPIPE), with nothing on stderr, when the reader of stdout closes early.
``--model`` is read and validated for every procedure, bh and lehmann_romano
included.

``adjust`` stays in float64 arrays from input to output and keeps few
whole columns alive at once. Per phase, the n-element arrays this process
holds, at 8 B/row for float64 and int64, 4 for int32 and 1 for bool:

- parse (``_read_pvalues``), 16 B/row: the values of each byte range and
  their concatenation. Never the file's text: each worker reads and decodes
  its own range of about ``16 * _LINES_PER_WRITE`` bytes.
- build (``_build_schedule``), 24 B/row: the values, the F-targets and
  the alphas, with one ``numerics._POWER_BLOCK`` of temporaries. The
  F-targets go before the sort.
- decide (``engine.decide``), 24 B/row: the values, the alphas and the
  int64 sort order, with one block of sorted values at a time. This
  phase sets the peak; none after it holds more.
- ranks (``_ranks``), 24 B/row: the values, the alphas, the order,
  narrowed to int32 in the lower half of its own buffer, and the int32
  rank of each row.
- write (``_write_table``), 20 B/row: the values, the alphas and the
  ranks, with at most P + 1 rendered blocks of ``_LINES_PER_WRITE`` rows
  (about 0.45 MB each). The writer of a block gathers its critical values,
  ``alphas[rank]``, and its rejections, ``rank < r``, itself, so no
  row-order column of either is ever built.

After the parse and after the ranks ``_release_freed_heap`` hands the C
heap's free pages back, so neither the next phase nor the forked writers
carry them. The p-values are parsed in one ``float`` pass with one range
check, and a row loop runs only on a file that pass rejects, to give the
same result or word the error. Both tables, of ``adjust`` and of
``schedule``, are written by ``_write_table``, from a function that gives
the columns of a block of rows: ``render.rows_text`` turns one
``_LINES_PER_WRITE`` block at a time into CSV text in numpy, each float
printed as its ``repr``, with no Python object per row or value.

The parse and the rendering of the rows each run on one core, so both go
through ``_split_map``: with P >= 2 usable CPUs and at least two byte
ranges of input or blocks of rows, a ``ProcessPoolExecutor`` of P forked
workers runs them, at most P + 1 ranges or blocks ahead of the caller, and
the results come back in input order. The pool and ``render`` are imported
only when they are used, so a call that never needs them does not pay for
the import. With one CPU, one range, or no ``os.fork``, it is plain
``map``. Either way the output bytes and the error messages are the same.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import os
import stat
import sys
from collections import deque
from itertools import islice
from typing import IO, Any, BinaryIO, Callable, Iterable, Iterator, Sequence

import numpy as np

from . import engine
from .fk_models import FkModel, equicorrelated_fk, independent_fk, load_empirical_csv, utf8_rows
from .numerics import in_unit_interval
from .schedules import PROCEDURES, CriticalValueSchedule, make_schedule, resolve
from .simulation import (
    SimulationConfig,
    counterexample_bound,
    figure_sweep,
    write_sweep_csv,
)

# Output rows joined per write call: large tables are written in bounded
# blocks instead of one print per row or one string for the whole table.
# adjust's parse reads byte ranges of 16 times as many bytes.
_LINES_PER_WRITE = 8192
# Entries per block when adjust narrows its sort order and inverts it into
# ranks (``_ranks``).
_NARROW_BLOCK = 65536
_PROCEDURES_HELP = ", ".join(PROCEDURES)


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
        except (OSError, UnicodeError) as exc:
            raise ValueError(f"cannot read empirical model {path!r}: {exc}") from exc
    raise ValueError(
        f"--model must be independent, equicorrelated:RHO or empirical:PATH, got {spec!r}"
    )


def _build_schedule(args: argparse.Namespace, n: int) -> CriticalValueSchedule:
    # An unknown name is named before the model is read.
    resolve(args.procedure)
    model = _parse_model(args.model, args.k)
    return make_schedule(args.procedure, n=n, k=args.k, alpha=args.alpha, model=model)


def _schedule_comments(schedule: CriticalValueSchedule, args: argparse.Namespace) -> list[str]:
    """The '#' lines above a table of ``schedule``. ``# model=`` is printed
    exactly when the schedule has F-targets, the mark of one built through
    F_k: a marginal schedule such as bh's does not depend on the model."""
    lines = [
        f"# procedure={args.procedure}",
        f"# k={schedule.k}",
        f"# alpha={args.alpha}",
        f"# direction={schedule.direction}",
    ]
    if schedule.f_targets is not None:
        lines.append(f"# model={args.model}")
    if schedule.warning is not None:
        lines.append(f"# warning={schedule.warning}")
    return lines


def _read_pvalues(path: str) -> np.ndarray:
    """The p-values of ``path`` as a read-only float64 array, one per row.

    Rows are the ``splitlines`` of the file's UTF-8 text, less one leading
    byte-order mark. A first row reading p (any case, stripped) is a
    header; blank rows and rows starting with # are skipped. The fast path
    runs the builtin ``float`` over every row but such a header and checks
    [0, 1] once for the whole array. ``float`` raises on a row the loop
    skips, and strips no whitespace that ``str.strip`` keeps, so where it
    succeeds it gives the loop's values.

    This process never holds the file's text: it only finds the cuts of
    ``_row_cuts``, byte ranges of at least ``16 * _LINES_PER_WRITE`` bytes
    that each end on a line break, and ``_split_map`` parses the ranges, on
    every usable CPU when there are several and on one otherwise. Each
    parse reads and decodes its own range, so it holds one range's bytes,
    text and row strings, and returns its values: the parent holds the
    ranges' arrays and their concatenation, 16 B/row. A range where
    ``float`` raises, on a blank or # row say, runs ``float`` again over
    its rows but the blank and # ones. On a ValueError from that pass (a
    byte that is not UTF-8 included), a dead worker or a failed range
    check, and for a file that is not a regular one, such as a pipe, the
    row loop (``_parse_rows``) streams the file's rows instead and words
    the error with its row number.
    """
    try:
        with open(path, "rb") as fh:
            regular = stat.S_ISREG(os.fstat(fh.fileno()).st_mode)
            # No cuts, and so no fast path, for a pipe: it cannot be read twice.
            cuts = _row_cuts(fh, 16 * _LINES_PER_WRITE) if regular else []
    except OSError as exc:
        raise ValueError(f"cannot read {path!r}: {exc}") from exc

    def parse(index: int) -> np.ndarray:
        with open(path, "rb") as fh:
            fh.seek(cuts[index])
            data = fh.read(cuts[index + 1] - cuts[index])
        lines = data.decode("utf-8-sig" if index == 0 else "utf-8").splitlines()
        del data
        start = 1 if index == 0 and lines and lines[0].strip().lower() == "p" else 0
        rows = map(float, islice(lines, start, None))
        try:
            return np.fromiter(rows, np.float64, len(lines) - start)
        except ValueError:
            rows = islice(lines, start, None)
            kept = (line for line in rows if line.strip()[:1] not in ("", "#"))
            return np.fromiter(map(float, kept), np.float64)

    values = None
    if cuts:
        try:
            values = np.concatenate(list(_split_map(parse, range(len(cuts) - 1))))
        except (ValueError, OSError, RuntimeError):  # RuntimeError: a dead worker
            pass
    # NaN fails the range check, so it takes the row loop too.
    if values is None or not in_unit_interval(values):
        rows = _file_rows(path)
        try:
            values = _parse_rows(path, rows)
        except ValueError:
            # A bad byte anywhere in the file is named before a bad row.
            for _ in rows:
                pass
            raise
    values.flags.writeable = False
    return values


def _row_cuts(fh: BinaryIO, size: int) -> list[int]:
    """The byte offsets 0 = c_0 < c_1 < ... < c_m = file size that cut the
    file ``fh`` into ranges [c_i, c_i+1): each range but the last holds at
    least ``size`` bytes and ends on the first line break from there on, a
    \\n, a \\r or a whole \\r\\n, so no range splits a row or a \\r\\n
    and the ranges' ``splitlines`` are the file's. UTF-8 puts these bytes
    inside no other character. An empty file is one empty range."""
    total = os.fstat(fh.fileno()).st_size
    cuts = [0]
    while total - cuts[-1] > size and (cut := _row_end(fh, cuts[-1] + size - 1)) < total:
        cuts.append(cut)
    cuts.append(total)
    return cuts


def _row_end(fh: BinaryIO, pos: int) -> int:
    """The offset just past the first \\n, \\r or \\r\\n at or after ``pos``
    in ``fh``, or the end of the file when there is none."""
    fh.seek(pos)
    while chunk := fh.read(4096):
        breaks = [i for i in (chunk.find(b"\n"), chunk.find(b"\r")) if i >= 0]
        if breaks:
            end = pos + min(breaks) + 1
            fh.seek(end - 1)
            return end + (fh.read(2) == b"\r\n")
        pos += len(chunk)
    return pos


def _parse_rows(path: str, lines: Iterable[str]) -> np.ndarray:
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


def _file_rows(path: str) -> Iterator[str]:
    """The rows of ``path`` as ``_read_pvalues`` reads them, streamed: the
    ``splitlines`` of each \\n, \\r or \\r\\n line of the UTF-8 text,
    less one leading byte-order mark. A byte that is not UTF-8 is named by
    its row (``utf8_rows``)."""
    try:
        with open(path, encoding="utf-8-sig", errors="surrogateescape", newline="") as fh:
            yield from utf8_rows(row for line in fh for row in line.splitlines())
    except (OSError, UnicodeError) as exc:
        raise ValueError(f"cannot read {path!r}: {exc}") from exc


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


# The cells of a table's rows start + 1 to stop, by column.
_Columns = Callable[[int, int], Sequence[np.ndarray | None]]


def _write_table(out: IO[str], head: Sequence[str], rows: int, columns: _Columns) -> None:
    """Write the head lines, then the CSV rows 1 to ``rows``, whose cells
    ``columns(start, stop)`` gives for the rows start + 1 to stop: first any
    ``None`` columns (empty cells), then float64 columns in [0, 1], each
    value printed as its ``repr``, then at most one bool column, printed as
    true or false. Every block's columns are checked before anything is
    written, and a block that fails, NaN included, raises RuntimeError.
    ``_split_map`` renders the _LINES_PER_WRITE blocks with
    ``render.rows_text``, each calling ``columns`` for itself, so a forked
    writer gathers its own cells; each block is written in one call, and
    only this process writes."""
    # Imported here: compiling the module and building its tables adds
    # milliseconds to a fresh kfdr, which a call that prints no table should
    # not pay. The writers fork after it, so they inherit its tables.
    from . import render

    size = _LINES_PER_WRITE
    starts = range(0, rows, size)
    for start in starts:
        render.check_columns(columns(start, min(start + size, rows)))
    out.write("".join(line + "\n" for line in head))

    def block(start: int) -> str:
        return render.rows_text(start + 1, columns(start, min(start + size, rows)))

    with contextlib.closing(_split_map(block, starts)) as blocks:
        out.writelines(blocks)


def _slices(*columns: np.ndarray | None) -> _Columns:
    """The ``columns`` of ``_write_table`` for whole arrays: their slices."""
    return lambda start, stop: [c if c is None else c[start:stop] for c in columns]


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


def _cmd_adjust(args: argparse.Namespace) -> int:
    # Everything that can fail runs before --output is opened, so a failing
    # call leaves an existing output file as it was.
    sample = engine.sample_from(_read_pvalues(args.input))
    if not sample.n:
        raise ValueError(f"{args.input}: no p-values")
    _release_freed_heap()
    schedule = _build_schedule(args, n=sample.n)
    head = [*_schedule_comments(schedule, args), "index,p,critical,rejected"]
    # Only what the rows need is kept: the F-targets go before the sort, and
    # the sort order, turned into ranks, before the writers fork.
    schedule = dataclasses.replace(schedule, f_targets=None)
    outcome = engine.decide(sample, schedule)
    r, rank = outcome.r, _ranks(outcome.order)
    del outcome
    _release_freed_heap()

    def columns(start: int, stop: int) -> tuple[np.ndarray, ...]:
        # Row i's critical value is the alpha of its rank, and it is
        # rejected when that rank is below r.
        ranks = rank[start:stop]
        return sample.values[start:stop], schedule.alphas[ranks], ranks < r

    with _output(args.output) as out:
        _write_table(out, head, sample.n, columns)
    return 0


def _ranks(order: np.ndarray) -> np.ndarray:
    """The rank of each row, the inverse of the sort order ``order``: an
    int64 array that owns its data, which is narrowed in place and is not
    to be used afterwards. Where n < 2^31 it is copied, ``_NARROW_BLOCK``
    entries at a time, into int32 in the lower half of its own buffer, and
    ``resize`` hands back the upper half; the ranks are then int32 too, and
    are filled in blocks of that size, so no temporary is larger."""
    n = order.size
    if n < 2**31:
        narrow = order.view(np.int32)[:n]
        for start in range(0, n, _NARROW_BLOCK):
            # Entry i lands inside int64 entry i // 2, which is read by then.
            narrow[start : start + _NARROW_BLOCK] = order[start : start + _NARROW_BLOCK]
        del narrow
        order.resize((n + 1) // 2, refcheck=False)
        order = order.view(np.int32)[:n]
    rank = np.empty(n, order.dtype)
    for start in range(0, n, _NARROW_BLOCK):
        stop = min(start + _NARROW_BLOCK, n)
        rank[order[start:stop]] = np.arange(start, stop, dtype=order.dtype)
    return rank


def _release_freed_heap() -> None:
    """Hand the C heap's free pages back to the system, where glibc's
    ``malloc_trim`` is there to do it. glibc keeps freed heap resident: the
    values that the pool's result thread unpickles come from an arena of
    that thread's own, and once an 8 MB array has been freed, arrays of that
    size come from the heap too. Unreleased, those pages count again in the
    next phase's peak and in every worker forked after them."""
    if not sys.platform.startswith("linux"):
        return
    import ctypes

    try:
        ctypes.CDLL(None).malloc_trim(0)
    except (OSError, AttributeError):  # no C library to load, or not glibc
        pass


def _cmd_schedule(args: argparse.Namespace) -> int:
    schedule = _build_schedule(args, n=args.n)
    head = [*_schedule_comments(schedule, args), "index,f_target,alpha"]
    with _output(args.output) as out:
        _write_table(out, head, schedule.n, _slices(schedule.f_targets, schedule.alphas))
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
        mu_alt=args.mu_alt,
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
        code = args.func(args)
        sys.stdout.flush()  # a reader that closed early shows here, not at exit
        return code
    except BrokenPipeError:
        # 128 + SIGPIPE and a quiet stderr, as for a writer that SIGPIPE ends;
        # with fd 1 on /dev/null the interpreter's last flush succeeds.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - map anything else to runtime failure
        print(f"failure: {exc}", file=sys.stderr)
        return 2


def run() -> int:
    """``main()`` for the ``kfdr`` console script and ``python -m kfdr.cli``.

    ``gc.freeze()`` before the exit moves every live object out of the
    collector's generations, so the interpreter's shutdown skips a last
    collection walk over them, about 20 ms of a ``--help`` call. Callers
    in one process, the tests among them, call ``main`` itself.
    """
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    raise SystemExit(run())
