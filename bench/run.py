"""kfdr benchmark: drives the CLI end to end and traces its layers.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout that holds ``src/kfdr``. With
``--trace 0`` every pass is a fresh ``python -m kfdr.cli`` child, one at a
time, and the end-to-end metrics are printed. With ``--trace 1`` the same
calls run in this process, alternating an untraced and a traced pass, and
the per-layer metrics are printed. Every output is checked against the
references in ``workloads.py``; a non-zero exit or a failed check is a
failed operation. The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

THREAD_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# Pinned before numpy loads, so in-process passes and children run alike.
os.environ.update(THREAD_PINS)

import numpy as np  # noqa: E402

import layertrace  # noqa: E402
import workloads as wl  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SPAWN = Path(__file__).resolve().parent / "spawn.py"
RUN_LIMIT_S = 170.0
MIN_TIMED_PASSES = 4
SETUP_SAMPLES = 9


@dataclass
class Call:
    """One CLI invocation of a workload and the check of its output."""

    argv: list[str]
    check: Callable[[str], wl.CheckResult]
    golden: str | None = None


@dataclass
class Workload:
    calls: list[Call]  # one timed pass
    items: int  # work items per pass: p-values, schedule rows or iterations
    extra: list[Call] = field(default_factory=list)  # checked once, untimed
    golden_extra: list[Call] = field(default_factory=list)  # traced runs only


def adjust_workload(seed: int) -> Workload:
    p = wl.adjust_pvalues(seed)
    path = WORK / f"adjust-{seed}.csv"
    wl.write_pvalue_csv(p, path)
    argv = ["adjust", str(path), *wl.ADJUST_ARGV]
    return Workload([Call(argv, partial(wl.check_adjust, p=p))], items=p.size)


def schedule_workload(seed: int) -> Workload:
    # Schedules take no random input; the seed has no effect here.
    calls = [
        Call(c.argv, partial(wl.check_schedule, call=c), f"{c.name}.csv")
        for c in wl.SCHEDULE_CALLS
    ]
    return Workload(calls, items=sum(c.n for c in wl.SCHEDULE_CALLS))


def simulate_workload(seed: int) -> Workload:
    spec = wl.SWEEP
    return Workload(
        [Call(spec.argv(seed), partial(wl.check_sweep, seed=seed))],
        items=len(spec.grid) * spec.iterations,
        extra=[Call(c.argv, partial(wl.check_schedule, call=c)) for c in spec.schedule_calls()],
        golden_extra=[
            Call(spec.argv(wl.GOLDEN_SEED), partial(wl.check_sweep, seed=wl.GOLDEN_SEED),
                 f"sweep_seed{wl.GOLDEN_SEED}.csv")
        ],
    )


WORKLOADS = {
    "adjust-1e6": adjust_workload,
    "schedule-equicorr": schedule_workload,
    "simulate-sweep": simulate_workload,
}


@dataclass
class Output:
    call: Call
    text: str
    seen: int = 0
    result: wl.CheckResult | None = None


class Ops:
    """Attempted and failed operations. Outputs are kept per call and content
    hash and checked after timing ends, once per distinct content, so checks
    neither run between timed passes nor repeat."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.outputs: dict[tuple[int, bytes], Output] = {}

    def record(self, ok: bool, what: str, times: int = 1) -> None:
        self.attempted += times
        if not ok:
            self.failed += times
            print(f"failed: {what}", file=sys.stderr)

    def observe(self, call: Call, code: int, out: Path) -> tuple[int, bytes] | None:
        if code != 0:
            self.record(False, f"exit {code}: kfdr {' '.join(call.argv)}")
            return None
        text = out.read_text()
        key = (id(call), hashlib.sha256(text.encode()).digest())
        self.outputs.setdefault(key, Output(call, text)).seen += 1
        return key

    def check_all(self) -> None:
        for output in self.outputs.values():
            output.result = output.call.check(output.text)
            what = f"kfdr {' '.join(output.call.argv)}: {'; '.join(output.result.errors)}"
            self.record(output.result.ok, what, output.seen)

    def accuracy(self) -> tuple[float, int]:
        """Largest F_k relative error over all checked outputs, and the
        inaccurate sampled rows summed over calls (worst output of each)."""
        err, inaccurate = wl.FK_ERR_FLOOR, {}
        for (call_id, _), output in self.outputs.items():
            err = max(err, output.result.fk_rel_err_max)
            worst = max(inaccurate.get(call_id, 0), output.result.fk_inaccurate_entries)
            inaccurate[call_id] = worst
        return err, sum(inaccurate.values())

    def golden_rows(self, keys: list[tuple[int, bytes] | None]) -> int:
        outputs = [self.outputs[key] for key in keys if key is not None]
        return sum(wl.golden_mismatch_rows(o.text, o.call.golden) for o in outputs if o.call.golden)


class Deadline:
    def __init__(self, seconds: float) -> None:
        self.end = time.perf_counter() + seconds

    def left(self) -> float:
        return self.end - time.perf_counter()


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(argv: list[str], out: Path, deadline: Deadline) -> tuple[float, float, int]:
    """Run ``python -m kfdr.cli argv`` through ``spawn.py`` with stdout to
    ``out``; return wall seconds, the child's peak RSS in MB and its exit
    code. Launcher and child share a new session, killed as one on timeout."""
    cmd = [sys.executable, "-I", str(SPAWN), str(out), str(out.with_suffix(".err")),
           sys.executable, "-m", "kfdr.cli", *argv]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT,
                          start_new_session=True) as proc:
        try:
            report, _ = proc.communicate(timeout=max(deadline.left(), 1.0))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            return time.perf_counter() - start, 0.0, -signal.SIGKILL
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            raise
    if proc.returncode != 0:
        raise RuntimeError(f"spawn.py exited {proc.returncode}")
    wall, rss_kib, code = report.split()
    return float(wall), int(rss_kib) / 1024.0, int(code)


def run_in_process(
    argv: list[str], out: Path, tracer: layertrace.Tracer | None
) -> tuple[float, int]:
    """Call ``kfdr.cli.main(argv)`` with stdout to ``out``; return wall
    seconds and the exit code (2 for an escaped exception, as the CLI)."""
    import kfdr.cli

    with open(out, "w", newline="") as fh, contextlib.redirect_stdout(fh):
        start = time.perf_counter()
        try:
            code = tracer.run(kfdr.cli.main, argv) if tracer else kfdr.cli.main(argv)
        except Exception as exc:  # noqa: BLE001 - a crash is a failed operation
            print(f"failed: {exc!r}", file=sys.stderr)
            code = 2
        wall = time.perf_counter() - start
    return wall, code


def measure_setup(ops: Ops, deadline: Deadline) -> float:
    """Median wall time of a fresh ``kfdr --help``: import plus parser build.
    The first spawn is discarded; it may compile bytecode."""
    out = WORK / "help.out"
    walls = []
    for i in range(SETUP_SAMPLES + 1):
        wall, _, code = run_child(["--help"], out, deadline)
        ops.record(code == 0 and out.read_text().startswith("usage:"), "kfdr --help")
        if i:
            walls.append(wall)
    return statistics.median(walls)


def timed_run(work: Workload, seconds: float, ops: Ops, deadline: Deadline) -> dict[str, float]:
    setup_s = measure_setup(ops, deadline)
    pass_walls, pass_rss = [], []
    start = time.perf_counter()
    while len(pass_walls) < MIN_TIMED_PASSES or time.perf_counter() - start < seconds:
        if pass_walls and deadline.left() < 2.0 * max(pass_walls):
            break
        wall_sum, rss_max = 0.0, 0.0
        for i, call in enumerate(work.calls):
            out = WORK / f"out-{i}.csv"
            wall, rss, code = run_child(call.argv, out, deadline)
            wall_sum += wall
            rss_max = max(rss_max, rss)
            ops.observe(call, code, out)
        pass_walls.append(wall_sum)
        pass_rss.append(rss_max)
    for call in work.extra:
        out = WORK / "extra.csv"
        _, _, code = run_child(call.argv, out, deadline)
        ops.observe(call, code, out)
    ops.check_all()
    return {
        "items_per_s": work.items / statistics.median(pass_walls),
        "setup_s": setup_s,
        "peak_rss_mb": statistics.median(pass_rss),
        "fk_rel_err_max": ops.accuracy()[0],
    }


def _layer_metrics(tracer: layertrace.Tracer) -> dict[str, float]:
    s = tracer.stats
    invert, evals = s["fk_models.fk_invert"], s["fk_models.fk_eval"]
    return {
        "cli.self_s": s["cli.main"].self_s,
        "schedules.self_s": s["schedules.make_schedule"].self_s,
        "schedules.make_schedule_calls": s["schedules.make_schedule"].calls,
        "fk_models.invert_calls": invert.calls,
        "fk_models.invert_self_s": invert.self_s,
        "fk_models.eval_calls": evals.calls,
        "fk_models.eval_self_s": evals.self_s,
        "fk_models.evals_per_invert": evals.calls / invert.calls if invert.calls else 0.0,
        "numerics.quadrature_calls": s["numerics.quadrature"].calls,
        "numerics.quadrature_s": s["numerics.quadrature"].self_s,
        "numerics.normal_sf_s": s["numerics.normal_sf"].self_s,
        "simulation.self_s": s["simulation.run_experiment"].self_s,
        "simulation.iterations": s["simulation.run_experiment"].units,
        "engine.sample_from_s": s["engine.sample_from"].self_s,
        "engine.decide_s": s["engine.decide"].self_s,
        "engine.count_calls": s["engine.count"].calls,
        "engine.count_s": s["engine.count"].self_s,
    }


def _in_process_pass(work: Workload, ops: Ops, tracer: layertrace.Tracer | None):
    """One pass of the workload's calls in this process; returns wall
    seconds, output bytes and the output keys."""
    wall_sum, out_bytes, keys = 0.0, 0, []
    for i, call in enumerate(work.calls):
        out = WORK / f"out-{i}.csv"
        wall, code = run_in_process(call.argv, out, tracer)
        wall_sum += wall
        out_bytes += out.stat().st_size
        keys.append(ops.observe(call, code, out))
    return wall_sum, out_bytes, keys


def traced_run(work: Workload, seconds: float, ops: Ops, deadline: Deadline) -> dict[str, float]:
    sys.path.insert(0, str(SRC))
    plain_walls, passes, pair_walls = [], [], []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        if pair_walls and deadline.left() < 2.0 * max(pair_walls):
            break
        pair_start = time.perf_counter()
        tracer = layertrace.Tracer()
        # Alternate which side goes first, so a warm-up cost lands on both.
        for traced in (False, True) if len(passes) % 2 == 0 else (True, False):
            wall, out_bytes, keys = _in_process_pass(work, ops, tracer if traced else None)
            if traced:
                passes.append((wall, tracer, out_bytes, keys))
            else:
                plain_walls.append(wall)
        pair_walls.append(time.perf_counter() - pair_start)
    extra_keys = []
    for call in work.extra + work.golden_extra:
        out = WORK / "extra.csv"
        _, code = run_in_process(call.argv, out, None)
        extra_keys.append(ops.observe(call, code, out))
    ops.check_all()
    # The median traced pass supplies every layer figure, so they sum to its wall.
    passes.sort(key=lambda p: p[0])
    wall, tracer, out_bytes, keys = passes[(len(passes) - 1) // 2]
    if tracer.absent:
        print(f"absent spans: {sorted(set(tracer.absent))}")
    return {
        "trace.wall_s": wall,
        "trace.overhead_s": (
            statistics.median(p[0] for p in passes) - statistics.median(plain_walls)
        ),
        "cli.output_bytes": out_bytes,
        **_layer_metrics(tracer),
        "check.fk_inaccurate_entries": ops.accuracy()[1],
        "check.golden_mismatch_rows": ops.golden_rows(keys + extra_keys),
    }


UNITS = {
    "items_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB", "fk_rel_err_max": "ratio",
    "cli.output_bytes": "bytes", "fk_models.evals_per_invert": "ratio",
}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    return "s" if name.endswith("_s") else "count"


def provenance(args: argparse.Namespace) -> dict[str, object]:
    version = "unknown"
    for line in (SRC / "kfdr" / "__init__.py").read_text().splitlines():
        if line.startswith("__version__"):
            version = line.split("=", 1)[1].strip().strip("\"'")
    return {
        "kfdr": version,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "thread_pins": THREAD_PINS,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=wl.GOLDEN_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "kfdr" / "cli.py").is_file():
        print(f"error: no kfdr sources under {SRC}", file=sys.stderr)
        return 2
    deadline = Deadline(RUN_LIMIT_S)
    WORK.mkdir(exist_ok=True)
    work = WORKLOADS[args.workload](args.seed)
    ops = Ops()
    measure = traced_run if args.trace else timed_run
    metrics = measure(work, args.seconds, ops, deadline)
    print("provenance: " + json.dumps(provenance(args), sort_keys=True))
    print(json.dumps({
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
