"""Self-tests of the benchmark's generator, checkers and tracer.

    python3 bench/selftest.py

Each checker must accept the program's real output and reject a corrupted
copy; the tracer must restore every name it wrapped.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import unittest

import numpy as np

import run
import workloads as wl
from layertrace import PATCH_POINTS, ROOT_SPAN, Tracer

sys.path.insert(0, str(run.SRC))

import kfdr.cli  # noqa: E402
import kfdr.engine  # noqa: E402


def cli_output(argv: list[str], tracer: Tracer | None = None) -> str:
    out = run.WORK / "selftest.csv"
    _, code = run.run_in_process(argv, out, tracer)
    if code != 0:
        raise AssertionError(f"kfdr {' '.join(argv)} exited {code}")
    return out.read_text()


def resolve(module_name: str, attr: str):
    return getattr(sys.modules[module_name], attr)


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_file(self) -> None:
        a, b = run.WORK / "gen-a.csv", run.WORK / "gen-b.csv"
        wl.write_pvalue_csv(wl.adjust_pvalues(7, n=5000), a)
        wl.write_pvalue_csv(wl.adjust_pvalues(7, n=5000), b)
        self.assertEqual(a.read_bytes(), b.read_bytes())

    def test_seed_changes_input(self) -> None:
        self.assertFalse(
            (wl.adjust_pvalues(7, n=5000) == wl.adjust_pvalues(8, n=5000)).all()
        )

    def test_pvalues_in_range_and_round_trip(self) -> None:
        p = wl.adjust_pvalues(7, n=5000)
        self.assertTrue(((p >= 0.0) & (p <= 1.0)).all())
        path = run.WORK / "gen-a.csv"
        wl.write_pvalue_csv(p, path)
        parsed = [float(v) for v in path.read_text().split()[1:]]
        self.assertEqual(parsed, p.tolist())


class CheckerTest(unittest.TestCase):
    def test_adjust_rejects_flipped_flag(self) -> None:
        p = wl.adjust_pvalues(5, n=3000)
        path = run.WORK / "selftest-p.csv"
        wl.write_pvalue_csv(p, path)
        text = cli_output(["adjust", str(path), *wl.ADJUST_ARGV])
        self.assertEqual(wl.check_adjust(text, p).errors, [])
        self.assertIn(",true", text)
        self.assertFalse(wl.check_adjust(text.replace(",false", ",true", 1), p).ok)
        self.assertFalse(wl.check_adjust(text.replace(",true", ",false", 1), p).ok)

    def test_schedule_rejects_perturbed_alpha(self) -> None:
        call = wl.ScheduleCall("selftest", "gen_holm", 200, 2, 0.5, 5e-7)
        text = cli_output(call.argv)
        self.assertEqual(wl.check_schedule(text, call).errors, [])
        lines = text.splitlines()
        header = lines.index("index,f_target,alpha")
        for row in wl.sampled_rows(call.n, call.k)[[call.k, -call.k]]:
            for factor in (1 + 1e-6, 1 - 1e-6):
                corrupted = list(lines)
                index, target, alpha = corrupted[header + 1 + row].split(",")
                corrupted[header + 1 + row] = f"{index},{target},{float(alpha) * factor!r}"
                self.assertFalse(wl.check_schedule("\n".join(corrupted), call).ok, (row, factor))

    def test_sweep_rejects_truncation(self) -> None:
        spec = dataclasses.replace(wl.SWEEP, iterations=300)
        text = cli_output(spec.argv(11))
        self.assertEqual(wl.check_sweep(text, 11, spec).errors, [])
        truncated = "\n".join(text.splitlines()[:-1])
        self.assertFalse(wl.check_sweep(truncated, 11, spec).ok)
        self.assertFalse(wl.check_sweep(text, 12, spec).ok)

    def test_golden_counts_changed_and_missing_rows(self) -> None:
        name = f"{wl.SCHEDULE_CALLS[2].name}.csv"
        golden = (wl.GOLDEN_DIR / name).read_text()
        self.assertEqual(wl.golden_mismatch_rows(golden, name), 0)
        lines = golden.splitlines()
        self.assertEqual(wl.golden_mismatch_rows("\n".join(lines[:-3]), name), 3)
        lines[-1] = lines[-1] + "0"
        self.assertEqual(wl.golden_mismatch_rows("\n".join(lines), name), 1)


class SpawnTest(unittest.TestCase):
    def test_child_rss_excludes_benchmark_memory(self) -> None:
        ballast = np.ones(200 * 2**20 // 8)
        wall, rss_mb, code = run.run_child(["--help"], run.WORK / "help.out", run.Deadline(60))
        self.assertEqual(code, 0)
        self.assertGreater(wall, 0.0)
        self.assertLess(rss_mb, ballast.nbytes / 2**20 / 2)


class ContractTest(unittest.TestCase):
    def test_metric_names_and_units_match_benchmark_json(self) -> None:
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        declared = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
        for name, unit in declared.items():
            self.assertEqual(run.unit_of(name), unit, name)
        layer_names = {m["name"] for m in spec["per_layer"]}
        self.assertLessEqual(set(run._layer_metrics(Tracer())), layer_names)
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(run.WORKLOADS))


class TracerTest(unittest.TestCase):
    ARGV = ["schedule", "--procedure", "rescaled_hochberg", "--n", "40", "--k", "2",
            "--model", "equicorrelated:0.5"]

    def test_wrappers_removed_after_run(self) -> None:
        before = {(m, a): resolve(m, a) for m, a, _, _ in PATCH_POINTS}
        tracer = Tracer()
        cli_output(self.ARGV, tracer)
        self.assertGreater(tracer.stats["numerics.quadrature"].calls, 0)
        self.assertEqual(tracer.absent, [])
        for key, fn in before.items():
            self.assertIs(resolve(*key), fn, key)

    def test_wrappers_removed_after_exception(self) -> None:
        before = {(m, a): resolve(m, a) for m, a, _, _ in PATCH_POINTS}

        def boom() -> None:
            raise RuntimeError("boom")

        with self.assertRaises(RuntimeError):
            Tracer().run(boom)
        for key, fn in before.items():
            self.assertIs(resolve(*key), fn, key)

    def test_self_times_sum_to_root(self) -> None:
        tracer = Tracer()
        cli_output(self.ARGV, tracer)
        total = sum(s.self_s for s in tracer.stats.values())
        self.assertAlmostEqual(total, tracer.stats[ROOT_SPAN].total_s, delta=1e-9)

    def test_removed_name_is_absent_not_error(self) -> None:
        original = kfdr.engine.stepdown_count
        del kfdr.engine.stepdown_count
        try:
            tracer = Tracer()
            cli_output(self.ARGV, tracer)
        finally:
            kfdr.engine.stepdown_count = original
        self.assertEqual(tracer.absent, ["kfdr.engine.stepdown_count"])
        self.assertEqual(tracer.stats["engine.count"].calls, 0)


if __name__ == "__main__":
    run.WORK.mkdir(exist_ok=True)
    unittest.main()
