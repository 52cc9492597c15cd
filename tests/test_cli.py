import os
import re
from concurrent.futures.process import BrokenProcessPool
from itertools import islice
from pathlib import Path

import numpy as np
import pytest

from kfdr import cli, schedules, simulation
from kfdr.simulation import counterexample_bound

GOLDEN_SWEEP = Path(__file__).resolve().parents[1] / "bench/golden/sweep_seed20070523.csv"


def run(argv, capsys):
    code = cli.main([str(a) for a in argv])
    out, err = capsys.readouterr()
    return code, out, err


@pytest.fixture
def ties_csv(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("p\n0.3\n0.1\n0.3\n0.9\n0.1\n")
    return path


@pytest.mark.parametrize(
    "argv",
    [
        ["schedule", "--procedure", "gen_bh", "--n", 10, "--k", 2],
        ["schedule", "--procedure", "gen_holm", "--n", 5, "--k", 2, "--model", "equicorrelated:1"],
        ["simulate", "--n", 10, "--n0-grid", "2,10", "--iterations", 20],
        ["counterexample", "--n0", 50, "--n1", 10],
        ["simulate", "--n", 10, "--k", 2, "--n0-grid", 5, "--iterations", 20, "--mu-alt", "inf"],
        ["simulate", "--n", 10, "--k", 2, "--n0-grid", 5, "--iterations", 20, "--mu-alt=-inf"],
    ],
)
def test_subcommands_exit_zero(argv, capsys):
    assert run(argv, capsys)[0] == 0


def test_adjust_exits_zero(ties_csv, capsys):
    assert run(["adjust", ties_csv, "--procedure", "gen_hochberg", "--k", 2], capsys)[0] == 0


def test_adjust_round_trip_with_ties(ties_csv, capsys):
    # Ranks 1..5 are hypotheses 2, 5, 1, 3, 4; p_(3) = 0.3 equals its critical value.
    code, out, _ = run(["adjust", ties_csv, "--procedure", "bh", "--alpha", 0.5], capsys)
    assert code == 0
    assert out == (
        "# procedure=bh\n"
        "# k=1\n"
        "# alpha=0.5\n"
        "# direction=stepup\n"
        "index,p,critical,rejected\n"
        "1,0.3,0.3,true\n"
        "2,0.1,0.1,true\n"
        "3,0.3,0.4,true\n"
        "4,0.9,0.5,false\n"
        "5,0.1,0.2,true\n"
    )


def test_adjust_writes_output_file(ties_csv, tmp_path, capsys):
    dest = tmp_path / "out.csv"
    code, out, _ = run(["adjust", ties_csv, "--alpha", 0.5, "--output", dest], capsys)
    assert code == 0 and out == ""
    assert dest.read_text().splitlines()[-1] == "5,0.1,0.2,true"


@pytest.mark.parametrize(
    "flags", [["--procedure", "nope"], ["--procedure", "gen_bh", "--model", "t:3"]]
)
def test_failing_adjust_keeps_existing_output(flags, ties_csv, tmp_path, capsys):
    dest = tmp_path / "out.csv"
    dest.write_bytes(b"index,p,critical,rejected\n1,0.5,0.05,false\n")
    before = dest.read_bytes()
    code, _, err = run(["adjust", ties_csv, *flags, "--output", dest], capsys)
    assert code == 1 and err.startswith("error: ")
    assert dest.read_bytes() == before


@pytest.mark.parametrize("k", [0, 4])
def test_bh_rejects_invalid_k(k, capsys):
    code, out, err = run(["schedule", "--procedure", "bh", "--n", 3, "--k", k], capsys)
    assert code == 1 and out == ""
    assert f"need 1 <= k <= n, got k={k}, n=3" in err


def test_bh_runs_beside_higher_order_procedures(capsys):
    argv = ["simulate", "--n", 10, "--k", 2, "--n0-grid", "5,10", "--iterations", 20,
            "--procedures", "gen_bh,bh"]
    code, out, _ = run(argv, capsys)
    assert code == 0
    assert [line.split(",")[:2] for line in out.splitlines()[1:]] == [
        ["5", "gen_bh"], ["5", "bh"], ["10", "gen_bh"], ["10", "bh"]
    ]


def test_counterexample_csv(capsys):
    code, out, _ = run(["counterexample", "--n0", 50, "--n1", 10, "--alpha", 0.05], capsys)
    alpha_crit, bound = counterexample_bound(50, 10, 0.05)
    assert code == 0
    assert out == f"alpha_crit,bound\n{alpha_crit!r},{bound!r}\n"
    assert bound == pytest.approx(0.107, abs=5e-4)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["schedule", "--procedure", "fisher", "--n", 5], "unknown procedure"),
        (["schedule", "--procedure", "gen_bh", "--n", 5, "--model", "t:3"], "--model must be"),
        (["schedule", "--procedure", "gen_bh", "--n", 5, "--model", "equicorrelated:x"],
         "bad correlation"),
        (["schedule", "--procedure", "gen_bh", "--n", 5, "--model", "equicorrelated:1.5"],
         r"\[0, 1\]"),
        (["simulate", "--n", 10, "--n0-grid", "10", "--rho", 1.5], r"\[0, 1\]"),
        (["counterexample", "--n0", 1, "--n1", 0], "n0 >= 2"),
        (["schedule", "--procedure", "gen_bh", "--n", 5, "--model", "equicorrelated:nan"],
         r"\[0, 1\], got nan"),
        (["simulate", "--n", 10, "--k", 2, "--n0-grid", 1], r"got n0=1\b"),
        (["simulate", "--n", 10, "--n0-grid", 11], r"got n0=11\b"),
        (["simulate", "--n", 10, "--k", 2, "--n0-grid", 5, "--iterations", 20, "--mu-alt", "nan"],
         "mu_alt must be a number, got nan"),
        (["schedule", "--procedure", "rescaled_const:abc", "--n", 5],
         "procedure 'rescaled_const:abc': .* got 'abc'"),
        (["simulate", "--n", 10, "--n0-grid", 10, "--procedures", "gen_bh,rescaled_const:abc"],
         "procedure 'rescaled_const:abc': .* got 'abc'"),
        (["schedule", "--procedure", "rescaled_const:2", "--n", 5],
         r"procedure 'rescaled_const:2': .* in \[0, 1\], got '2'"),
        (["schedule", "--procedure", "rescaled_hochberg", "--n", 1035, "--k", 488],
         "rescaling weight overflows double precision"),
        (["schedule", "--procedure", "rescaled_const:0.01", "--n", 1035, "--k", 488],
         "rescaling weight overflows double precision"),
        (["simulate", "--n", 1035, "--k", 488, "--n0-grid", 1035, "--iterations", 2,
          "--procedures", "rescaled_hochberg"], "rescaling weight overflows double precision"),
        # alpha * F_k(b_i) underflows to 0 (1e-300) or to a subnormal (1e-160).
        (["schedule", "--procedure", "rescaled_hochberg", "--n", 4, "--k", 2, "--alpha", 1e-300],
         "F-target underflows double precision"),
        (["schedule", "--procedure", "rescaled_hochberg", "--n", 4, "--k", 2, "--alpha", 1e-300,
          "--model", "equicorrelated:0.5"], "F-target underflows double precision"),
        (["schedule", "--procedure", "rescaled_hochberg", "--n", 4, "--k", 2, "--alpha", 1e-160],
         "F-target underflows double precision"),
        (["schedule", "--procedure", "rescaled_hochberg", "--n", 4, "--k", 2, "--alpha", 1e-160,
          "--model", "equicorrelated:0.5"], "F-target underflows double precision"),
        # alpha * F_k(b_i) is normal but the division by D' ~ 1e306 gives 0.
        (["schedule", "--procedure", "rescaled_const:0.5", "--n", 1030, "--k", 480,
          "--alpha", 1e-20], "F-target underflows double precision"),
        # An unknown name is reported before the model is read.
        (["schedule", "--procedure", "nope", "--n", 3, "--model", "bogus"],
         "unknown procedure 'nope'"),
        (["schedule", "--procedure", "nope", "--n", 3, "--model", "empirical:/no/such/file"],
         "unknown procedure 'nope'"),
        (["simulate", "--n", 10, "--n0-grid", 10, "--rho", 0.5, "--procedures", "gen_bh,nope"],
         "unknown procedure 'nope'"),
    ],
)
def test_validation_errors_exit_one(argv, message, capsys):
    code, _, err = run(argv, capsys)
    assert code == 1
    assert err.startswith("error: ")
    assert re.search(message, err)


@pytest.mark.parametrize("sub", ["adjust", "schedule", "simulate"])
def test_unopenable_output_exits_one(sub, ties_csv, tmp_path, capsys):
    argv = {
        "adjust": ["adjust", ties_csv],
        "schedule": ["schedule", "--n", 5],
        "simulate": ["simulate", "--n", 10, "--n0-grid", 5, "--iterations", 3],
    }[sub]
    dest = tmp_path / "missing" / "out.csv"
    code, out, err = run([*argv, "--output", dest], capsys)
    assert code == 1 and out == ""
    assert err.startswith(f"error: cannot write {str(dest)!r}: ")


@pytest.mark.parametrize("parent", ["missing", "file"])
def test_simulate_checks_output_directory_before_the_sweep(parent, monkeypatch, tmp_path, capsys):
    def no_sweep(*args):
        raise AssertionError("figure_sweep ran before --output was checked")

    monkeypatch.setattr(cli, "figure_sweep", no_sweep)
    (tmp_path / "file").write_text("not a directory\n")
    dest = tmp_path / parent / "out.csv"
    argv = ["simulate", "--n", 10, "--n0-grid", 5, "--iterations", 3, "--output", dest]
    code, out, err = run(argv, capsys)
    assert code == 1 and out == ""
    assert err.startswith(f"error: cannot write {str(dest)!r}: ")
    assert not dest.exists()


@pytest.mark.parametrize(
    "flags", [["--procedures", "gen_bh,nope"], ["--n0-grid", 11], ["--rho", 2]]
)
def test_failing_simulate_keeps_existing_output(flags, tmp_path, capsys):
    dest = tmp_path / "out.csv"
    dest.write_bytes(b"n0,procedure\n5,gen_bh\n")
    before = dest.read_bytes()
    argv = ["simulate", "--n", 10, "--n0-grid", 5, "--iterations", 3, *flags, "--output", dest]
    code, _, err = run(argv, capsys)
    assert code == 1 and err.startswith("error: ")
    assert dest.read_bytes() == before


@pytest.mark.parametrize("flags", [[], ["--force-nonnull-zero"]])
def test_sweep_rows_are_the_single_point_rows_in_grid_order(flags, capsys):
    argv = ["simulate", "--n", 12, "--k", 3, "--rho", 0.5, "--iterations", 61,
            "--procedures", "gen_bh,gen_holm,bh", *flags]

    def data_rows(grid):
        code, out, _ = run([*argv, "--n0-grid", grid], capsys)
        assert code == 0
        return _data_rows(out)[1:]

    singles = [row for n0 in ("3", "12", "7") for row in data_rows(n0)]
    assert len(singles) == 9
    assert data_rows("3,12,7") == singles


def test_force_nonnull_zero_is_mu_alt_inf(tmp_path, capsys):
    argv = ["simulate", "--n", 12, "--k", 2, "--rho", 0.5, "--n0-grid", "3,12",
            "--iterations", 50, "--procedures", "gen_bh,gen_simes"]
    outputs = {}
    for name, flags in [
        ("inf", ["--mu-alt", "inf"]),
        ("force", ["--force-nonnull-zero"]),
        ("force-over-3", ["--force-nonnull-zero", "--mu-alt", 3]),
        ("3", ["--mu-alt", 3]),
    ]:
        dest = tmp_path / f"{name}.csv"
        assert run([*argv, *flags, "--output", dest], capsys)[0] == 0
        outputs[name] = dest.read_bytes()
    assert outputs["force"] == outputs["inf"]
    assert outputs["force-over-3"] == outputs["inf"] != outputs["3"]
    code, out, _ = run(["simulate", "--help"], capsys)
    assert code == 0
    assert "--force-nonnull-zero same as --mu-alt inf:" in " ".join(out.split())


@pytest.mark.parametrize(
    "body, message",
    [
        ("p\n0.1\n1.5\n", "outside [0, 1] on row 3"),
        ("p\n0.1\nabc\n", "malformed"),
        # splitlines breaks at the form feed, so 'p' is on row 2, not a header.
        ("\x0cp\n0.5\n", "malformed p-value on row 2: 'p'"),
    ],
)
def test_bad_pvalue_rows_exit_one(body, message, tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text(body)
    code, out, err = run(["adjust", path], capsys)
    assert code == 1 and out == ""
    assert message in err


PARSE_INPUTS = {
    "crlf": b"p\r\n0.1\r\n0.25\r\n",
    "lone-cr": b"p\r0.1\r0.25\r",
    "no-trailing-newline": b"p\n0.1\n0.25",
    "blank-lines": b"p\n0.1\n\n  \n0.25\n\n",
    "blank-first-line": b"\n0.1\n0.25\n",
    "comment-top": b"# made by hand\n0.1\n0.25\n",
    "comment-top-then-header": b"# made by hand\np\n0.1\n",
    "comment-middle": b"p\n0.1\n# middle\n0.25\n",
    "header-p": b"p\n0.5\n",
    "header-spaced-P": b" P \n0.5\n",
    "header-after-form-feed": b"\x0cp\n0.5\n",
    "header-on-line-2": b"0.5\np\n",
    "form-feed-ends": b"p\n\x0c0.5\x0c\n0.25\n",
    "form-feed-inside": b"p\n0.\x0c5\n",
    "file-separator-ends": b"p\n\x1c0.5\x1c\n0.25\n",
    "file-separator-inside": b"p\n0.\x1c5\n",
    "unit-separator-ends": b"p\n\x1f0.5\x1f\n",
    "space-ends": b"p\n 0.5 \n\t0.25\t\n",
    "space-inside": b"p\n0. 5\n",
    "bom-header": "\ufeffp\n0.5\n".encode(),
    "bom-value": "\ufeff0.5\n0.25\n".encode(),
    "underscore-in-range": b"p\n0.2_5\n",
    "underscore-out-of-range": b"p\n1_0\n",
    "nan": b"p\n0.5\nnan\n",
    "inf": b"p\ninf\n",
    "negative-zero": b"p\n-0.0\n0.5\n",
    "smallest-subnormal": b"p\n5e-324\n1\n",
    "empty": b"",
    "header-only": b"p\n",
    "header-only-no-newline": b"p",
}


def _parse_outcome(parse):
    try:
        values = parse()
    except ValueError as exc:
        return str(exc)
    assert values.dtype == np.float64 and values.ndim == 1
    return values.tobytes()


@pytest.mark.parametrize("body", PARSE_INPUTS.values(), ids=PARSE_INPUTS.keys())
def test_read_pvalues_equals_the_row_loop(body, tmp_path):
    path = tmp_path / "p.csv"
    path.write_bytes(body)
    with open(path, newline="") as fh:
        lines = fh.read().splitlines()
    expected = _parse_outcome(lambda: cli._parse_rows(str(path), lines))
    assert _parse_outcome(lambda: cli._read_pvalues(str(path))) == expected


@pytest.mark.parametrize("flags", [["--procedure", "gen_bh", "--k", 2], ["--procedure", "bh"]])
def test_adjust_fast_path_and_row_loop_print_the_same_rows(flags, monkeypatch, tmp_path, capsys):
    rows = ["0.3", "0.1", "0.3", "0.9", "0.1", "1e-05", "0.02", "1e-05", "0.3", "0.02"]
    plain = tmp_path / "plain.csv"
    plain.write_text("\n".join(["p", *rows]) + "\n")
    commented = tmp_path / "commented.csv"
    commented.write_text("\n".join(["p", *rows[:4], "# forces the row loop", *rows[4:]]) + "\n")
    loop_calls = []
    row_loop = cli._parse_rows
    monkeypatch.setattr(cli, "_parse_rows", lambda *a: loop_calls.append(a) or row_loop(*a))
    fast = run(["adjust", plain, *flags, "--alpha", 0.5], capsys)
    assert loop_calls == []
    slow = run(["adjust", commented, *flags, "--alpha", 0.5], capsys)
    assert len(loop_calls) == 1
    assert fast == slow and fast[0] == 0
    assert fast[1].count("true") > 0 and fast[1].count("false") > 0


@pytest.mark.parametrize(
    "body, flags",
    [
        ("p\n", ["--procedure", "gen_bh", "--k", 2]),
        ("p\n", ["--procedure", "nope"]),
        ("p\n", ["--k", 0]),
        ("p\n", ["--alpha", 5]),
        ("p\n", ["--procedure", "gen_bh", "--model", "bogus"]),
        ("# only a comment\n\n", []),
        ("", []),
    ],
    ids=["header-only", "unknown-procedure", "k-zero", "alpha-five", "bad-model",
         "comment-only", "empty"],
)
def test_adjust_without_pvalues_exits_one(body, flags, tmp_path, capsys):
    path = tmp_path / "empty.csv"
    path.write_text(body)
    assert run(["adjust", path, *flags], capsys) == (1, "", f"error: {path}: no p-values\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["adjust", "INPUT", "--procedure", "gen_bh", "--k", 2, "--alpha", 0.5],
        ["schedule", "--procedure", "gen_bh", "--n", 7, "--k", 2],
        ["schedule", "--procedure", "lehmann_romano", "--n", 7, "--k", 2],
    ],
    ids=["adjust", "schedule-targets", "schedule-no-targets"],
)
def test_block_size_does_not_change_the_output(argv, monkeypatch, tmp_path, capsys):
    # Seven rows at three per block: two full blocks and a partial one.
    path = tmp_path / "p.csv"
    path.write_text("p\n0.3\n0.1\n0.02\n0.9\n1e-05\n0.3\n0.04\n")
    argv = [path if a == "INPUT" else a for a in argv]
    whole = run(argv, capsys)
    monkeypatch.setattr(cli, "_LINES_PER_WRITE", 3)
    blocks = run(argv, capsys)
    assert blocks == whole and whole[0] == 0
    assert len(whole[1].splitlines()) == 7 + whole[1].count("#") + 1


@pytest.mark.parametrize(
    "body, message",
    [("x,fk\n0,0\n0.5,nan\n1,1\n", "finite"), ("x,fk\n0,0\n0.5,abc\n1,1\n", "malformed row 3")],
)
def test_bad_empirical_model_exits_one(body, message, tmp_path, capsys):
    path = tmp_path / "fk.csv"
    path.write_text(body)
    argv = ["schedule", "--procedure", "gen_bh", "--n", 4, "--k", 2, "--model", f"empirical:{path}"]
    code, out, err = run(argv, capsys)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and message in err


def test_runtime_failure_exits_two(monkeypatch, capsys):
    def boom(n, k, alpha, model):
        raise RuntimeError("quadrature diverged")

    monkeypatch.setitem(schedules.PROCEDURES, "bh", schedules.Procedure(boom, False))
    code, _, err = run(["schedule", "--procedure", "bh", "--n", 5], capsys)
    assert code == 2
    assert err == "failure: quadrature diverged\n"


@pytest.mark.parametrize("sub", ["adjust", "schedule", "simulate"])
def test_help_lists_registry(sub, capsys):
    code, out, _ = run([sub, "--help"], capsys)
    assert code == 0
    assert ", ".join(schedules.PROCEDURES) in " ".join(out.split())


def test_sweep_matches_golden(tmp_path, capsys):
    dest = tmp_path / "sweep.csv"
    argv = [
        "simulate", "--n", 100, "--k", 2, "--rho", 0.5, "--n0-grid", "20:100:20",
        "--iterations", 5000, "--procedures", "gen_bh,gen_holm,bh", "--seed", 20070523,
        "--output", dest,
    ]
    assert run(argv, capsys)[0] == 0
    assert _data_rows(dest.read_text()) == _data_rows(GOLDEN_SWEEP.read_text())


def _data_rows(text):
    return [line for line in text.splitlines() if not line.startswith("#")]


def test_repeated_procedure_is_built_and_scored_once(monkeypatch, tmp_path, capsys):
    argv = ["simulate", "--n", 12, "--k", 2, "--rho", 0.5, "--n0-grid", "3,12",
            "--iterations", 61]
    once, repeated = tmp_path / "once.csv", tmp_path / "repeated.csv"
    assert run([*argv, "--procedures", "gen_bh,bh", "--output", once], capsys)[0] == 0
    built = []
    make = simulation.make_schedule
    monkeypatch.setattr(simulation, "make_schedule", lambda name, **kw: built.append(name)
                        or make(name, **kw))
    assert run([*argv, "--procedures", "gen_bh,bh,gen_bh", "--output", repeated], capsys)[0] == 0
    assert built == ["gen_bh", "bh"]
    head, *rows = once.read_bytes().splitlines(keepends=True)
    # Per n0: the gen_bh row, the bh row, then the gen_bh row again.
    expected = [head, *(row for n0 in (rows[0:2], rows[2:4]) for row in (*n0, n0[0]))]
    assert repeated.read_bytes() == b"".join(expected)


def _use_cpus(monkeypatch, cpus):
    """Make ``_split_map`` see ``cpus`` usable CPUs and record its forks:
    a pool forks one worker per usable CPU, and none on one CPU."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    return forks


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("sub", ["adjust", "schedule"])
def test_output_is_the_same_on_one_cpu_and_on_two(sub, monkeypatch, tmp_path, capsys):
    path = tmp_path / "p.csv"
    p = np.random.default_rng(5).random(3 * cli._LINES_PER_WRITE + 1)
    path.write_text("p\n" + "\n".join(map(repr, p.tolist())) + "\n")
    argv = {
        "adjust": ["adjust", path, "--procedure", "gen_bh", "--k", 2, "--alpha", 0.5],
        "schedule": ["schedule", "--procedure", "gen_bh", "--n", 200001, "--k", 2],
    }[sub]
    outputs = []
    for cpus in (1, 2):
        forks = _use_cpus(monkeypatch, cpus)
        outputs.append(run(argv, capsys))
        assert len(forks) == {"adjust": 2, "schedule": 1}[sub] * (cpus if cpus > 1 else 0)
        _assert_no_child_left()
    assert outputs[0] == outputs[1] and outputs[0][0] == 0
    assert outputs[0][1].count("\n") > 3 * cli._LINES_PER_WRITE


def _rows(*rows, sep="\n"):
    return (sep.join(rows) + sep).encode()


# Fourteen rows cut two lines a chunk: the parent parses the first chunks,
# a child the later ones, where each change sits.
_VALUES = [f"0.{i:02d}" for i in range(1, 14)]
CHUNKED_INPUTS = {
    "crlf-header": _rows("p", *_VALUES, sep="\r\n"),
    "crlf-at-cuts": b"p\n0.1\r\n0.2\n0.3\r\n" + _rows(*_VALUES, sep="\r\n"),
    "lone-cr-late": _rows("p", *_VALUES[:9]) + b"0.5\r0.25\r0.75\n",
    "form-feed-late": _rows("p", *_VALUES[:10], "\x0c0.5\x0c", "0.1\x0c0.2"),
    "header-late": _rows("p", *_VALUES[:10], "p", *_VALUES[10:]),
    "comment-late": _rows("p", *_VALUES[:10], "# late", *_VALUES[10:]),
    "blank-late": _rows("p", *_VALUES[:10], "", "  ", *_VALUES[10:]),
    "bad-row-in-parent-share": _rows("p", "0.1", "abc", *_VALUES),
    "bad-row-in-child-share": _rows("p", *_VALUES[:10], "abc", *_VALUES[10:]),
    "out-of-range-in-child-share": _rows("p", *_VALUES[:11], "1.5", *_VALUES[11:]),
}
CHUNKED_ERRORS = {
    "header-late": "malformed p-value on row 12: 'p'",
    "bad-row-in-parent-share": "malformed p-value on row 3: 'abc'",
    "bad-row-in-child-share": "malformed p-value on row 12: 'abc'",
    "out-of-range-in-child-share": "p-value outside [0, 1] on row 13: 1.5",
}


@pytest.mark.parametrize(
    "body", [*PARSE_INPUTS.values(), *CHUNKED_INPUTS.values()],
    ids=[*PARSE_INPUTS.keys(), *CHUNKED_INPUTS.keys()],
)
def test_read_pvalues_in_forked_chunks_equals_the_row_loop(body, monkeypatch, tmp_path):
    path = tmp_path / "p.csv"
    path.write_bytes(body)
    with open(path, newline="") as fh:
        text = fh.read()
    expected = _parse_outcome(lambda: cli._parse_rows(str(path), text.splitlines()))
    monkeypatch.setattr(cli, "_LINES_PER_WRITE", 2)
    chunks = cli._line_chunks(text)
    assert "".join(text[a:b] for a, b in chunks) == text
    assert [line for a, b in chunks for line in text[a:b].splitlines()] == text.splitlines()
    forks = _use_cpus(monkeypatch, 2)
    assert _parse_outcome(lambda: cli._read_pvalues(str(path))) == expected
    assert len(forks) == (2 if len(chunks) > 1 else 0)
    _assert_no_child_left()


@pytest.mark.parametrize("name", CHUNKED_ERRORS)
def test_forked_parse_keeps_the_message_and_row(name, monkeypatch, tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_bytes(CHUNKED_INPUTS[name])
    monkeypatch.setattr(cli, "_LINES_PER_WRITE", 2)
    forks = _use_cpus(monkeypatch, 2)
    assert run(["adjust", path], capsys) == (1, "", f"error: {path}: {CHUNKED_ERRORS[name]}\n")
    assert forks == [1, 1]
    _assert_no_child_left()


def _fails_on(bad):
    def fn(x):
        if x == bad:
            raise KeyError(f"item {x}")
        return x * x
    return fn


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_split_map_is_map_in_order(cpus, monkeypatch):
    forks = _use_cpus(monkeypatch, cpus)
    assert list(cli._split_map(_fails_on(None), range(10))) == [x * x for x in range(10)]
    assert list(cli._split_map(_fails_on(None), [4])) == [16]
    assert len(forks) == (cpus if cpus > 1 else 0)
    for bad in (1, 8):
        results = cli._split_map(_fails_on(bad), range(10))
        assert list(islice(results, bad)) == [x * x for x in range(bad)]
        with pytest.raises(KeyError, match=f"item {bad}"):
            next(results)
    if cpus > 1:
        with pytest.raises(BrokenProcessPool):
            list(cli._split_map(lambda x: os._exit(3) if x == 9 else x, range(10)))
    _assert_no_child_left()


@pytest.mark.parametrize("missing", ["fork", "sched_getaffinity"])
def test_split_map_is_plain_map_without_fork_or_affinity(missing, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.delattr(os, missing)
    assert cli._usable_cpus() == 1
    assert list(cli._split_map(_fails_on(None), range(4))) == [0, 1, 4, 9]


def test_split_map_kills_children_when_the_writer_fails(monkeypatch):
    class BrokenPipeOut:
        def write(self, text):
            pass

        def writelines(self, lines):
            next(iter(lines))
            raise BrokenPipeError("reader went away")

    monkeypatch.setattr(cli, "_LINES_PER_WRITE", 2)
    forks = _use_cpus(monkeypatch, 2)
    with pytest.raises(BrokenPipeError):
        cli._write_table(BrokenPipeOut(), [], "{}\n".format, np.arange(9.0))
    assert forks == [1, 1]
    _assert_no_child_left()


@pytest.mark.parametrize("cpus", [2, 3])
def test_closing_split_map_early_leaves_no_work_running(cpus, monkeypatch, tmp_path):
    started = tmp_path / "started"
    fd = os.open(started, os.O_WRONLY | os.O_CREAT | os.O_APPEND)

    def fn(x):
        os.write(fd, b"%d\n" % x)
        return x

    _use_cpus(monkeypatch, cpus)
    results = cli._split_map(fn, range(100))
    try:
        assert next(results) == 0
        results.close()
    finally:
        os.close(fd)
    items = [int(line) for line in started.read_bytes().splitlines()]
    # The first item, and of the rest only those submitted with it.
    assert 0 in items and set(items) <= set(range(cpus + 1)) and len(items) <= cpus + 1
    _assert_no_child_left()


@pytest.mark.parametrize("name", ["crlf-header", "bad-row-in-child-share"])
def test_a_dead_parse_worker_falls_back_to_the_row_loop(name, monkeypatch, tmp_path):
    path = tmp_path / "p.csv"
    path.write_bytes(CHUNKED_INPUTS[name])
    with open(path, newline="") as fh:
        expected = _parse_outcome(lambda: cli._parse_rows(str(path), fh.read().splitlines()))
    monkeypatch.setattr(cli, "_LINES_PER_WRITE", 2)
    # Only the chunk parse calls islice; every worker that runs it dies.
    parent = os.getpid()
    monkeypatch.setattr(
        cli, "islice", lambda *a: islice(*a) if os.getpid() == parent else os._exit(3)
    )
    forks = _use_cpus(monkeypatch, 2)
    assert _parse_outcome(lambda: cli._read_pvalues(str(path))) == expected
    assert forks == [1, 1]
    _assert_no_child_left()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["adjust", "INPUT"], "cannot read {!r}: "),
        (["schedule", "--procedure", "gen_bh", "--n", 4, "--k", 2, "--model", "empirical:INPUT"],
         "cannot read empirical model {!r}: "),
    ],
    ids=["adjust", "empirical-model"],
)
def test_a_file_that_is_not_utf8_names_the_file(argv, message, tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_bytes(b"\xff\n")
    argv = [str(a).replace("INPUT", str(path)) for a in argv]
    code, out, err = run(argv, capsys)
    assert (code, out) == (1, "")
    assert err.startswith("error: " + message.format(str(path))) and "decode" in err


@pytest.mark.parametrize("name", [*schedules.PROCEDURES, "rescaled_const:0.5"])
def test_procedure_line_is_the_name_given(name, tmp_path, capsys):
    path = tmp_path / "p.csv"
    path.write_text("p\n0.01\n0.2\n0.5\n0.04\n0.9\n")
    for argv in (["schedule", "--n", 5], ["adjust", path]):
        code, out, _ = run([*argv, "--procedure", name, "--k", 2], capsys)
        assert code == 0
        assert out.splitlines()[0] == f"# procedure={name}"
