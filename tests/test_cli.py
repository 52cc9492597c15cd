import hashlib
import os
import re
import subprocess
import sys
import tracemalloc
from concurrent.futures.process import BrokenProcessPool
from itertools import islice
from pathlib import Path

import numpy as np
import pytest

from kfdr import cli, engine, schedules
from kfdr.fk_models import independent_fk
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


def test_adjust_output_may_name_its_input(monkeypatch, tmp_path, capsys):
    # Several pieces: the input is read to its end before the output opens.
    monkeypatch.setattr(cli, "_LINES_PER_WRITE", 2)
    path = tmp_path / "p.csv"
    path.write_text("p\n0.3\n0.1\n0.02\n0.9\n1e-05\n0.3\n0.04\n")
    argv = ["adjust", path, "--procedure", "gen_bh", "--k", 2, "--alpha", 0.5]
    code, expected, _ = run(argv, capsys)
    assert code == 0 and expected.count("\n") > 7
    assert run([*argv, "--output", path], capsys) == (0, "", "")
    assert path.read_text() == expected


def test_adjust_peak_memory_per_row(monkeypatch, tmp_path):
    # tracemalloc counts numpy's buffers as well as Python's objects, and
    # not what the C allocator keeps, so the bound holds on any allocator.
    # A # row after the header sends the parse down the row loop.
    rows = 2**18
    path = tmp_path / "p.csv"
    p = np.random.default_rng(11).random(rows).tolist()
    body = "\n".join(map(repr, p)) + "\n"
    del p
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)
    argv = ["adjust", str(path), "--procedure", "gen_bh", "--k", "2",
            "--output", str(tmp_path / "out.csv")]
    for head in ("p\n", "p\n# a comment row\n"):
        path.write_text(head + body)
        tracemalloc.start()
        try:
            code = cli.main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        # The write of values, alphas and ranks with one rendered block sets
        # the peak: 31.0 B/row.
        assert peak / rows <= 34, head


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


@pytest.mark.parametrize(
    "k, message",
    # k = 0 is no order for the model, which is read for bh too.
    [(0, "order k must be >= 1, got 0"), (4, "need 1 <= k <= n, got k=4, n=3")],
    ids=["0", "4"],
)
def test_bh_rejects_invalid_k(k, message, capsys):
    code, out, err = run(["schedule", "--procedure", "bh", "--n", 3, "--k", k], capsys)
    assert code == 1 and out == ""
    assert message in err


@pytest.mark.parametrize(
    "spec, message",
    [("bogus", "--model must be"), ("equicorrelated:7", r"\[0, 1\]"),
     ("empirical:/no/such/file", "cannot read empirical model")],
)
@pytest.mark.parametrize("name", schedules.PROCEDURES)
@pytest.mark.parametrize("sub", ["schedule", "adjust"])
def test_a_bad_model_exits_one_for_every_procedure(sub, name, spec, message, ties_csv, capsys):
    where = ["--n", 5] if sub == "schedule" else [ties_csv]
    argv = [sub, *where, "--procedure", name, "--k", 2, "--model", spec]
    code, out, err = run(argv, capsys)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and re.search(message, err)


@pytest.mark.parametrize("spec", ["independent", "equicorrelated:0.5"])
@pytest.mark.parametrize("name", schedules.PROCEDURES)
def test_the_model_line_marks_a_schedule_with_f_targets(name, spec, capsys):
    code, out, _ = run(["schedule", "--procedure", name, "--n", 50, "--k", 2, "--model", spec],
                       capsys)
    assert code == 0
    lines = out.splitlines()
    rows = lines[lines.index("index,f_target,alpha") + 1 :]
    filled = {row.split(",")[1] != "" for row in rows}
    assert len(rows) == 50 and len(filled) == 1
    assert (f"# model={spec}" in lines) == filled.pop()
    assert sum(line.startswith("# model=") for line in lines) <= 1


def _table(out):
    lines = [line for line in out.splitlines() if not line.startswith("#")]
    return [line.split(",") for line in lines[1:]]


@pytest.mark.parametrize("k, rho", [(1, "0.3"), (1, "0.9"), (1, "0"), (2, "0"), (3, "0"), (5, "0")])
@pytest.mark.parametrize("sub", ["schedule", "adjust"])
def test_exact_equicorrelated_cases_print_the_independent_rows(sub, k, rho, tmp_path, capsys):
    # F_1 is the uniform marginal at every rho, and F_k is x^k at rho = 0:
    # only the '# model=' line tells the two calls apart.
    path = tmp_path / "p.csv"
    for n in (5, 33, 40, 200):
        path.write_text("p\n" + "\n".join(map(repr, np.geomspace(1e-6, 0.9, n).tolist())) + "\n")
        size = [path] if sub == "adjust" else ["--n", n]
        for name in schedules.PROCEDURES:
            outputs = []
            for spec in ("independent", f"equicorrelated:{rho}"):
                argv = [sub, *size, "--procedure", name, "--k", k, "--model", spec]
                code, out, err = run(argv, capsys)
                outputs.append((code, re.sub("^# model=.*$", "# model=", out, flags=re.M), err))
            assert outputs[0] == outputs[1] and outputs[0][0] == 0, (name, n)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_perfectly_correlated_schedules_are_their_targets(k, capsys):
    # At rho = 1, F_k(x) = x: every alpha is its F-target and none exceeds --alpha.
    marginal = set()
    for name in schedules.PROCEDURES:
        argv = ["schedule", "--procedure", name, "--n", 40, "--k", k, "--alpha", 0.05,
                "--model", "equicorrelated:1"]
        code, out, _ = run(argv, capsys)
        assert code == 0
        rows = _table(out)
        assert len(rows) == 40
        if rows[0][1] == "":
            marginal.add(name)
            continue
        assert all(alpha == target for _, target, alpha in rows), name
        assert max(float(alpha) for _, _, alpha in rows) <= 0.05, name
    assert marginal == {"bh", "lehmann_romano"}


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
        # rescaled_const takes no constant.
        (["schedule", "--procedure", "rescaled_const:abc", "--n", 5],
         "unknown procedure 'rescaled_const:abc'"),
        (["simulate", "--n", 10, "--n0-grid", 10, "--procedures", "gen_bh,rescaled_const:abc"],
         "unknown procedure 'rescaled_const:abc'"),
        (["schedule", "--procedure", "rescaled_const:0.5", "--n", 5],
         "unknown procedure 'rescaled_const:0.5'"),
        (["schedule", "--procedure", "rescaled_hochberg", "--n", 1035, "--k", 488],
         "rescaling weight overflows double precision"),
        # The weights C(i, k) overflow under every model.
        (["schedule", "--procedure", "rescaled_hochberg", "--n", 1035, "--k", 488,
          "--model", "equicorrelated:1"], "rescaling weight overflows double precision"),
        (["simulate", "--n", 1035, "--k", 488, "--n0-grid", 1035, "--iterations", 2,
          "--procedures", "rescaled_hochberg"], "rescaling weight overflows double precision"),
        # alpha / C(1035, 488) is subnormal.
        (["schedule", "--procedure", "rescaled_const", "--n", 1035, "--k", 488],
         "F-target underflows double precision"),
        # alpha / C(1000, 100) rounds to 0 on the per-row path.
        *(
            (["schedule", "--procedure", name, "--n", 1000, "--k", 100, "--alpha", 1e-300],
             "F-target underflows double precision")
            for name in ("gen_holm", "gen_hochberg", "gen_simes")
        ),
        # alpha / C(1030, 480), with C(1030, 480) ~ 2.6e307, is 0.
        (["schedule", "--procedure", "rescaled_const", "--n", 1030, "--k", 480,
          "--alpha", 1e-20], "F-target underflows double precision"),
        # An unknown name is reported before the model is read.
        (["schedule", "--procedure", "nope", "--n", 3, "--model", "bogus"],
         "unknown procedure 'nope'"),
        (["schedule", "--procedure", "nope", "--n", 3, "--model", "empirical:/no/such/file"],
         "unknown procedure 'nope'"),
        (["simulate", "--n", 10, "--n0-grid", 10, "--rho", 0.5, "--procedures", "gen_bh,nope"],
         "unknown procedure 'nope'"),
        # alpha / C(1030, 480) is subnormal.
        (["schedule", "--procedure", "rescaled_const", "--n", 1030, "--k", 480],
         "F-target underflows double precision"),
        # A subnormal alpha would print critical values of 0.0.
        *(
            (["schedule", "--procedure", name, "--n", 5, "--k", 2, "--alpha", 5e-324],
             "alpha must be a normal double, got 5e-324")
            for name in ("gen_bh", "gen_by", "gen_holm", "gen_simes", "gen_hochberg", "bh",
                         "lehmann_romano")
        ),
        # A normal alpha times a tiny ratio rounds to 0: the targets would be 0.0.
        (["schedule", "--procedure", "gen_bh", "--n", 1000, "--k", 100, "--alpha", 1e-300],
         "F-target underflows double precision"),
        (["schedule", "--procedure", "gen_by", "--n", 1000, "--k", 100, "--alpha", 1e-300],
         "F-target underflows double precision"),
        (["simulate", "--n", 10, "--n0-grid", 5, "--iterations", 2, "--alpha", 5e-324],
         "alpha must be a normal double"),
        # The closed-form target fails before any model is evaluated.
        (["schedule", "--procedure", "rescaled_const", "--n", 1030, "--k", 480,
          "--model", "equicorrelated:0.5"],
         r"^error: an F-target underflows double precision: alpha / C\(n, k\) is too small"),
    ],
)
def test_validation_errors_exit_one(argv, message, capsys):
    code, _, err = run(argv, capsys)
    assert code == 1
    assert err.startswith("error: ")
    assert re.search(message, err)


def test_an_empty_procedure_list_exits_one_with_the_config_message(capsys):
    code, out, err = run(["simulate", "--n", 5, "--n0-grid", 5, "--procedures", ","], capsys)
    assert (code, out) == (1, "")
    assert err == "error: at least one procedure is required\n"


@pytest.mark.parametrize("n, k", [(1075, 1075), (40, 3)])
def test_rescaled_const_prints_gen_holms_first_row_on_every_row(n, k, capsys):
    # alpha / C(n, k) is normal even where F_k at a constant base is not.
    rows = {}
    for name in ("rescaled_const", "gen_holm"):
        code, out, _ = run(["schedule", "--procedure", name, "--n", n, "--k", k], capsys)
        assert code == 0
        rows[name] = [row[1:] for row in _table(out)]
    assert rows["rescaled_const"] == [rows["gen_holm"][0]] * n


@pytest.mark.parametrize("alpha", [1e-300, 1e-160])
@pytest.mark.parametrize("model", ["independent", "equicorrelated:0.5"])
def test_rescaled_targets_at_a_tiny_alpha_are_normal(alpha, model, capsys):
    # F_k(b_i) / D' is formed first, so no alpha * F_k(b_i) can underflow.
    argv = ["schedule", "--procedure", "rescaled_hochberg", "--n", 4, "--k", 2,
            "--alpha", alpha, "--model", model]
    code, out, _ = run(argv, capsys)
    assert code == 0
    f_targets = [float(line.split(",")[1]) for line in _data_rows(out)[1:]]
    assert len(f_targets) == 4
    assert all(sys.float_info.min <= f <= alpha for f in f_targets), f_targets


def test_bh_rejects_no_p_value_above_alpha(tmp_path, capsys):
    path = tmp_path / "p.csv"
    path.write_text("p\n0.01\n0.02\n0.05000000000000001\n")
    code, out, _ = run(["adjust", path, "--procedure", "bh"], capsys)
    assert code == 0
    assert _data_rows(out)[1:] == [
        "1,0.01,0.016666666666666666,true",
        "2,0.02,0.03333333333333333,true",
        "3,0.05000000000000001,0.05,false",
    ]


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


@pytest.mark.parametrize("flags", [[], ["--mu-alt", "inf"]])
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


def _text(path):
    """The text ``_read_pvalues`` reads: UTF-8 less one leading BOM."""
    with open(path, encoding="utf-8-sig", newline="") as fh:
        return fh.read()


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
    lines = _text(path).splitlines()
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
    slow = run(["adjust", commented, *flags, "--alpha", 0.5], capsys)
    assert loop_calls == []
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

    monkeypatch.setitem(schedules.PROCEDURES, "bh", boom)
    code, _, err = run(["schedule", "--procedure", "bh", "--n", 5], capsys)
    assert code == 2
    assert err == "failure: quadrature diverged\n"


@pytest.mark.parametrize("sub", ["adjust", "schedule", "simulate"])
def test_help_lists_registry(sub, capsys):
    code, out, _ = run([sub, "--help"], capsys)
    assert code == 0
    assert ", ".join(schedules.PROCEDURES) in " ".join(out.split())


def test_help_does_not_import_the_renderer():
    # render builds its tables at import, which a call printing no table
    # should not pay; a fresh interpreter, since this one has imported it.
    code = ("import sys, contextlib, io, kfdr.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert kfdr.cli.main(['adjust', '--help']) == 0\n"
            "assert 'kfdr.render' not in sys.modules\n")
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["schedule", "--procedure", "gen_holm", "--n", 40, "--k", 2, "--model", "equicorrelated:0.5"], 0),
        (["adjust", "--help"], 0),
        (["schedule", "--procedure", "gen_bh", "--n", 3, "--k", 5], 1),
        (["schedule", "--bogus"], 1),
        (["simulate", "--n", 10, "--n0-grid", 5, "--iterations", 10, "--output", "/dev/full"], 2),
    ],
)
def test_module_entry_point_matches_main(argv, expected, capsys):
    # ``python -m kfdr.cli`` exits through ``cli.run``, which freezes the
    # collector after ``main``: same bytes, same exit code. /dev/full fails
    # every write with ENOSPC, a runtime failure.
    if "/dev/full" in argv and not os.path.exists("/dev/full"):
        pytest.skip("needs /dev/full")
    argv = [str(a) for a in argv]
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    child = subprocess.run(
        [sys.executable, "-m", "kfdr.cli", *argv], env=env, capture_output=True, timeout=60
    )
    code, out, _ = run(argv, capsys)
    assert child.returncode == code == expected
    assert child.stdout == out.encode()


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


def test_repeated_procedure_repeats_its_rows(tmp_path, capsys):
    argv = ["simulate", "--n", 12, "--k", 2, "--rho", 0.5, "--n0-grid", "3,12",
            "--iterations", 61]
    once, repeated = tmp_path / "once.csv", tmp_path / "repeated.csv"
    assert run([*argv, "--procedures", "gen_bh,bh", "--output", once], capsys)[0] == 0
    assert run([*argv, "--procedures", "gen_bh,bh,gen_bh", "--output", repeated], capsys)[0] == 0
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


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("block", [1, 3, 4, 65536])
@pytest.mark.parametrize("procedure", ["gen_bh", "gen_holm"])
def test_adjust_rows_are_the_scatter_of_the_sort_order(
    procedure, block, cpus, monkeypatch, tmp_path, capsys
):
    # 41 rows (odd) of p-values with one decimal, -0.0 beside 0.0, so ties
    # span the edges of 4-row sorted blocks and take the stable sort; 7-row
    # writer blocks, forked or not, and every narrowing block size.
    p = np.round(np.random.default_rng(block).random(41), 1)
    p[[3, 17, 30]] = [-0.0, 0.0, -0.0]
    path = tmp_path / "p.csv"
    path.write_text("p\n" + "\n".join(map(repr, p.tolist())) + "\n")
    monkeypatch.setattr(engine, "_SORTED_BLOCK", 4)
    monkeypatch.setattr(cli, "_NARROW_BLOCK", block)
    monkeypatch.setattr(cli, "_LINES_PER_WRITE", 7)
    forks = _use_cpus(monkeypatch, cpus)
    code, out, err = run(["adjust", path, "--procedure", procedure, "--k", 2, "--alpha", 0.5],
                         capsys)
    assert (code, err) == (0, "")
    assert len(forks) == (2 * cpus if cpus > 1 else 0)
    # The row-order columns as a scatter through the sort order made them.
    schedule = schedules.make_schedule(procedure, p.size, 2, 0.5, independent_fk(2))
    outcome = engine.decide(engine.PValueSample(p), schedule)
    assert 0 < outcome.r < p.size
    critical = np.empty(p.size)
    critical[outcome.order] = schedule.alphas
    rejected = np.zeros(p.size, dtype=bool)
    rejected[outcome.order[: outcome.r]] = True
    rows = "".join(f"{i},{x!r},{c!r},{'true' if f else 'false'}\n" for i, (x, c, f)
                   in enumerate(zip(p.tolist(), critical.tolist(), rejected.tolist()), start=1))
    assert out.endswith("\nindex,p,critical,rejected\n" + rows)
    # The ranks invert the order, in int32, narrowed in its own buffer.
    order = np.argsort(p, kind="stable")
    rank = cli._ranks(order)
    assert rank.dtype == np.int32
    assert (rank[np.argsort(p, kind="stable")] == np.arange(p.size)).all()


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


# Fourteen rows of 5 or 6 bytes: at _LINES_PER_WRITE = 2 the reader cuts
# them into ranges of at least 32 bytes, and each change sits past the first.
_VALUES = [f"0.{i:02d}" for i in range(1, 14)]
CHUNKED_INPUTS = {
    "crlf-header": _rows("p", *_VALUES, sep="\r\n"),
    "crlf-at-cuts": b"p\n0.1\r\n0.2\n0.3\r\n" + _rows(*_VALUES, sep="\r\n"),
    "lone-cr-late": _rows("p", *_VALUES[:9]) + b"0.5\r0.25\r0.75\n",
    "lone-cr-only": _rows("p", *_VALUES, sep="\r"),
    "no-trailing-newline-late": _rows("p", *_VALUES)[:-1],
    "form-feed-late": _rows("p", *_VALUES[:10], "\x0c0.5\x0c", "0.1\x0c0.2"),
    "header-late": _rows("p", *_VALUES[:10], "p", *_VALUES[10:]),
    "comment-late": _rows("p", *_VALUES[:10], "# late", *_VALUES[10:]),
    # Two- to four-byte characters, so cuts are looked for from inside them.
    "multibyte-comment-at-cuts": _rows("p", *_VALUES[:3], "# \u00e9t\u00e9 \u20ac\U0001f600" * 4,
                                       *_VALUES[3:]),
    "bom-header-late": _rows("\ufeffp", *_VALUES),
    "bom-row-late": _rows("p", *_VALUES[:10], "\ufeff0.5", *_VALUES[10:]),
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


def _assert_cuts(body, cuts, size):
    """``cuts`` cut ``body`` into ranges that cover it in order; each range
    but the last ends at the first \\n, \\r or whole \\r\\n from its
    ``size``-th byte on, so none splits a row, a \\r\\n or a character."""
    assert cuts[0] == 0 and cuts[-1] == len(body)
    assert all(a < b for a, b in zip(cuts, cuts[1:])) or body == b""
    for a, b in zip(cuts, cuts[1:-1]):
        assert body[b - 1] in b"\r\n" and body[b - 1 : b + 1] != b"\r\n"
        assert b - a >= size
        assert a + size - 1 + re.search(rb"\r\n|\r|\n", body[a + size - 1 :]).end() == b
    pieces = [body[a:b].decode() for a, b in zip(cuts, cuts[1:])]
    assert [line for piece in pieces for line in piece.splitlines()] == body.decode().splitlines()


@pytest.mark.parametrize(
    "body", [*PARSE_INPUTS.values(), *CHUNKED_INPUTS.values()],
    ids=[*PARSE_INPUTS.keys(), *CHUNKED_INPUTS.keys()],
)
def test_read_pvalues_in_forked_chunks_equals_the_row_loop(body, monkeypatch, tmp_path):
    path = tmp_path / "p.csv"
    path.write_bytes(body)
    expected = _parse_outcome(lambda: cli._parse_rows(str(path), _text(path).splitlines()))
    monkeypatch.setattr(cli, "_LINES_PER_WRITE", 2)
    # The ranges the reader cuts at that block size.
    with open(path, "rb") as fh:
        cuts = cli._row_cuts(fh, 32)
    _assert_cuts(body, cuts, 32)
    assert len(cuts) > 2 or len(body) <= 32
    for cpus in (1, 2):
        forks = _use_cpus(monkeypatch, cpus)
        assert _parse_outcome(lambda: cli._read_pvalues(str(path))) == expected
        assert len(forks) == (2 if cpus == 2 and len(cuts) > 2 else 0)
        _assert_no_child_left()


@pytest.mark.parametrize("size", [1, 2, 3, 5, 41, 100])
def test_read_pieces_never_split_crlf(size, tmp_path):
    # Rows of every length from 5 to 42 bytes, so the cuts look for a line
    # break from many offsets of a row, between \r and \n too.
    body = "".join(f"0.{'1' * i}\r\n" for i in range(1, 39)).encode() * 3
    path = tmp_path / "p.csv"
    path.write_bytes(body)
    with open(path, "rb") as fh:
        cuts = cli._row_cuts(fh, size)
    _assert_cuts(body, cuts, size)
    assert len(cuts) > 3
    assert all(body[:cut].endswith(b"\r\n") for cut in cuts[1:])


@pytest.mark.parametrize("name", ["crlf-header", "lone-cr-only", "comment-late", "bom-header-late"])
def test_a_pipe_is_read_by_the_row_loop(name, tmp_path):
    # A pipe has no byte ranges to seek to; its one pass gives the same values.
    if not os.path.isdir("/dev/fd"):
        pytest.skip("needs /dev/fd")
    path = tmp_path / "p.csv"
    path.write_bytes(CHUNKED_INPUTS[name])
    expected = cli._parse_rows(str(path), _text(path).splitlines())
    read, write = os.pipe()
    try:
        os.write(write, CHUNKED_INPUTS[name])
        os.close(write)
        values = cli._read_pvalues(f"/dev/fd/{read}")
    finally:
        os.close(read)
    assert values.tobytes() == expected.tobytes() and expected.size == 13


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
        cli._write_table(BrokenPipeOut(), [], 9, cli._slices(np.linspace(0.0, 1.0, 9)))
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


@pytest.mark.parametrize("name", ["comment-late", "blank-late", "header-late"])
def test_a_skipped_row_retries_only_its_own_piece(name, monkeypatch, tmp_path):
    path = tmp_path / "p.csv"
    path.write_bytes(CHUNKED_INPUTS[name])
    with open(path, newline="") as fh:
        expected = _parse_outcome(lambda: cli._parse_rows(str(path), fh.read().splitlines()))
    monkeypatch.setattr(cli, "_LINES_PER_WRITE", 2)
    loop_calls = []
    row_loop = cli._parse_rows
    monkeypatch.setattr(cli, "_parse_rows", lambda *a: loop_calls.append(a) or row_loop(*a))
    forks = _use_cpus(monkeypatch, 2)
    assert _parse_outcome(lambda: cli._read_pvalues(str(path))) == expected
    # A p row past the first piece is malformed, and only the row loop
    # numbers it as a row of the file.
    assert len(loop_calls) == (name == "header-late")
    assert forks == [1, 1]
    _assert_no_child_left()


@pytest.mark.parametrize("body", ["p\n0.5\n0.01\n", "0.5\n0.01\n"], ids=["header", "headerless"])
def test_a_byte_order_mark_is_dropped(body, tmp_path, capsys):
    # As spreadsheet programs write UTF-8 CSV: one U+FEFF before the text.
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_text(body, encoding="utf-8")
    marked.write_text(body, encoding="utf-8-sig")
    assert marked.read_bytes()[:3] == b"\xef\xbb\xbf"
    expected = run(["adjust", plain, "--alpha", 0.5], capsys)
    assert expected[0] == 0 and expected[1].endswith("2,0.01,0.25,true\n")
    assert run(["adjust", marked, "--alpha", 0.5], capsys) == expected
    plain.write_text("x,fk\n0,0\n0.5,0.4\n1,1\n", encoding="utf-8")
    marked.write_text("x,fk\n0,0\n0.5,0.4\n1,1\n", encoding="utf-8-sig")
    argv = ["schedule", "--procedure", "gen_bh", "--n", 4, "--k", 2, "--model"]
    expected = run([*argv, f"empirical:{plain}"], capsys)
    assert expected[0] == 0
    assert run([*argv, f"empirical:{marked}"], capsys) == (
        0, expected[1].replace(str(plain), str(marked)), ""
    )


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


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize(
    "last, newline, byte",
    [(b"\xff", b"\n", "0xff"), (b"0.5\xe2\x82", b"\n", "0xe2"), (b"\xff", b"\r", "0xff")],
    ids=["lone-byte", "cut-character", "cr-only"],
)
def test_a_byte_that_is_not_utf8_is_named_with_its_row(
    cpus, last, newline, byte, monkeypatch, tmp_path, capsys
):
    # The header, 300000 p-values and a bad last row, about 5.8 MB into the
    # file: row 300002, wherever a range or a read of the text begins.
    path = tmp_path / "bad.csv"
    p = np.random.default_rng(7).random(300_000).tolist()
    rows = [b"p", *(repr(x).encode() for x in p), last]
    path.write_bytes(newline.join(rows) + newline)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
    code, out, err = run(["adjust", path], capsys)
    assert (code, out) == (1, "")
    assert err == (f"error: cannot read {str(path)!r}: 'utf-8' codec can't decode "
                   f"byte {byte} on row 300002\n")


@pytest.mark.parametrize(
    "last, byte", [(b"\xff", "0xff"), (b"1.0,1.0\xe2\x82", "0xe2")],
    ids=["lone-byte", "cut-character"],
)
def test_a_byte_that_is_not_utf8_in_an_empirical_model_is_named_with_its_row(
    last, byte, tmp_path, capsys
):
    # The header, 200001 grid rows and a bad last row, row 200003, about
    # 6 MB in: far past any one read of the text layer.
    path = tmp_path / "grid.csv"
    x = np.linspace(0.0, 1.0, 200_001).tolist()
    rows = [b"x,fk", *(f"{v!r},{v * v!r}".encode() for v in x), last]
    path.write_bytes(b"\n".join(rows) + b"\n")
    argv = ["schedule", "--procedure", "gen_bh", "--n", 4, "--k", 2, "--model", f"empirical:{path}"]
    assert run(argv, capsys) == (
        1, "", f"error: cannot read empirical model {str(path)!r}: 'utf-8' codec can't decode "
               f"byte {byte} on row 200003\n"
    )


@pytest.mark.parametrize(
    "argv",
    [["adjust", "INPUT"], ["schedule", "--procedure", "gen_bh", "--n", 300000, "--k", 2]],
    ids=["adjust", "schedule"],
)
def test_a_reader_that_closes_early_ends_the_call_quietly(argv, tmp_path):
    # As a shell reports `seq 1e6 | head -n 3`: 128 + SIGPIPE, with nothing
    # on stderr, and no worker outlives the call. The child leads its own
    # process group, so a forked worker left behind would still be in it.
    path = tmp_path / "p.csv"
    p = np.random.default_rng(5).random(300_000)
    path.write_text("p\n" + "\n".join(map(repr, p.tolist())) + "\n")
    argv = [str(a).replace("INPUT", str(path)) for a in argv]
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    child = subprocess.Popen(
        [sys.executable, "-m", "kfdr.cli", *argv],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True,
    )
    try:
        assert child.stdout.readline().startswith(b"# procedure=")
        child.stdout.readline(), child.stdout.readline()
        child.stdout.close()
        _, err = child.communicate(timeout=60)
        assert (child.returncode, err) == (141, b"")
    finally:
        child.kill()
        child.wait()
    with pytest.raises(ProcessLookupError):
        os.killpg(child.pid, 0)


@pytest.mark.parametrize("name", schedules.PROCEDURES)
def test_procedure_line_is_the_name_given(name, tmp_path, capsys):
    path = tmp_path / "p.csv"
    path.write_text("p\n0.01\n0.2\n0.5\n0.04\n0.9\n")
    for argv in (["schedule", "--n", 5], ["adjust", path]):
        code, out, _ = run([*argv, "--procedure", name, "--k", 2], capsys)
        assert code == 0
        assert out.splitlines()[0] == f"# procedure={name}"


# sha256 of the full stdout of every call below, per registry name: taken
# where F_k is exact (the independent model, rho in {0, 1}) or an empirical
# grid, so no quadrature digit moves them. --alpha 0.1 checks the # alpha=
# line, and adjust runs a seeded 2000-row file.
EXACT_CASE_SHA256 = {
    "bh": "7b6fee8ae435edb82a843c85dcf8a34d01288c80e023e29a435509575aada71e",
    "gen_bh": "6083e034903f27ae032301d0aea9c5beac1e6ea33d2f7c932a491ed5d48bb610",
    "gen_by": "8ea39858f90d01bf0243651e943ebbfdb8db6026b815015c2a4dd9d0d4196fdf",
    "gen_holm": "3cabc855a23986355d2548163979b2c0b9562e2f5efdb3c48d805f0444437d17",
    "gen_hochberg": "1a102d5f9f48a73f1ef2b61e21753aecee16acfd506b69280601f81f1bc01f9e",
    "gen_simes": "5c076bede34267d3830db4bb0c523fa54618f60edba091aeb041eab46b47719b",
    "lehmann_romano": "5da4698319698c7a4d31cf3e1a3244c97230c1770c8a0962268bc8bd5df8eb75",
    "rescaled_const": "d4d40d24bb874806744baaa286bdba35e6115e036c2566ec51ca66e76e8efcd0",
    "rescaled_hochberg": "9044d51c8d86661a6e630921170b79cd07fa59473b7ae3e910e0ff35c28daadf",
}


def test_exact_case_outputs_are_pinned_byte_for_byte(monkeypatch, tmp_path, capsys):
    monkeypatch.chdir(tmp_path)
    Path("grid.csv").write_text("x,fk\n0,0\n1e-6,1e-12\n1e-4,1e-8\n0.01,1e-4\n0.3,0.09\n1,1\n")
    rng = np.random.default_rng(20070523)
    p = rng.random(2000) * np.where(np.arange(2000) < 200, 1e-3, 1.0)
    Path("p.csv").write_text("p\n" + "\n".join(map(repr, p.tolist())) + "\n")
    models = ["independent", "equicorrelated:0", "equicorrelated:1", "empirical:grid.csv"]
    digests = {}
    for name in schedules.PROCEDURES:
        calls = [
            ["schedule", "--n", n, "--k", k, "--model", model]
            for model in models
            for n, k in ((5, 2), (33, 2), (200, 5))
        ]
        calls += [["schedule", "--n", 33, "--k", 2, "--alpha", 0.1], ["adjust", "p.csv", "--k", 2]]
        digest = hashlib.sha256()
        for argv in calls:
            code, out, _ = run([*argv, "--procedure", name], capsys)
            assert code == 0, (name, argv)
            digest.update(out.encode())
        digests[name] = digest.hexdigest()
    assert digests == EXACT_CASE_SHA256
