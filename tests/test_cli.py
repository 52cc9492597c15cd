import re
from pathlib import Path

import pytest

from kfdr import cli, schedules
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
    ],
)
def test_validation_errors_exit_one(argv, message, capsys):
    code, _, err = run(argv, capsys)
    assert code == 1
    assert err.startswith("error: ")
    assert re.search(message, err)


@pytest.mark.parametrize(
    "body, message", [("p\n0.1\n1.5\n", "outside [0, 1] on row 3"), ("p\n0.1\nabc\n", "malformed")]
)
def test_bad_pvalue_rows_exit_one(body, message, tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text(body)
    code, out, err = run(["adjust", path], capsys)
    assert code == 1 and out == ""
    assert message in err


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
