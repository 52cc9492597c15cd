import io
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kfdr import cli, render, schedules
from kfdr.fk_models import independent_fk

# The row formats that printed the tables before the numpy renderer: the
# reference for every byte it writes.
OLD_ROWS = {
    "adjust": lambda i, p, c, flag: f"{i},{p!r},{c!r},{'true' if flag else 'false'}\n",
    "targets": "{},{!r},{!r}\n".format,
    "no-targets": "{},,{!r}\n".format,
}


def old_rows(kind, first, *columns):
    values = [c.tolist() for c in columns if c is not None]
    return "".join(map(OLD_ROWS[kind], range(first, first + len(values[0])), *values))


def repr_column(x):
    """rows_text of one float column, against each value's repr."""
    x = np.asarray(x, dtype=np.float64)
    return render.rows_text(1, [None, x]), old_rows("no-targets", 1, x)


def neighbours(values):
    return [v for x in values for v in (np.nextafter(x, 0.0), x, np.nextafter(x, 1.0))]


EDGES = [
    0.0, -0.0, 1.0, 5e-324, np.nextafter(2.2250738585072014e-308, 0.0),
    2.2250738585072014e-308, 9.999999999999999e-05, 0.0001, 0.001, 0.1, 0.5,
    *neighbours([math.ldexp(1.0, -j) for j in range(1075)]),
    *neighbours([float(f"1e-{j}") for j in range(324)]),
    # Odd multiples of 2^-17 in [0.5, 1) lie halfway between two 16-digit
    # decimals that both read back: the tie goes to the even one.
    *(m * 2.0 ** -(17 + j) for j in range(0, 60, 3) for m in range(65537, 131072, 2 * 1999)),
]


def test_every_printed_float_is_its_repr_on_random_bit_patterns():
    # Uniform over the bit patterns of [0, 1]: every exponent, subnormals
    # included, about equally often.
    bits = np.random.default_rng(17).integers(0, 0x3FF0000000000001, 300_000, dtype=np.uint64)
    got, expected = repr_column(bits.view(np.float64))
    assert got == expected


def test_every_printed_float_is_its_repr_on_short_decimals():
    rng = np.random.default_rng(3)
    x = np.array([float(f"{v:.{rng.integers(1, 18)}g}") for v in rng.random(20_000).tolist()])
    for scale in (1.0, 1e-4, 1e-200, 1e-310):
        got, expected = repr_column(x * scale)
        assert got == expected, scale


def test_every_printed_float_is_its_repr_on_the_edges():
    got, expected = repr_column([x for x in EDGES if 0.0 <= x <= 1.0])
    assert got == expected
    assert render.rows_text(1, [np.array([0.0, -0.0, 1.0])]) == "1,0.0\n2,-0.0\n3,1.0\n"


@given(st.lists(st.floats(-0.0, 1.0), min_size=1, max_size=40))
@settings(max_examples=300, deadline=None)
def test_every_printed_float_is_its_repr(values):
    got, expected = repr_column(values)
    assert got == expected


def exact_floor_log10(x):
    k = math.floor(math.log10(x.numerator) - math.log10(x.denominator))
    while Fraction(10) ** k > x:
        k -= 1
    while Fraction(10) ** (k + 1) <= x:
        k += 1
    return k


def test_exponent_tables_are_exact():
    k, h, limbs = render._K_TABLE, render._H_TABLE, render._G_TABLE
    g = sum(limb.astype(object) << s for limb, s in zip(limbs, (0, 32, 64, 96)))
    assert len(k) == 2 * 1024
    for code in range(2, len(k)):
        biased, empty = divmod(code, 2)
        x = Fraction(2) ** (max(biased, 1) - 1075)
        if empty and biased > 1:
            x *= Fraction(3, 4)
        assert k[code] == exact_floor_log10(x), code
        # g = floor(10^-k 2^(127 - e)) + 1 with 2^e <= 10^-k < 2^(e + 1).
        e = int(h[code]) - (max(biased, 1) - 1075) - 1
        assert Fraction(2) ** e <= Fraction(10) ** -int(k[code]) < Fraction(2) ** (e + 1), code
        assert g[code] == math.floor(Fraction(10) ** -int(k[code]) * Fraction(2) ** (127 - e)) + 1


def write_table(*columns):
    out = io.StringIO()
    cli._write_table(out, ["# head", "index,a,b"], columns[-1].size, cli._slices(*columns))
    return out.getvalue()


@pytest.fixture
def small_blocks(monkeypatch):
    # Blocks of five rows laid out five at a time: rows 6 to 10 share one
    # matrix, so the index grows from one digit to two inside it.
    monkeypatch.setattr(cli, "_LINES_PER_WRITE", 5)
    monkeypatch.setattr(render, "_ROWS_PER_MATRIX", 5)


@pytest.mark.parametrize("cpus", [1, 2])
def test_adjust_rows_are_the_old_rows(cpus, small_blocks, monkeypatch):
    monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
    rng = np.random.default_rng(5)
    p, critical = rng.random(23), rng.random(23) ** 9
    p[[3, 7, 11]] = [0.0, -0.0, 1.0]
    critical[[4, 9]] = [5e-324, 1e-5]
    rejected = rng.random(23) < 0.5
    rejected[[0, -1]] = True
    got = write_table(p, critical, rejected)
    assert got == "# head\nindex,a,b\n" + old_rows("adjust", 1, p, critical, rejected)
    assert got.splitlines()[2].endswith(",true") and got.endswith(",true\n")


@pytest.mark.parametrize("name", schedules.PROCEDURES)
def test_schedule_rows_are_the_old_rows(name, small_blocks, monkeypatch):
    schedule = schedules.make_schedule(name, 12, 2, 0.05, independent_fk(2))
    if schedule.f_targets is None:
        expected = old_rows("no-targets", 1, schedule.alphas)
        assert name in ("bh", "lehmann_romano")
    else:
        expected = old_rows("targets", 1, schedule.f_targets, schedule.alphas)
    # On one CPU and through the pool: three blocks of rows.
    for cpus in (1, 2):
        monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
        got = write_table(schedule.f_targets, schedule.alphas)
        assert got == "# head\nindex,a,b\n" + expected, cpus


@pytest.mark.parametrize("first", [1, 5, 95, 9995, 99990, 99_999_990])
def test_index_width_changes_inside_one_matrix(first):
    x = np.random.default_rng(first).random(20)
    flags = x < 0.5
    assert render.rows_text(first, [x, x, flags]) == old_rows("adjust", first, x, x, flags)
    assert render.rows_text(first, [None, x]) == old_rows("no-targets", first, x)


def test_a_schedule_with_nan_targets_exits_one_with_no_output(monkeypatch, capsys):
    def nan_targets(n, k, alpha, model):
        return schedules.CriticalValueSchedule(
            alphas=np.full(n, alpha), k=k, direction=schedules.STEPUP, f_targets=np.full(n, np.nan)
        )

    monkeypatch.setitem(schedules.PROCEDURES, "bh", nan_targets)
    code = cli.main(["schedule", "--procedure", "bh", "--n", "3"])
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert err == "error: F-targets must lie in [0, 1]\n"
