import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kfdr import fk_models
from kfdr.fk_models import (
    EMPIRICAL,
    FkModel,
    equicorrelated_fk,
    fk_eval,
    fk_invert,
    independent_fk,
    load_empirical_csv,
    save_empirical_csv,
)


def uniform_pair_grid(m):
    """An empirical model at k = 2 on m + 1 equally spaced levels of F_2, at
    the quantiles x = sqrt(F_2) of the maximum of two independent uniforms."""
    levels = np.arange(m + 1) / m
    return FkModel(kind=EMPIRICAL, k=2, grid=np.column_stack((np.sqrt(levels), levels)))


class TestEval:
    def test_independent_power_law(self):
        assert fk_eval(independent_fk(2), 0.1) == pytest.approx(0.01, abs=1e-15)
        assert fk_eval(independent_fk(3), 0.5) == pytest.approx(0.125, abs=1e-15)

    def test_equicorrelated_zero_rho_reduces_to_independence(self):
        assert fk_eval(equicorrelated_fk(2, 0.0), 0.5) == 0.25
        ind = independent_fk(2)
        eq0 = equicorrelated_fk(2, 0.0)
        for x in np.linspace(0.0, 1.0, 100):
            assert fk_eval(eq0, float(x)) == fk_eval(ind, float(x))

    def test_equicorrelated_against_monte_carlo(self):
        # two one-sided p-values from correlated normals, 10^7 draws
        k, rho, x = 2, 0.10, 0.01
        rng = np.random.default_rng(4242)
        m = 10_000_000
        z = rng.standard_normal(m)
        eps = rng.standard_normal((m, k))
        stats = math.sqrt(rho) * z[:, None] + math.sqrt(1 - rho) * eps
        t = -2.3263478740408408  # Phi^-1(0.01); p <= x iff X >= -Phi^-1(x)
        hits = np.all(stats >= -t, axis=1)
        p_hat = hits.mean()
        se = math.sqrt(p_hat * (1 - p_hat) / m)
        val = fk_eval(equicorrelated_fk(k, rho), x)
        assert abs(val - p_hat) <= 4 * se

    def test_boundaries(self):
        for model in (independent_fk(3), equicorrelated_fk(2, 0.4)):
            assert fk_eval(model, 0.0) == 0.0
            assert fk_eval(model, 1.0) == 1.0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            fk_eval(independent_fk(2), -0.1)
        with pytest.raises(ValueError):
            fk_eval(independent_fk(2), 1.5)

    @given(st.floats(0, 1), st.floats(0, 1))
    @settings(max_examples=100)
    def test_nondecreasing(self, x1, x2):
        lo, hi = sorted((x1, x2))
        model = equicorrelated_fk(3, 0.25)
        assert fk_eval(model, lo) <= fk_eval(model, hi) + 1e-12


class TestInvert:
    def test_independent_root(self):
        assert fk_invert(independent_fk(2), 1e-4) == pytest.approx(1e-2, abs=1e-12)

    def test_boundary_targets(self):
        for model in (independent_fk(2), equicorrelated_fk(2, 0.3)):
            assert fk_invert(model, 0.0) == 0.0
            assert fk_invert(model, 1.0) == 1.0

    def test_rejects_out_of_range(self):
        for model in (independent_fk(2), equicorrelated_fk(2, 0.5)):
            for bad in (-0.1, 1.5, math.nan):
                with pytest.raises(ValueError, match="target must lie in"):
                    fk_invert(model, np.array([0.2, bad]))

    def test_empirical_flat_level(self):
        # F is 0.5 on [0.2, 0.4]: a target of 0.5 is first reached at 0.2,
        # and 0.65 lies on the rising segment from (0.4, 0.5) to (0.6, 0.8).
        model = FkModel(
            kind=EMPIRICAL, k=2,
            grid=((0.0, 0.0), (0.2, 0.5), (0.4, 0.5), (0.6, 0.8), (1.0, 1.0)),
        )
        assert fk_invert(model, 0.65) == pytest.approx(0.5, abs=1e-15)
        assert fk_invert(model, 0.5) == 0.2
        targets = np.array([0.0, 0.25, 0.5, 0.65, 0.8, 1.0])
        np.testing.assert_allclose(
            fk_invert(model, targets), [0.0, 0.1, 0.2, 0.5, 0.6, 1.0], rtol=0, atol=1e-15
        )
        np.testing.assert_allclose(
            fk_eval(model, fk_invert(model, targets)), targets, rtol=0, atol=1e-15
        )

    def test_equicorrelated_round_trip_example(self):
        model = equicorrelated_fk(2, 0.10)
        x = fk_invert(model, 0.0005)
        assert fk_eval(model, x) == pytest.approx(0.0005, abs=1e-10)

    def test_round_trip_all_kinds(self):
        rng = np.random.default_rng(31)
        independent = independent_fk(3)
        equi = equicorrelated_fk(2, 0.35)
        empirical = uniform_pair_grid(256)
        for model, n_targets in ((independent, 1000), (equi, 1000), (empirical, 1000)):
            targets = rng.uniform(0.0, 1.0, size=n_targets)
            np.testing.assert_allclose(
                fk_eval(model, fk_invert(model, targets)), targets, rtol=0, atol=1e-9
            )
            for t in targets[:20]:
                t = float(t)
                assert fk_eval(model, fk_invert(model, t)) == pytest.approx(t, abs=1e-9)


XS = np.concatenate([[0.0, 5e-324, 1e-300], np.geomspace(1e-13, 0.5, 27), [0.7, 0.999, 1.0]])


class TestExactForms:
    """F_k is x^p where it has a closed form, with the bytes of Python's pow."""

    @staticmethod
    def assert_power(model, p):
        assert fk_eval(model, XS).tolist() == [x**p for x in XS.tolist()]
        assert fk_invert(model, XS).tolist() == [x ** (1.0 / p) for x in XS.tolist()]

    def test_perfect_correlation_limit(self):
        for k in (1, 3, 5):
            model = equicorrelated_fk(k, 1.0)
            assert fk_eval(model, XS).tolist() == XS.tolist()
            assert fk_invert(model, XS).tolist() == XS.tolist()

    def test_reduces_to_power_at_rho_zero(self):
        for k in (1, 2, 5):
            self.assert_power(equicorrelated_fk(k, 0.0), k)
            self.assert_power(independent_fk(k), k)

    def test_independence_is_rho_zero(self):
        for k in (1, 2, 5):
            ind, zero = independent_fk(k), equicorrelated_fk(k, 0.0)
            assert (ind.kind, ind.k, ind.rho) == (zero.kind, zero.k, zero.rho)
        with pytest.raises(ValueError, match="unknown model kind"):
            FkModel(kind="independent_uniform", k=2)

    def test_first_order_is_the_uniform_marginal(self):
        for rho in (0.3, 0.9):
            model = equicorrelated_fk(1, rho)
            self.assert_power(model, 1)
            assert fk_invert(model, 0.05) == 0.05

    def test_exact_cases_skip_the_kernel(self, monkeypatch):
        def kernel(*args):
            raise AssertionError("quadrature kernel called")

        monkeypatch.setattr(fk_models, "equicorrelated_min_survivor", kernel)
        monkeypatch.setattr(fk_models, "invert_min_survivor", kernel)
        for k, rho in ((1, 0.5), (3, 0.0), (3, 1.0)):
            fk_eval(equicorrelated_fk(k, rho), XS)
            fk_invert(equicorrelated_fk(k, rho), XS)
        with pytest.raises(AssertionError, match="kernel called"):
            fk_eval(equicorrelated_fk(2, 0.5), XS)

    def test_empirical_model_keeps_its_grid_at_first_order(self):
        grid = ((0.0, 0.0), (0.5, 0.2), (1.0, 1.0))
        model = FkModel(kind=EMPIRICAL, k=1, grid=grid)
        assert fk_eval(model, 0.5) == 0.2
        assert fk_invert(model, 0.2) == 0.5


class TestEmpirical:
    def test_csv_round_trip(self, tmp_path):
        model = uniform_pair_grid(64)
        path = tmp_path / "fk.csv"
        save_empirical_csv(model, str(path))
        header = path.read_text().splitlines()[0]
        assert header == "x,fk"
        loaded = load_empirical_csv(str(path), k=2)
        assert loaded.grid.tolist() == model.grid.tolist()
        for x in (0.05, 0.3, 0.9):
            assert fk_eval(loaded, x) == fk_eval(model, x)

    def test_load_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n0,0\n1,1\n")
        with pytest.raises(ValueError, match="header"):
            load_empirical_csv(str(path), k=2)

    @pytest.mark.parametrize("cell", ["abc", ""])
    def test_load_names_path_and_row_of_a_bad_cell(self, cell, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(f"x,fk\n0,0\n0.5,{cell}\n1,1\n")
        with pytest.raises(ValueError, match=f"{path}: malformed row 3: "):
            load_empirical_csv(str(path), k=2)

    @pytest.mark.parametrize("row", ["0.5,nan", "0.5,inf", "-inf,0.5"])
    def test_load_names_path_row_and_value_of_a_non_finite_cell(self, row, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(f"x,fk\n0,0\n{row}\n1,1\n")
        cells = repr(row.split(","))
        with pytest.raises(ValueError, match=re.escape(f"{path}: non-finite value in row 3: {cells}")):
            load_empirical_csv(str(path), k=2)

    def test_save_rejects_non_empirical(self, tmp_path):
        with pytest.raises(ValueError):
            save_empirical_csv(independent_fk(2), str(tmp_path / "x.csv"))


class TestModelValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            FkModel(kind="mystery", k=2)

    def test_bad_order(self):
        with pytest.raises(ValueError):
            independent_fk(0)

    def test_equicorrelated_requires_rho(self):
        with pytest.raises(ValueError):
            FkModel(kind="equicorrelated_normal_one_sided", k=2)
        with pytest.raises(ValueError):
            equicorrelated_fk(2, -0.3)

    def test_rejects_bad_correlation(self):
        for bad in (-0.1, 1.2, math.nan):
            with pytest.raises(ValueError, match="rho must be in"):
                equicorrelated_fk(2, bad)
        with pytest.raises(ValueError, match="argument must lie in"):
            fk_eval(equicorrelated_fk(2, 0.3), math.inf)
        with pytest.raises(ValueError, match="order k must be >= 1"):
            equicorrelated_fk(0, 0.3)

    def test_empirical_grid_must_be_pinned(self):
        with pytest.raises(ValueError):
            FkModel(kind=EMPIRICAL, k=1, grid=((0.1, 0.0), (1.0, 1.0)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_empirical_grid_must_be_finite(self, bad):
        for point in ((0.5, bad), (bad, 0.5)):
            with pytest.raises(ValueError, match="finite"):
                FkModel(kind=EMPIRICAL, k=1, grid=((0.0, 0.0), point, (1.0, 1.0)))

    @pytest.mark.parametrize(
        "grid", [(), (0.0, 1.0), ((0.0, 0.0, 0.0), (1.0, 1.0, 1.0)), np.zeros((2, 2, 2))]
    )
    def test_empirical_grid_must_be_m_by_2(self, grid):
        with pytest.raises(ValueError, match=r"an empirical grid is an \[m, 2\] array"):
            FkModel(kind=EMPIRICAL, k=1, grid=grid)

    def test_empirical_grid_is_a_read_only_copy(self):
        source = np.array([[0.0, 0.0], [0.5, 0.2], [1.0, 1.0]])
        model = FkModel(kind=EMPIRICAL, k=1, grid=source)
        source[1] = 0.9
        assert model.grid.dtype == np.float64 and not model.grid.flags.writeable
        assert model.grid.tolist() == [[0.0, 0.0], [0.5, 0.2], [1.0, 1.0]]

    def test_empirical_grid_must_be_monotone(self):
        with pytest.raises(ValueError):
            FkModel(
                kind=EMPIRICAL,
                k=1,
                grid=((0.0, 0.0), (0.5, 0.7), (0.4, 0.8), (1.0, 1.0)),
            )
