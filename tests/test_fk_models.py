import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kfdr.fk_models import (
    EMPIRICAL,
    FkModel,
    equicorrelated_fk,
    fit_empirical_fk,
    fk_eval,
    fk_invert,
    independent_fk,
    load_empirical_csv,
    save_empirical_csv,
)


class TestEval:
    def test_independent_power_law(self):
        assert fk_eval(independent_fk(2), 0.1) == pytest.approx(0.01, abs=1e-15)
        assert fk_eval(independent_fk(3), 0.5) == pytest.approx(0.125, abs=1e-15)

    def test_equicorrelated_zero_rho_reduces_to_independence(self):
        assert fk_eval(equicorrelated_fk(2, 0.0), 0.5) == pytest.approx(0.25, abs=1e-10)
        ind = independent_fk(2)
        eq0 = equicorrelated_fk(2, 0.0)
        for x in np.linspace(0.0, 1.0, 100):
            assert fk_eval(eq0, float(x)) == pytest.approx(
                fk_eval(ind, float(x)), abs=1e-8
            )

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

    def test_equicorrelated_round_trip_example(self):
        model = equicorrelated_fk(2, 0.10)
        x = fk_invert(model, 0.0005)
        assert fk_eval(model, x) == pytest.approx(0.0005, abs=1e-10)

    def test_round_trip_all_kinds(self):
        rng = np.random.default_rng(31)
        independent = independent_fk(3)
        equi = equicorrelated_fk(2, 0.35)
        rng_emp = np.random.default_rng(8)
        empirical = fit_empirical_fk(
            lambda m: rng_emp.uniform(size=(m, 2)), draws=200_000, grid_size=256
        )
        for model, n_targets in ((independent, 1000), (equi, 1000), (empirical, 1000)):
            targets = rng.uniform(0.0, 1.0, size=n_targets)
            np.testing.assert_allclose(
                fk_eval(model, fk_invert(model, targets)), targets, rtol=0, atol=1e-9
            )
            for t in targets[:20]:
                t = float(t)
                assert fk_eval(model, fk_invert(model, t)) == pytest.approx(t, abs=1e-9)


class TestEmpirical:
    def test_fit_independent_uniforms(self):
        rng = np.random.default_rng(555)
        model = fit_empirical_fk(lambda m: rng.uniform(size=(m, 2)), draws=1_000_000)
        tol = 4 * math.sqrt(0.01 * 0.99 / 1_000_000)
        assert fk_eval(model, 0.1) == pytest.approx(0.01, abs=tol)

    def test_fit_perfectly_dependent(self):
        rng = np.random.default_rng(556)

        def sampler(m):
            u = rng.uniform(size=m)
            return np.column_stack([u, u, u])

        model = fit_empirical_fk(sampler, draws=200_000)
        for x in (0.2, 0.5, 0.8):
            assert fk_eval(model, x) == pytest.approx(x, abs=0.01)

    def test_grid_monotone_for_any_sampler(self):
        rng = np.random.default_rng(557)

        def lumpy(m):
            u = rng.beta(0.4, 3.0, size=(m, 2))
            return np.clip(u, 0.0, 1.0)

        model = fit_empirical_fk(lumpy, draws=50_000, grid_size=128)
        xs = [p[0] for p in model.grid]
        fs = [p[1] for p in model.grid]
        assert all(b >= a for a, b in zip(xs, xs[1:]))
        assert all(b >= a for a, b in zip(fs, fs[1:]))
        assert model.grid[0] == (0.0, 0.0) and model.grid[-1] == (1.0, 1.0)

    def test_degenerate_sampler_flagged(self):
        with pytest.raises(ValueError, match="degenerate"):
            fit_empirical_fk(lambda m: np.full((m, 2), 0.37), draws=1000)

    def test_sampler_shape_validated(self):
        with pytest.raises(ValueError):
            fit_empirical_fk(lambda m: np.zeros(m), draws=100)

    def test_csv_round_trip(self, tmp_path):
        rng = np.random.default_rng(558)
        model = fit_empirical_fk(lambda m: rng.uniform(size=(m, 2)), draws=10_000, grid_size=64)
        path = tmp_path / "fk.csv"
        save_empirical_csv(model, str(path))
        header = path.read_text().splitlines()[0]
        assert header == "x,fk"
        loaded = load_empirical_csv(str(path), k=2)
        assert loaded.grid == model.grid
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

    def test_empirical_grid_must_be_pinned(self):
        with pytest.raises(ValueError):
            FkModel(kind=EMPIRICAL, k=1, grid=((0.1, 0.0), (1.0, 1.0)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_empirical_grid_must_be_finite(self, bad):
        for point in ((0.5, bad), (bad, 0.5)):
            with pytest.raises(ValueError, match="finite"):
                FkModel(kind=EMPIRICAL, k=1, grid=((0.0, 0.0), point, (1.0, 1.0)))

    def test_empirical_grid_must_be_monotone(self):
        with pytest.raises(ValueError):
            FkModel(
                kind=EMPIRICAL,
                k=1,
                grid=((0.0, 0.0), (0.5, 0.7), (0.4, 0.8), (1.0, 1.0)),
            )
