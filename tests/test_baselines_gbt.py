"""Unit tests for the from-scratch gradient-boosted trees (Ansor's model)."""

import numpy as np
import pytest

from repro.baselines.gbt import GradientBoostedTrees, RegressionTree


def toy_data(n=200, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-2, 2, size=(n, 3))
    y = np.where(x[:, 0] > 0, 3.0, -1.0) + 0.5 * x[:, 1] + 0.05 * rng.standard_normal(n)
    return x, y


class TestRegressionTree:
    def test_fits_step_function(self):
        x, y = toy_data()
        tree = RegressionTree(max_depth=2).fit(x, y)
        pred = tree.predict(x)
        assert np.mean((pred - y) ** 2) < np.var(y) * 0.5

    def test_depth_zero_is_mean(self):
        x, y = toy_data()
        tree = RegressionTree(max_depth=0).fit(x, y)
        np.testing.assert_allclose(tree.predict(x), np.full(len(y), y.mean()))

    def test_constant_target(self):
        x = np.zeros((10, 2))
        y = np.full(10, 7.0)
        tree = RegressionTree().fit(x, y)
        np.testing.assert_allclose(tree.predict(x), y)

    def test_predict_before_fit(self):
        with pytest.raises(AssertionError):
            RegressionTree().predict(np.zeros((1, 2)))


class TestGBT:
    def test_boosting_improves_over_single_tree(self):
        x, y = toy_data(400)
        tree_err = np.mean((RegressionTree(max_depth=3).fit(x, y).predict(x) - y) ** 2)
        gbt = GradientBoostedTrees(n_trees=40).fit(x, y)
        gbt_err = np.mean((gbt.predict(x) - y) ** 2)
        assert gbt_err < tree_err

    def test_generalizes(self):
        x, y = toy_data(400, seed=1)
        xt, yt = toy_data(100, seed=2)
        gbt = GradientBoostedTrees().fit(x, y)
        assert np.mean((gbt.predict(xt) - yt) ** 2) < np.var(yt) * 0.3

    def test_ranking_quality(self):
        """What Ansor actually needs: rank candidates, not regress exactly."""
        x, y = toy_data(300, seed=3)
        gbt = GradientBoostedTrees().fit(x, y)
        pred = gbt.predict(x)
        corr = np.corrcoef(pred, y)[0, 1]
        assert corr > 0.9

    def test_is_fitted_flag(self):
        gbt = GradientBoostedTrees()
        assert not gbt.is_fitted
        x, y = toy_data(50)
        gbt.fit(x, y)
        assert gbt.is_fitted

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            GradientBoostedTrees().fit(np.zeros(10), np.zeros(10))

    def test_deterministic(self):
        x, y = toy_data(100)
        a = GradientBoostedTrees().fit(x, y).predict(x)
        b = GradientBoostedTrees().fit(x, y).predict(x)
        np.testing.assert_array_equal(a, b)


class TestGBTEdgeCases:
    """Degenerate fits must return the prior mean, never crash or grow
    zero-gain trees (the learned cost model refits on tiny, sometimes
    constant-valued datasets every search round)."""

    def test_constant_target_returns_exact_mean(self):
        x = np.random.default_rng(0).normal(size=(20, 3))
        gbt = GradientBoostedTrees().fit(x, np.full(20, 4.5))
        assert gbt.is_fitted
        assert gbt.trees == []  # no degenerate splits attempted
        np.testing.assert_array_equal(gbt.predict(x), np.full(20, 4.5))

    def test_fewer_samples_than_min_returns_prior_mean(self):
        x = np.array([[0.0, 1.0], [2.0, 3.0]])
        y = np.array([1.0, 5.0])
        gbt = GradientBoostedTrees(min_samples=4).fit(x, y)
        assert gbt.is_fitted
        assert gbt.trees == []
        np.testing.assert_array_equal(gbt.predict(x), np.full(2, 3.0))

    def test_single_sample(self):
        gbt = GradientBoostedTrees().fit(np.zeros((1, 2)), np.array([2.0]))
        np.testing.assert_array_equal(gbt.predict(np.ones((3, 2))), np.full(3, 2.0))

    def test_empty_fit_raises(self):
        with pytest.raises(ValueError):
            GradientBoostedTrees().fit(np.zeros((0, 2)), np.zeros(0))

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            GradientBoostedTrees().predict(np.zeros((1, 2)))

    def test_to_json_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            GradientBoostedTrees().to_json()


class TestGBTSerialization:
    def test_roundtrip_preserves_predictions(self):
        x, y = toy_data(150, seed=4)
        gbt = GradientBoostedTrees(n_trees=12).fit(x, y)
        clone = GradientBoostedTrees.from_json(gbt.to_json())
        assert clone.is_fitted
        np.testing.assert_array_equal(clone.predict(x), gbt.predict(x))

    def test_roundtrip_survives_json_encoding(self):
        import json

        x, y = toy_data(80, seed=5)
        gbt = GradientBoostedTrees(n_trees=6).fit(x, y)
        doc = json.loads(json.dumps(gbt.to_json()))
        clone = GradientBoostedTrees.from_json(doc)
        np.testing.assert_array_equal(clone.predict(x), gbt.predict(x))

    def test_prior_mean_only_model_roundtrips(self):
        gbt = GradientBoostedTrees().fit(np.zeros((5, 2)), np.full(5, 1.5))
        clone = GradientBoostedTrees.from_json(gbt.to_json())
        np.testing.assert_array_equal(clone.predict(np.zeros((2, 2))), np.full(2, 1.5))


class TestSplitThresholds:
    def test_quantiles_match_numpy_bit_for_bit(self):
        from repro.baselines.gbt import _CUTS, _quantiles

        rng = np.random.default_rng(0)
        for trial in range(300):
            n = int(rng.integers(17, 300))
            if trial % 3 == 0:
                raw = rng.integers(-(10**6), 10**6, n)
            elif trial % 3 == 1:
                raw = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 8)
            else:
                raw = np.exp(20 * rng.standard_normal(n))
            values = np.unique(raw)
            want = np.quantile(values, _CUTS)
            got = _quantiles(values, _CUTS)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_fit_does_not_import_numpy_ma(self):
        import os
        import subprocess
        import sys
        from pathlib import Path

        script = (
            "import sys\n"
            "import numpy as np\n"
            "from repro.baselines.gbt import GradientBoostedTrees\n"
            "x = np.random.default_rng(0).uniform(-2, 2, size=(200, 3))\n"
            "gbt = GradientBoostedTrees(n_trees=4).fit(x, x[:, 0] + x[:, 1] ** 2)\n"
            "assert gbt.trees and gbt.trees[0].root.feature >= 0\n"
            "assert 'numpy.ma' not in sys.modules, 'numpy.ma was imported'\n"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
