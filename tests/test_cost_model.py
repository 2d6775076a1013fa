"""Tests for the learned cost-model subsystem: the shared feature
extractor, the measurement dataset, the residual model, the SearchLoop's
top-k mode, cache-key hygiene, serving telemetry, and the CLI verbs."""

import json

import numpy as np
import pytest

from conftest import QUICK
from repro.baselines.ansor import candidate_features
from repro.cache import ScheduleCache
from repro.cache.signature import variant_key
from repro.config import SessionConfig
from repro.search.cost_model import (
    LearnedCostModel,
    MeasurementDataset,
    pairwise_ranking_accuracy,
)
from repro.search.features import (
    ANSOR_FEATURE_NAMES,
    FEATURE_NAMES,
    FEATURE_VERSION,
    feature_dict,
    is_pow2,
    schedule_features,
)
from repro.search.tuner import MCFuserTuner

BUDGET = QUICK.evolve(population_size=96, top_n=6, max_rounds=4, min_rounds=2)


def _schedule(chain):
    """A deterministic small schedule of ``chain`` for feature tests."""
    from repro.search.space import generate_space
    from repro.gpu.specs import A100

    space = generate_space(chain, A100)
    cand = space.candidates[0]
    return space.schedule_for(cand)


def _synthetic(model, n=48, seed=0):
    """Fill ``model``'s dataset with a learnable synthetic relation."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, len(FEATURE_NAMES)))
    analytic = np.exp(rng.normal(size=n))
    measured = analytic * np.exp(0.5 * x[:, 0] - 0.25 * x[:, 3])
    for i in range(n):
        assert model.observe(x[i], analytic[i], measured[i], workload=f"w{i % 3}")
    return x, analytic, measured


class TestFeatures:
    def test_arity_matches_names(self, small_gemm, a100):
        feats = schedule_features(_schedule(small_gemm), a100)
        assert feats.shape == (len(FEATURE_NAMES),)
        assert np.isfinite(feats).all()

    def test_deterministic(self, small_gemm, a100):
        sched = _schedule(small_gemm)
        np.testing.assert_array_equal(
            schedule_features(sched, a100), schedule_features(sched, a100)
        )

    def test_ansor_prefix_is_ansor_vector(self, small_gemm, a100):
        """The retargeted Ansor features are exactly the leading components
        of the shared vector — one feature definition, no drift."""
        sched = _schedule(small_gemm)
        full = schedule_features(sched, a100)
        ansor = candidate_features(sched, a100)
        assert len(ansor) == len(ANSOR_FEATURE_NAMES) == 10
        np.testing.assert_array_equal(ansor, full[:10])

    def test_feature_dict_alignment(self, small_attention, a100):
        sched = _schedule(small_attention)
        named = feature_dict(sched, a100)
        assert tuple(named) == FEATURE_NAMES
        np.testing.assert_array_equal(
            np.array(list(named.values())), schedule_features(sched, a100)
        )

    def test_is_pow2(self):
        assert is_pow2(1) and is_pow2(64)
        assert not is_pow2(0) and not is_pow2(-4) and not is_pow2(48)


class TestMeasurementDataset:
    def test_memory_only(self):
        ds = MeasurementDataset(None)
        assert ds.append([0.0] * len(FEATURE_NAMES), 1.0, 2.0)
        assert len(ds) == 1
        x, analytic, measured = ds.arrays()
        assert x.shape == (1, len(FEATURE_NAMES))
        assert analytic[0] == 1.0 and measured[0] == 2.0

    def test_rejects_bad_records(self):
        ds = MeasurementDataset(None)
        good = [0.0] * len(FEATURE_NAMES)
        assert not ds.append(good, 1.0, float("inf"))   # launch failure
        assert not ds.append(good, 1.0, float("nan"))
        assert not ds.append(good, 0.0, 1.0)            # non-positive prior
        assert not ds.append([1.0, 2.0], 1.0, 1.0)      # wrong arity
        assert len(ds) == 0

    def test_persistence_roundtrip(self, tmp_path):
        path = tmp_path / "m.jsonl"
        ds = MeasurementDataset(path)
        feats = list(range(len(FEATURE_NAMES)))
        ds.append(feats, 2.0, 3.0, workload="G1", gpu="A100")
        reloaded = MeasurementDataset(path)
        assert len(reloaded) == 1
        rec = reloaded.records()[0]
        assert rec["workload"] == "G1" and rec["gpu"] == "A100"
        np.testing.assert_array_equal(reloaded.arrays()[0][0], feats)

    def test_corruption_recovery(self, tmp_path):
        """Corrupted/foreign lines are skipped, valid ones survive —
        mirrors the schedule store's degrade-never-break policy."""
        path = tmp_path / "m.jsonl"
        MeasurementDataset(path).append([1.0] * len(FEATURE_NAMES), 1.0, 2.0)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("{not json\n")
            fh.write('{"v": 999, "features": [], "analytic": 1, "measured": 1}\n')
            fh.write(json.dumps({"v": FEATURE_VERSION, "features": [1.0]}) + "\n")
            fh.write("\n")  # blank lines are not corruption
        MeasurementDataset(path).append([2.0] * len(FEATURE_NAMES), 1.0, 3.0)
        ds = MeasurementDataset(path)
        assert len(ds) == 2
        assert ds.corrupt_lines == 3
        np.testing.assert_array_equal(ds.arrays()[2], [2.0, 3.0])

    def test_capacity_evicts_oldest(self):
        ds = MeasurementDataset(None, capacity=3)
        for i in range(5):
            ds.append([float(i)] * len(FEATURE_NAMES), 1.0, float(i + 1))
        assert len(ds) == 3
        np.testing.assert_array_equal(ds.arrays()[2], [3.0, 4.0, 5.0])

    def test_clear_removes_file(self, tmp_path):
        path = tmp_path / "m.jsonl"
        ds = MeasurementDataset(path)
        ds.append([0.0] * len(FEATURE_NAMES), 1.0, 2.0)
        ds.clear()
        assert len(ds) == 0 and not path.exists()
        assert len(MeasurementDataset(path)) == 0

    def test_missing_file_reads_empty(self, tmp_path):
        assert len(MeasurementDataset(tmp_path / "absent.jsonl")) == 0


class TestPairwiseRankingAccuracy:
    def test_perfect_and_inverted(self):
        actual = np.array([1.0, 2.0, 3.0, 4.0])
        assert pairwise_ranking_accuracy(actual, actual) == 1.0
        assert pairwise_ranking_accuracy(-actual, actual) == 0.0

    def test_degenerate_inputs(self):
        assert np.isnan(pairwise_ranking_accuracy(np.array([1.0]), np.array([1.0])))
        assert np.isnan(
            pairwise_ranking_accuracy(np.array([1.0, 2.0]), np.array([3.0, 3.0]))
        )

    def test_sampled_pairs_deterministic(self):
        rng = np.random.default_rng(1)
        pred, actual = rng.normal(size=200), rng.normal(size=200)
        a = pairwise_ranking_accuracy(pred, actual, max_pairs=50,
                                      rng=np.random.default_rng(3))
        b = pairwise_ranking_accuracy(pred, actual, max_pairs=50,
                                      rng=np.random.default_rng(3))
        assert a == b


class TestLearnedCostModel:
    def test_unfitted_predicts_prior(self):
        model = LearnedCostModel()
        analytic = np.array([3.0, 1.0, 2.0])
        x = np.zeros((3, len(FEATURE_NAMES)))
        np.testing.assert_array_equal(model.predict(x, analytic), analytic)
        # stable ranking falls back to the analytic order
        np.testing.assert_array_equal(model.rank(x, analytic), [1, 2, 0])

    def test_fit_refuses_when_starved(self):
        model = LearnedCostModel(min_samples=32)
        _synthetic(model, n=10)
        assert not model.fit()
        assert not model.ready

    def test_fit_learns_residual(self):
        model = LearnedCostModel(min_samples=16, seed=1)
        x, analytic, measured = _synthetic(model, n=64)
        assert model.fit()
        assert model.ready
        assert 0.5 <= model.accuracy <= 1.0
        pred = model.predict(x, analytic)
        # learned ranking must beat the pure prior on the training relation
        assert pairwise_ranking_accuracy(pred, measured) > pairwise_ranking_accuracy(
            analytic, measured
        )

    def test_refit_noop_without_new_data(self):
        model = LearnedCostModel(min_samples=16)
        _synthetic(model, n=32)
        assert model.fit()
        assert not model.fit()          # nothing new
        assert model.fit(force=True)    # unless forced
        assert model.fits == 2

    def test_deterministic_for_seed_and_dataset(self, tmp_path):
        path = tmp_path / "m.jsonl"
        seed_model = LearnedCostModel(dataset=MeasurementDataset(path))
        x, analytic, _ = _synthetic(seed_model, n=40)

        def fresh():
            m = LearnedCostModel(
                dataset=MeasurementDataset(path), seed=7, min_samples=16
            )
            assert m.fit()
            return m

        a, b = fresh(), fresh()
        assert a.accuracy == b.accuracy
        np.testing.assert_array_equal(
            a.predict(x, analytic), b.predict(x, analytic)
        )
        np.testing.assert_array_equal(a.rank(x, analytic), b.rank(x, analytic))

    def test_save_load_roundtrip(self, tmp_path):
        model = LearnedCostModel(min_samples=16, seed=3)
        x, analytic, _ = _synthetic(model, n=40)
        model.fit()
        path = model.save(tmp_path / "cm.json")
        clone = LearnedCostModel.load(path)
        assert clone is not None and clone.ready
        assert clone.accuracy == model.accuracy
        assert clone.samples == model.samples
        np.testing.assert_array_equal(
            clone.predict(x, analytic), model.predict(x, analytic)
        )

    def test_save_unfitted_raises(self, tmp_path):
        with pytest.raises(RuntimeError):
            LearnedCostModel().save(tmp_path / "cm.json")

    def test_load_missing_or_corrupt_returns_none(self, tmp_path):
        assert LearnedCostModel.load(tmp_path / "absent.json") is None
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        assert LearnedCostModel.load(bad) is None
        foreign = tmp_path / "foreign.json"
        foreign.write_text(json.dumps({"schema": 999}))
        assert LearnedCostModel.load(foreign) is None


class TestTopkSearch:
    """SearchLoop integration through MCFuserTuner on a small chain."""

    def test_fallback_with_empty_dataset_matches_classic(self, small_gemm, a100):
        """An unfitted (sample-starved) model must not change the search:
        same measurement count, same chosen schedule as no model at all."""
        plain = MCFuserTuner(a100, config=BUDGET).tune(small_gemm)
        model = LearnedCostModel(min_samples=10**9)  # can never fit
        guided = MCFuserTuner(
            a100, cost_model=model, config=BUDGET.evolve(measure_topk=2)
        ).tune(small_gemm)
        assert guided.search.model_rounds == 0
        assert guided.search.num_measurements == plain.search.num_measurements
        assert guided.best_candidate.key == plain.best_candidate.key
        assert guided.best_time == plain.best_time
        # ... but the fallback rounds still bootstrapped the dataset
        assert len(model.dataset) > 0

    def test_topk_cuts_measurements_at_equal_quality(self, small_gemm, a100):
        model = LearnedCostModel(min_samples=8)
        baseline = MCFuserTuner(a100, cost_model=model, config=BUDGET).tune(small_gemm)
        model.fit(force=True)
        assert model.ready
        guided = MCFuserTuner(
            a100, cost_model=model, config=BUDGET.evolve(measure_topk=1)
        ).tune(small_gemm)
        assert guided.search.model_rounds == guided.search.rounds > 0
        assert guided.search.num_measurements < baseline.search.num_measurements
        assert guided.best_time <= baseline.best_time * 1.05
        assert guided.search.measure_topk == 1
        assert guided.measure_topk == 1

    def test_same_seed_and_dataset_is_deterministic(self, small_gemm, a100, tmp_path):
        import shutil

        path = tmp_path / "m.jsonl"
        boot = LearnedCostModel(dataset=MeasurementDataset(path), min_samples=8)
        MCFuserTuner(a100, cost_model=boot, config=BUDGET).tune(small_gemm)

        def run(tag):
            # each run gets its own copy: the guided tune appends its new
            # observations, which must not leak into the other run's fit
            copy = tmp_path / f"m-{tag}.jsonl"
            shutil.copy(path, copy)
            model = LearnedCostModel(
                dataset=MeasurementDataset(copy), seed=5, min_samples=8
            )
            model.fit(force=True)
            return MCFuserTuner(
                a100, cost_model=model, config=BUDGET.evolve(measure_topk=1)
            ).tune(small_gemm)

        r1, r2 = run("a"), run("b")
        assert r1.best_candidate.key == r2.best_candidate.key
        assert r1.best_time == r2.best_time
        assert r1.search.measured == r2.search.measured  # identical picks
        assert r1.search.ranking_accuracy == r2.search.ranking_accuracy

    def test_observations_land_in_dataset(self, small_gemm, a100):
        model = LearnedCostModel()
        report = MCFuserTuner(a100, cost_model=model, config=BUDGET).tune(small_gemm)
        finite = sum(
            1 for t in report.search.measured.values() if np.isfinite(t)
        )
        assert len(model.dataset) == finite > 0

    def test_negative_topk_rejected(self, a100):
        with pytest.raises(ValueError):
            MCFuserTuner(a100, config=SessionConfig.make(measure_topk=-1))

    def test_auto_model_created_for_topk(self, a100):
        tuner = MCFuserTuner(a100, config=SessionConfig.make(measure_topk=2))
        assert tuner.cost_model is not None
        assert not tuner.cost_model.ready


class TestCacheKeyHygiene:
    def test_variant_key_composition(self):
        assert variant_key("mcfuser") == "mcfuser"
        assert variant_key("mcfuser", "evolutionary", 0) == "mcfuser"
        assert variant_key("mcfuser", "evolutionary", 2) == "mcfuser+topk2"
        assert variant_key("mcfuser", "random", 2) == "mcfuser+random+topk2"
        assert variant_key("chimera", "random") == "chimera+random"

    def test_topk_entries_never_serve_exhaustive_tunes(
        self, small_gemm, a100, tmp_path
    ):
        cache = ScheduleCache(tmp_path / "cache")
        model = LearnedCostModel(min_samples=8)
        MCFuserTuner(a100, cost_model=model, config=BUDGET).tune(small_gemm)
        model.fit(force=True)
        first = MCFuserTuner(
            a100, cache=cache, cost_model=model, config=BUDGET.evolve(measure_topk=1)
        ).tune(small_gemm)
        assert not first.cache_hit

        # same topk setting: hit (model not even needed to serve it)
        again = MCFuserTuner(
            a100, cache=cache, config=BUDGET.evolve(measure_topk=1)
        ).tune(small_gemm)
        assert again.cache_hit
        assert again.best_time == first.best_time
        assert again.measure_topk == 1

        # exhaustive tuner: distinct key space, must re-tune
        exhaustive = MCFuserTuner(a100, cache=cache, config=BUDGET).tune(small_gemm)
        assert not exhaustive.cache_hit
        variants = {e.variant for e in cache.entries()}
        assert variants == {"mcfuser", "mcfuser+topk1"}


class TestServiceTelemetry:
    def test_measurements_and_accuracy_metrics(self, small_gemm, a100):
        from repro.serving.service import CompileService

        model = LearnedCostModel(min_samples=8)
        with CompileService(
            a100,
            cost_model=model,
            config=BUDGET.evolve(serve_workers=1, measure_topk=1),
        ) as svc:
            result = svc.compile(small_gemm)
            snapshot = svc.metrics()
        meas = snapshot["histograms"]["serve.tune.measurements"]
        assert meas["count"] == 1
        assert meas["mean"] == result.report.search.num_measurements
        # the first tune bootstraps and refits mid-run, so accuracy reports
        acc = snapshot["histograms"]["serve.model.ranking_accuracy"]
        assert acc["count"] == 1
        assert 0.0 <= acc["mean"] <= 1.0

    def test_topk_and_exhaustive_requests_do_not_alias(self, small_gemm, a100):
        from repro.serving.service import CompileService

        with CompileService(a100, config=BUDGET.evolve(serve_workers=1)) as svc:
            exhaustive = svc.compile(small_gemm)
            guided = svc.compile(
                small_gemm, config=svc.config.evolve(measure_topk=1)
            )
            assert exhaustive.signature != guided.signature
            assert guided.source == "tuned"  # not served from the other key
            snapshot = svc.metrics()
        assert snapshot["counters"]["serve.tunes"] == 2


class TestCLI:
    def test_tune_cost_model_flag(self, capsys):
        from repro.cli import main

        assert main(["tune", "G1", "--cost-model", "--topk", "1",
                     "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "model:" in out and "dataset sample(s)" in out

    def test_model_train_and_stats_roundtrip(self, capsys):
        from repro.cli import main

        assert main(["model", "stats"]) == 0
        assert "no snapshot" in capsys.readouterr().out

        assert main(["model", "train"]) == 1  # empty dataset: nothing to fit
        assert "dataset too small" in capsys.readouterr().out

        assert main(["model", "train", "G1"]) == 0
        out = capsys.readouterr().out
        assert "measured G1" in out and "model snapshot written" in out

        assert main(["model", "stats"]) == 0
        out = capsys.readouterr().out
        assert "fitted on" in out and "G1" in out

    def test_trained_model_guides_tune(self, capsys):
        from repro.cli import main

        assert main(["model", "train", "G1"]) == 0
        capsys.readouterr()
        assert main(["tune", "G1", "--cost-model", "--topk", "1",
                     "--no-cache"]) == 0
        out = capsys.readouterr().out
        # the persisted model was loaded ready -> every round was guided
        assert "top-1 guidance" in out
