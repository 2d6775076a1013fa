"""Cache ↔ tuner/executor/CLI integration: hits, round-trips, regressions."""

import numpy as np
import pytest

from conftest import QUICK
from repro.cache import ScheduleCache
from repro.cli import main
from repro.codegen.interpreter import execute_schedule
from repro.frontend.executor import compile_model
from repro.frontend.partition import partition_graph
from repro.gpu.specs import A100
from repro.ir.chain import gemm_chain
from repro.ir.graph import Graph
from repro.ir.ops import BatchMatmul, Softmax
from repro.search.tuner import MCFuserTuner


def quick_tuner(cache=None, variant="mcfuser"):
    return MCFuserTuner(A100, cache=cache, config=QUICK.evolve(variant=variant))


def make_chain():
    return gemm_chain(1, 128, 128, 64, 64, name="cache-g")


class TestTunerCacheHit:
    @pytest.fixture(scope="class")
    def warm(self, tmp_path_factory):
        """Tune once cold into a persistent cache; yield (cache_dir, report)."""
        cache_dir = tmp_path_factory.mktemp("schedcache")
        cache = ScheduleCache(cache_dir)
        report = quick_tuner(cache).tune(make_chain())
        return cache_dir, cache, report

    def test_cold_run_is_not_a_hit(self, warm):
        _, _, cold = warm
        assert not cold.cache_hit
        assert cold.search.num_measurements > 0

    def test_second_tune_performs_no_enumeration(self, warm):
        """Regression: a warm tune() must never build a search space.

        ``build_space`` is the single entry into enumeration + pruning; we
        replace it with a tripwire and require tune() to succeed anyway.
        """
        _, cache, cold = warm
        tuner = quick_tuner(cache)

        def tripwire(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("cache hit must not enumerate a search space")

        tuner.build_space = tripwire
        report = tuner.tune(make_chain())
        assert report.cache_hit
        assert report.search.num_measurements == 0
        assert report.search.num_estimates == 0
        assert report.pruning.after_rule4 == 0
        assert report.tuning_seconds == 0.0

    def test_hit_reproduces_the_tuned_schedule(self, warm):
        _, cache, cold = warm
        hit = quick_tuner(cache).tune(make_chain())
        assert hit.best_candidate.key == cold.best_candidate.key
        assert hit.best_time == cold.best_time
        assert hit.best_schedule.describe() == cold.best_schedule.describe()

    def test_hit_schedule_is_numerically_correct(self, warm):
        _, cache, _ = warm
        report = quick_tuner(cache).tune(make_chain())
        chain = report.chain
        inputs = chain.random_inputs(0)
        out = execute_schedule(report.best_schedule, inputs)[chain.output]
        ref = chain.reference(inputs)[chain.output]
        np.testing.assert_allclose(out, ref, rtol=1e-4, atol=1e-5)

    def test_disk_round_trip_across_cache_instances(self, warm):
        """A fresh ScheduleCache on the same directory (≈ a new process)
        must serve the hit from disk."""
        cache_dir, _, cold = warm
        fresh = ScheduleCache(cache_dir)
        report = quick_tuner(fresh).tune(make_chain())
        assert report.cache_hit
        assert report.best_time == cold.best_time

    def test_stats_report_the_hit(self, warm):
        cache_dir, _, _ = warm
        fresh = ScheduleCache(cache_dir)
        quick_tuner(fresh).tune(make_chain())
        stats = fresh.stats()
        assert stats.hits == 1 and stats.misses == 0
        assert stats.total_hits >= 1
        assert stats.disk_entries == 1
        assert stats.hit_rate == 1.0

    def test_variants_do_not_alias(self, warm):
        """A chimera tune of the same workload must miss the mcfuser entry."""
        _, cache, _ = warm
        report = quick_tuner(cache, variant="chimera").tune(make_chain())
        assert not report.cache_hit


class TestMemoryOnlyCache:
    def test_hit_without_disk(self):
        cache = ScheduleCache(path=None)
        cold = quick_tuner(cache).tune(make_chain())
        warm = quick_tuner(cache).tune(make_chain())
        assert not cold.cache_hit and warm.cache_hit
        assert cache.stats().path is None and cache.stats().disk_entries == 0

    def test_clear_forgets(self):
        cache = ScheduleCache(path=None)
        quick_tuner(cache).tune(make_chain())
        cache.clear()
        again = quick_tuner(cache).tune(make_chain())
        assert not again.cache_hit

    def test_put_rejects_nonfinite_times(self):
        cache = ScheduleCache(path=None)
        report = quick_tuner().tune(make_chain())
        report.best_time = float("inf")
        assert cache.put(report.chain, A100, report) is None
        assert cache.get(report.chain, A100) is None


def _tiny_attention_graph() -> Graph:
    g = Graph("tiny")
    g.add_input("q", (4, 64, 32))
    g.add_input("k", (4, 64, 32))
    g.add_input("v", (4, 64, 32))
    g.add(BatchMatmul(("q", "k"), "s", transpose_b=True))
    g.add(Softmax(("s",), "p"))
    g.add(BatchMatmul(("p", "v"), "o"))
    g.mark_output("o")
    return g


class TestExecutorCache:
    def test_recompile_hits_cache(self, tmp_path):
        graph = _tiny_attention_graph()
        cache = ScheduleCache(tmp_path)
        cold = compile_model(graph, A100, "mcfuser+relay", config=QUICK, cache=cache)
        warm = compile_model(graph, A100, "mcfuser+relay", config=QUICK, cache=cache)
        assert cold.detail["cache_hits"] == 0
        assert warm.detail["cache_hits"] == warm.mbci_subgraphs == 1
        assert warm.tuning_seconds < cold.tuning_seconds
        assert warm.time == cold.time  # same kernels either way

    def test_partition_cache_split(self, tmp_path):
        graph = _tiny_attention_graph()
        cache = ScheduleCache(tmp_path)
        partition = partition_graph(graph, A100)
        cached, uncached = partition.cache_split(cache, A100)
        assert not cached and len(uncached) == 1
        compile_model(graph, A100, "mcfuser+relay", config=QUICK, cache=cache)
        cached, uncached = partition.cache_split(cache, A100)
        assert len(cached) == 1 and not uncached


class TestCLICache:
    def test_tune_twice_then_stats_reports_hit(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "clicache")
        assert main(["tune", "G1", "--cache-dir", cache_dir]) == 0
        cold_out = capsys.readouterr().out
        assert "cache: hit" not in cold_out

        assert main(["tune", "G1", "--cache-dir", cache_dir]) == 0
        warm_out = capsys.readouterr().out
        assert "cache: hit" in warm_out
        assert "0 measurements" in warm_out
        # the schedule is reprinted identically from the cache
        assert "Compute(tile E)" in warm_out

        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        stats_out = capsys.readouterr().out
        assert "total hits: 1" in stats_out
        assert "entries: 1" in stats_out
        assert "G1" in stats_out

    def test_no_cache_flag_bypasses(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "clicache2")
        assert main(["tune", "G1", "--cache-dir", cache_dir]) == 0
        capsys.readouterr()
        assert main(["tune", "G1", "--no-cache", "--cache-dir", cache_dir]) == 0
        assert "cache: hit" not in capsys.readouterr().out

    def test_cache_clear(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "clicache3")
        assert main(["tune", "G1", "--cache-dir", cache_dir]) == 0
        capsys.readouterr()
        assert main(["cache", "clear", "--cache-dir", cache_dir]) == 0
        assert "cleared 1" in capsys.readouterr().out
        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        assert "entries: 0" in capsys.readouterr().out

    def test_cache_warmup(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "clicache4")
        assert main([
            "cache", "warmup", "G1", "G1", "S1",
            "--cache-dir", cache_dir, "--jobs", "2",
            "--population", "64", "--max-rounds", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "warmed 2 unique workload(s)" in out
        assert "1 duplicate(s)" in out
        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        assert "entries: 2" in capsys.readouterr().out
