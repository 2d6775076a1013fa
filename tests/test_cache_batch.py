"""Batch warmup through the compile service: ``Session.tune_all``.

Signature dedup, input order, worker-count independence, cache interplay,
equivalence with the chain tuner's cache writes, and read-only counters.
"""

import dataclasses

import pytest

from conftest import QUICK
from repro.cache import ScheduleCache
from repro.gpu.specs import A100
from repro.ir.chain import attention_chain, gemm_chain
from repro.search.tuner import MCFuserTuner
from repro.session import Session


def session(cache_dir=None, workers=2):
    if cache_dir is None:
        return Session(QUICK.evolve(cache_enabled=False, serve_workers=workers))
    return Session(QUICK.evolve(cache_dir=str(cache_dir), serve_workers=workers))


def tune_all(chains, cache_dir=None, workers=2):
    with session(cache_dir, workers) as s:
        return s.tune_all(chains), s.metrics.counter("serve.tunes").value


class TestDedup:
    def test_duplicate_shapes_share_one_report(self):
        chains = [
            gemm_chain(1, 128, 128, 64, 64, name="layer0"),
            gemm_chain(1, 128, 128, 64, 64, name="layer1"),  # same shape
            attention_chain(4, 128, 128, 32, 32, name="attn"),
        ]
        results, tunes = tune_all(chains)
        assert len(results) == 3
        assert results[0].signature == results[1].signature
        assert results[2].signature != results[0].signature
        assert tunes == len({r.signature for r in results}) == 2
        assert results[0].source == "tuned"
        assert results[1].source in ("coalesced", "hot")
        assert (
            results[0].report.best_candidate.key == results[1].report.best_candidate.key
        )

    def test_reports_align_with_input_order(self):
        g = gemm_chain(1, 128, 128, 64, 64, name="g")
        a = attention_chain(4, 128, 128, 32, 32, name="a")
        results, _ = tune_all([a, g, a])
        assert [r.workload for r in results] == ["a", "g", "a"]
        assert results[0].report.chain.name == "a"
        assert results[1].report.chain.name == "g"
        assert results[0].signature == results[2].signature

    def test_empty_batch(self):
        results, tunes = tune_all([])
        assert results == [] and tunes == 0


class TestConcurrency:
    def test_worker_count_does_not_change_results(self):
        chains = [
            gemm_chain(1, 128, 128, 64, 64, name="g1"),
            gemm_chain(1, 96, 96, 32, 32, name="g2"),
            attention_chain(4, 128, 128, 32, 32, name="a1"),
        ]
        serial, _ = tune_all(chains, workers=1)
        threaded, _ = tune_all(chains, workers=3)
        for s, t in zip(serial, threaded):
            assert s.report.best_candidate.key == t.report.best_candidate.key
            assert s.report.best_time == t.report.best_time

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            session(workers=0)


class TestCacheInterplay:
    def test_batch_fills_cache_and_second_batch_hits(self, tmp_path):
        chains = [
            gemm_chain(1, 128, 128, 64, 64, name="g"),
            attention_chain(4, 128, 128, 32, 32, name="a"),
        ]
        first, _ = tune_all(chains, tmp_path)
        assert [r.source for r in first] == ["tuned", "tuned"]
        assert sum(r.report.tuning_seconds for r in first) > 0
        second, tunes = tune_all(chains, tmp_path)
        assert [r.source for r in second] == ["hot", "hot"]
        assert tunes == 0
        assert sum(r.report.tuning_seconds for r in second) == 0.0
        for a, b in zip(first, second):
            assert a.report.best_candidate.key == b.report.best_candidate.key

    def test_concurrent_writes_to_one_cache(self, tmp_path):
        """Several workers storing into one cache must not corrupt it."""
        chains = [
            gemm_chain(1, 128, 128, 64, 64, name="g1"),
            gemm_chain(1, 96, 96, 32, 32, name="g2"),
            gemm_chain(1, 96, 80, 64, 48, name="g3"),
            attention_chain(4, 128, 128, 32, 32, name="a1"),
        ]
        tune_all(chains, tmp_path, workers=4)
        reopened = ScheduleCache(tmp_path)
        assert reopened.stats().disk_entries == 4

    def test_warmup_writes_the_tuners_entries(self, tmp_path):
        """Warmup through the service stores, per signature, exactly the
        entry a chain tuner with the same cache would store (timestamps
        aside)."""
        chains = [
            gemm_chain(1, 128, 128, 64, 64, name="g"),
            gemm_chain(1, 128, 128, 64, 64, name="g-dup"),
            attention_chain(4, 128, 128, 32, 32, name="a"),
        ]
        tune_all(chains, tmp_path / "service")
        direct = ScheduleCache(tmp_path / "tuner")
        tuner = MCFuserTuner(A100, cache=direct, config=QUICK)
        for chain in (chains[0], chains[2]):  # one tune per signature
            tuner.tune(chain)

        def fields(cache):
            return {
                e.signature: {
                    k: v
                    for k, v in dataclasses.asdict(e).items()
                    if k not in ("created_at", "last_used")
                }
                for e in cache.entries()
            }

        warmed = fields(ScheduleCache(tmp_path / "service"))
        assert len(warmed) == 2
        assert warmed == fields(ScheduleCache(tmp_path / "tuner"))

    def test_warmup_records_no_hits_or_misses(self, tmp_path):
        """Warmup reads the cache through the service's non-recording peek:
        neither a cold nor a warm batch moves the persisted counters."""
        chains = [
            gemm_chain(1, 128, 128, 64, 64, name="g"),
            attention_chain(4, 128, 128, 32, 32, name="a"),
        ]
        for _ in range(2):
            tune_all(chains, tmp_path)
            stats = ScheduleCache(tmp_path).stats()
            assert (stats.total_hits, stats.total_misses) == (0, 0)
