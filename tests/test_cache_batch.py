"""BatchTuner: signature dedup, concurrency, cache interplay."""

import pytest

from conftest import QUICK
from repro.cache import BatchTuner, ScheduleCache
from repro.gpu.specs import A100
from repro.ir.chain import attention_chain, gemm_chain


def batch_tuner(cache=None, max_workers=2):
    return BatchTuner(A100, cache=cache, max_workers=max_workers, config=QUICK)


class TestDedup:
    def test_duplicate_shapes_share_one_report(self):
        chains = [
            gemm_chain(1, 128, 128, 64, 64, name="layer0"),
            gemm_chain(1, 128, 128, 64, 64, name="layer1"),  # same shape
            attention_chain(4, 128, 128, 32, 32, name="attn"),
        ]
        result = batch_tuner().tune_all(chains)
        assert result.unique == 2
        assert result.duplicates == 1
        assert len(result.reports) == 3
        # the two duplicated chains got the *same* report object
        assert result.reports[0] is result.reports[1]
        assert result.reports[2] is not result.reports[0]
        assert result.signatures[0] == result.signatures[1]

    def test_reports_align_with_input_order(self):
        g = gemm_chain(1, 128, 128, 64, 64, name="g")
        a = attention_chain(4, 128, 128, 32, 32, name="a")
        result = batch_tuner().tune_all([a, g, a])
        assert result.reports[0].chain.name == "a"
        assert result.reports[1].chain.name == "g"
        assert result.reports[0] is result.reports[2]

    def test_empty_batch(self):
        result = batch_tuner().tune_all([])
        assert result.reports == [] and result.unique == 0 and result.duplicates == 0


class TestConcurrency:
    def test_worker_count_does_not_change_results(self):
        chains = [
            gemm_chain(1, 128, 128, 64, 64, name="g1"),
            gemm_chain(1, 96, 96, 32, 32, name="g2"),
            attention_chain(4, 128, 128, 32, 32, name="a1"),
        ]
        serial = BatchTuner(A100, max_workers=1, config=QUICK).tune_all(chains)
        threaded = BatchTuner(A100, max_workers=3, config=QUICK).tune_all(chains)
        for s, t in zip(serial.reports, threaded.reports):
            assert s.best_candidate.key == t.best_candidate.key
            assert s.best_time == t.best_time

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ValueError):
            BatchTuner(A100, max_workers=0)


class TestCacheInterplay:
    def test_batch_fills_cache_and_second_batch_hits(self, tmp_path):
        chains = [
            gemm_chain(1, 128, 128, 64, 64, name="g"),
            attention_chain(4, 128, 128, 32, 32, name="a"),
        ]
        cache = ScheduleCache(tmp_path)
        first = batch_tuner(cache).tune_all(chains)
        assert first.cache_hits == 0
        assert first.tuning_seconds > 0
        second = batch_tuner(cache).tune_all(chains)
        assert second.cache_hits == second.unique == 2
        assert second.tuning_seconds == 0.0
        for a, b in zip(first.reports, second.reports):
            assert a.best_candidate.key == b.best_candidate.key

    def test_concurrent_writes_to_one_cache(self, tmp_path):
        """Several workers storing into one cache must not corrupt it."""
        chains = [
            gemm_chain(1, 128, 128, 64, 64, name="g1"),
            gemm_chain(1, 96, 96, 32, 32, name="g2"),
            gemm_chain(1, 96, 80, 64, 48, name="g3"),
            attention_chain(4, 128, 128, 32, 32, name="a1"),
        ]
        cache = ScheduleCache(tmp_path)
        batch_tuner(cache, max_workers=4).tune_all(chains)
        reopened = ScheduleCache(tmp_path)
        assert reopened.stats().disk_entries == 4
