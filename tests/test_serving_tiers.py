"""The compile service's read view (TieredCache) over ScheduleCache."""

import pytest

from conftest import QUICK
from repro.cache import ScheduleCache
from repro.gpu.specs import A100
from repro.ir.chain import gemm_chain
from repro.search.tuner import MCFuserTuner
from repro.serving.tiers import TieredCache


class TestTieredCache:
    @pytest.fixture(scope="class")
    def warmed(self, tmp_path_factory):
        """A persistent ScheduleCache holding one tuned chain."""
        cache_dir = tmp_path_factory.mktemp("tiered")
        base = ScheduleCache(cache_dir)
        chain = gemm_chain(1, 128, 128, 64, 64, name="tiered-g")
        MCFuserTuner(A100, cache=base, config=QUICK).tune(chain)
        return cache_dir, chain

    def test_miss(self, warmed):
        cache_dir, _ = warmed
        tiered = TieredCache(ScheduleCache(cache_dir))
        assert tiered.lookup("no-such-signature") is None

    def test_lookup_does_not_record(self, warmed):
        cache_dir, chain = warmed
        base = ScheduleCache(cache_dir)
        tiered = TieredCache(base)
        sig = tiered.signature_for(chain, A100, "mcfuser")
        entry = tiered.lookup(sig)
        assert entry is not None and entry is base.peek(sig)
        assert base.peek("nope") is None
        hits = entry.hits
        base.get(chain, A100)
        # the reads recorded nothing beyond the single get()
        assert base.stats().hits == 1 and base.stats().misses == 0
        assert entry.hits == hits + 1

    def test_put_writes_through_both_layers(self, tmp_path):
        tiered = TieredCache(ScheduleCache(tmp_path))
        chain = gemm_chain(1, 96, 96, 32, 32, name="wt")
        report = MCFuserTuner(A100, config=QUICK).tune(chain)
        entry = tiered.put(chain, A100, report)
        assert entry is not None
        assert tiered.lookup(entry.signature) is entry
        # the JSON file got it too: a fresh cache on the directory reads it
        fresh = TieredCache(ScheduleCache(tmp_path))
        assert fresh.lookup(entry.signature) is not None

    def test_stats_and_clear(self, tmp_path):
        """Clearing the cache empties the one map the reads see."""
        tiered = TieredCache(ScheduleCache(tmp_path))
        chain = gemm_chain(1, 96, 80, 32, 32, name="st")
        report = MCFuserTuner(A100, config=QUICK).tune(chain)
        entry = tiered.put(chain, A100, report)
        assert tiered.cache.stats().disk_entries == 1
        tiered.cache.clear()
        assert tiered.cache.stats().disk_entries == 0
        assert tiered.lookup(entry.signature) is None

    def test_defaults_to_memory_only_cache(self):
        tiered = TieredCache()
        assert tiered.cache.stats().path is None
