"""Hot tier (TTL + LRU) and the tiered cache over ScheduleCache."""

import pytest

from conftest import QUICK
from repro.cache import ScheduleCache
from repro.cache.store import CacheEntry
from repro.gpu.specs import A100
from repro.ir.chain import gemm_chain
from repro.search.tuner import MCFuserTuner
from repro.serving.telemetry import MetricsRegistry
from repro.serving.tiers import HotTier, TieredCache


def make_entry(sig: str) -> CacheEntry:
    return CacheEntry(
        signature=sig,
        workload="w",
        gpu="A100",
        variant="mcfuser",
        expr="mhnk",
        tiles={"m": 16},
        optimized=True,
        best_time=1e-5,
        tuning_seconds=1.0,
    )


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class TestHotTier:
    def test_put_get(self):
        tier = HotTier(capacity=4, ttl=None)
        entry = make_entry("a")
        tier.put("a", entry)
        assert tier.get("a") is entry
        assert "a" in tier and len(tier) == 1

    def test_ttl_expiry(self):
        clock = FakeClock()
        tier = HotTier(capacity=4, ttl=10.0, clock=clock)
        tier.put("a", make_entry("a"))
        clock.now = 9.0
        assert tier.get("a") is not None
        clock.now = 10.5
        assert tier.get("a") is None
        assert tier.expirations == 1
        assert "a" not in tier and len(tier) == 0

    def test_purge_drops_expired_only(self):
        clock = FakeClock()
        tier = HotTier(capacity=4, ttl=10.0, clock=clock)
        tier.put("old", make_entry("old"))
        clock.now = 8.0
        tier.put("new", make_entry("new"))
        clock.now = 12.0  # old is 12s stale, new is 4s
        assert tier.purge() == 1
        assert "new" in tier and "old" not in tier

    def test_lru_eviction(self):
        tier = HotTier(capacity=2, ttl=None)
        tier.put("a", make_entry("a"))
        tier.put("b", make_entry("b"))
        assert tier.get("a") is not None  # refresh a's recency
        tier.put("c", make_entry("c"))  # evicts b, the least recent
        assert "a" in tier and "c" in tier and "b" not in tier
        assert tier.evictions == 1

    def test_capacity_zero_disables(self):
        tier = HotTier(capacity=0, ttl=None)
        tier.put("a", make_entry("a"))
        assert tier.get("a") is None and len(tier) == 0

    def test_bad_knobs_raise(self):
        with pytest.raises(ValueError):
            HotTier(capacity=-1)
        with pytest.raises(ValueError):
            HotTier(ttl=0)


class TestTieredCache:
    @pytest.fixture(scope="class")
    def warmed(self, tmp_path_factory):
        """A persistent ScheduleCache holding one tuned chain."""
        cache_dir = tmp_path_factory.mktemp("tiered")
        base = ScheduleCache(cache_dir)
        chain = gemm_chain(1, 128, 128, 64, 64, name="tiered-g")
        MCFuserTuner(A100, cache=base, config=QUICK).tune(chain)
        return cache_dir, chain

    def test_lookup_tier_progression(self, warmed):
        """disk -> (promoted) hot; a fresh base cache shows each tier."""
        cache_dir, chain = warmed
        tiered = TieredCache(ScheduleCache(cache_dir))
        sig = tiered.signature_for(chain, A100, "mcfuser")
        entry, tier = tiered.lookup(sig)
        assert entry is not None and tier == "disk"
        entry, tier = tiered.lookup(sig)
        assert tier == "hot"

    def test_memory_tier_label(self, warmed):
        cache_dir, chain = warmed
        base = ScheduleCache(cache_dir)
        tiered = TieredCache(base, capacity=0)  # hot tier disabled
        sig = tiered.signature_for(chain, A100, "mcfuser")
        assert tiered.lookup(sig)[1] == "disk"
        assert tiered.lookup(sig)[1] == "memory"  # ScheduleCache LRU now holds it

    def test_miss(self, warmed):
        cache_dir, _ = warmed
        tiered = TieredCache(ScheduleCache(cache_dir))
        assert tiered.lookup("no-such-signature") == (None, None)

    def test_peek_tiered_labels_without_recording(self, warmed):
        cache_dir, chain = warmed
        base = ScheduleCache(cache_dir)
        sig = base.signature_for(chain, A100, "mcfuser")
        entry, layer = base.peek_tiered(sig)
        assert entry is not None and layer == "disk"
        assert base.peek_tiered("nope") == (None, None)
        base.get(chain, A100)  # promote into the memory LRU
        assert base.peek_tiered(sig)[1] == "memory"
        # peeks recorded nothing beyond the single get()
        assert base.stats().hits == 1 and base.stats().misses == 0

    def test_expired_hot_entry_falls_through(self, warmed):
        cache_dir, chain = warmed
        clock = FakeClock()
        tiered = TieredCache(ScheduleCache(cache_dir), ttl=5.0, clock=clock)
        sig = tiered.signature_for(chain, A100, "mcfuser")
        assert tiered.lookup(sig)[1] == "disk"
        assert tiered.lookup(sig)[1] == "hot"
        clock.now = 6.0  # hot entry stale; lower tiers still serve
        entry, tier = tiered.lookup(sig)
        assert entry is not None and tier == "memory"
        assert tiered.lookup(sig)[1] == "hot"  # re-promoted

    def test_put_writes_through_both_layers(self, tmp_path):
        base = ScheduleCache(tmp_path)
        tiered = TieredCache(base)
        chain = gemm_chain(1, 96, 96, 32, 32, name="wt")
        report = MCFuserTuner(A100, config=QUICK).tune(chain)
        entry = tiered.put(chain, A100, report)
        assert entry is not None
        assert tiered.lookup(entry.signature)[1] == "hot"
        # the persistent layer got it too: a fresh tiered cache reads disk
        fresh = TieredCache(ScheduleCache(tmp_path))
        assert fresh.lookup(entry.signature)[1] == "disk"

    def test_telemetry_counters(self, warmed):
        cache_dir, chain = warmed
        reg = MetricsRegistry()
        tiered = TieredCache(ScheduleCache(cache_dir), telemetry=reg)
        sig = tiered.signature_for(chain, A100, "mcfuser")
        tiered.lookup("nope")
        tiered.lookup(sig)
        tiered.lookup(sig)
        assert reg.value("serve.cache.misses") == 1
        assert reg.value("serve.cache.hits.disk") == 1
        assert reg.value("serve.cache.hits.hot") == 1

    def test_stats_and_clear(self, tmp_path):
        tiered = TieredCache(ScheduleCache(tmp_path))
        chain = gemm_chain(1, 96, 80, 32, 32, name="st")
        report = MCFuserTuner(A100, config=QUICK).tune(chain)
        tiered.put(chain, A100, report)
        stats = tiered.stats()
        assert stats["hot_entries"] == 1 and stats["disk_entries"] == 1
        tiered.clear()
        stats = tiered.stats()
        assert stats["hot_entries"] == 0 and stats["disk_entries"] == 0

    def test_defaults_to_memory_only_cache(self):
        tiered = TieredCache()
        assert tiered.stats()["path"] is None
