"""Storage layers: entry codec, per-entry disk files, recovery."""

import json
import os

import pytest

from repro.cache import ScheduleCache
from repro.cache.cache import LEGACY_FILENAME, STORE_DIRNAME
from repro.cache.store import (
    COUNTERS_FILENAME,
    SCHEMA_VERSION,
    CacheDecodeError,
    CacheEntry,
    PersistentStore,
)


def entry(sig: str, **overrides) -> CacheEntry:
    fields = dict(
        signature=sig,
        workload="G1",
        gpu="A100",
        variant="mcfuser",
        expr="mhnk",
        tiles={"m": 64, "n": 64, "k": 64, "h": 32},
        optimized=True,
        best_time=6.3e-6,
        tuning_seconds=42.0,
    )
    fields.update(overrides)
    return CacheEntry(**fields)


def temp_files(directory) -> list[str]:
    return [f for f in os.listdir(directory) if ".tmp." in f]


class TestEntryCodec:
    def test_round_trip(self):
        original = entry("a" * 32, hits=3)
        restored = CacheEntry.from_json(original.to_json())
        assert restored == original

    def test_json_serializable(self):
        json.dumps(entry("a" * 32).to_json())

    @pytest.mark.parametrize(
        "mutation",
        [
            lambda d: d.pop("expr"),
            lambda d: d.pop("tiles"),
            lambda d: d.update(best_time="fast"),
            lambda d: d.update(tiles="mhnk"),
            lambda d: d.update(best_time=-1.0),
            lambda d: d.update(signature=""),
        ],
    )
    def test_malformed_entries_rejected(self, mutation):
        data = entry("a" * 32).to_json()
        mutation(data)
        with pytest.raises(CacheDecodeError):
            CacheEntry.from_json(data)

    def test_non_dict_rejected(self):
        with pytest.raises(CacheDecodeError):
            CacheEntry.from_json(["not", "an", "entry"])


class TestPersistentStore:
    def test_round_trip_across_instances(self, tmp_path):
        store = PersistentStore(tmp_path)
        store.put(entry("sig1"))
        assert (tmp_path / "sig1.json").exists()
        reopened = PersistentStore(tmp_path)
        got = reopened.get("sig1")
        assert got is not None
        assert got.expr == "mhnk" and got.tiles == {"m": 64, "n": 64, "k": 64, "h": 32}

    def test_hit_counters_persist(self, tmp_path):
        store = PersistentStore(tmp_path)
        store.record_miss()
        store.put(entry("sig1"))
        store.record_hit(store.get("sig1"))
        reopened = PersistentStore(tmp_path)
        assert reopened.counters() == (1, 1)
        assert reopened.get("sig1").hits == 1

    def test_miss_is_one_log_append(self, tmp_path):
        """A miss rewrites no entry file: it appends one counter line."""
        store = PersistentStore(tmp_path)
        store.put(entry("sig1"))
        mtime = os.path.getmtime(tmp_path / "sig1.json")
        store.record_miss()
        assert os.path.getmtime(tmp_path / "sig1.json") == mtime
        assert (tmp_path / COUNTERS_FILENAME).read_text() == "m\n"
        assert PersistentStore(tmp_path).counters() == (0, 1)

    def test_concurrent_stores_merge_instead_of_overwriting(self, tmp_path):
        """Two store instances (≈ two warmup processes) on one directory
        must both land their entries and counters."""
        a = PersistentStore(tmp_path)
        b = PersistentStore(tmp_path)
        a.put(entry("sig-a"))
        b.put(entry("sig-b"))  # must not clobber a's write
        b.record_hit(b.get("sig-b"))
        a.record_hit(a.get("sig-a"))
        merged = PersistentStore(tmp_path)
        assert merged.get("sig-a") is not None and merged.get("sig-b") is not None
        assert merged.counters() == (2, 0)

    def test_same_signature_last_writer_wins(self, tmp_path):
        a = PersistentStore(tmp_path)
        b = PersistentStore(tmp_path)
        a.put(entry("sig1", expr="mhnk"))
        b.put(entry("sig1", expr="mnhk"))
        assert PersistentStore(tmp_path).get("sig1").expr == "mnhk"

    def test_corrupted_file_recovers(self, tmp_path):
        """A corrupt entry file is quarantined; its neighbours still load."""
        PersistentStore(tmp_path).put(entry("good"))
        (tmp_path / "bad.json").write_text("{ this is not json")
        store = PersistentStore(tmp_path)
        assert len(store) == 1 and store.get("good") is not None
        assert (tmp_path / "bad.json.corrupt").exists()
        assert not (tmp_path / "bad.json").exists()
        store.put(entry("sig1"))  # store is usable after recovery
        assert PersistentStore(tmp_path).get("sig1") is not None

    def test_wrong_schema_version_discarded(self, tmp_path):
        doc = {**entry("sig1").to_json(), "schema": SCHEMA_VERSION + 1}
        (tmp_path / "sig1.json").write_text(json.dumps(doc))
        store = PersistentStore(tmp_path)
        assert len(store) == 0
        assert (tmp_path / "sig1.json.corrupt").exists()

    def test_malformed_entry_file_is_quarantined_alone(self, tmp_path):
        PersistentStore(tmp_path).put(entry("good"))
        doc = {"schema": SCHEMA_VERSION, "signature": "sig1"}  # missing fields
        (tmp_path / "sig1.json").write_text(json.dumps(doc))
        store = PersistentStore(tmp_path)
        assert len(store) == 1 and store.get("good") is not None
        assert (tmp_path / "sig1.json.corrupt").exists()

    def test_entry_under_another_name_is_quarantined(self, tmp_path):
        doc = {"schema": SCHEMA_VERSION, **entry("sig1").to_json()}
        (tmp_path / "other.json").write_text(json.dumps(doc))
        assert len(PersistentStore(tmp_path)) == 0
        assert (tmp_path / "other.json.corrupt").exists()

    def test_eviction_drops_least_recently_used(self, tmp_path):
        store = PersistentStore(tmp_path, max_entries=3)
        for i in range(3):
            store.put(entry(f"sig{i}", last_used=float(i)))
        store.put(entry("sig9", last_used=100.0))
        assert len(store) == 3
        assert store.get("sig0") is None  # oldest evicted
        assert store.get("sig9") is not None
        assert not (tmp_path / "sig0.json").exists()  # and its file deleted
        assert len(list(tmp_path.glob("*.json"))) == 3

    def test_load_evicts_down_to_max_entries(self, tmp_path):
        store = PersistentStore(tmp_path)
        for i in range(5):
            store.put(entry(f"sig{i}", last_used=float(i)))
        small = PersistentStore(tmp_path, max_entries=2)
        assert sorted(e.signature for e in small.entries()) == ["sig3", "sig4"]
        assert sorted(p.name for p in tmp_path.glob("*.json")) == ["sig3.json", "sig4.json"]

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        store = PersistentStore(tmp_path)
        store.put(entry("sig1"))
        store.record_hit(store.get("sig1"))
        assert temp_files(tmp_path) == []

    def test_clear_removes_file(self, tmp_path):
        path = tmp_path / "store"
        store = PersistentStore(path)
        store.put(entry("sig1"))
        store.record_miss()
        assert (path / "sig1.json").exists()
        store.clear()
        assert not path.exists() and len(store) == 0
        assert store.counters() == (0, 0)

    def test_unwritable_directory_degrades_silently(self, tmp_path):
        missing = tmp_path / "file"
        missing.write_text("x")  # a *file*, so path/"sub" can never be created
        store = PersistentStore(missing / "sub")
        store.put(entry("sig1"))  # must not raise
        store.record_hit(store.get("sig1"))
        store.record_miss()
        assert store.path is None  # memory-only from now on
        assert store.get("sig1") is not None  # still works in memory
        assert store.counters() == (1, 1)

    def test_entries_sorted_most_recent_first(self, tmp_path):
        store = PersistentStore(tmp_path)
        store.put(entry("old", last_used=1.0))
        store.put(entry("new", last_used=2.0))
        assert [e.signature for e in store.entries()] == ["new", "old"]

    @pytest.mark.parametrize("signature", ["../x", "a/b", ".hidden", "", "sig.json", "x y"])
    def test_signature_must_be_a_plain_file_name(self, tmp_path, signature):
        store = PersistentStore(tmp_path / "store")
        with pytest.raises(ValueError):
            store.put(entry(signature))
        assert list(tmp_path.iterdir()) == [] and len(store) == 0

    def test_memory_only_store_writes_nothing(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        store = PersistentStore(None)
        store.put(entry("sig1"))
        store.record_hit(store.get("sig1"))
        store.record_miss()
        assert store.counters() == (1, 1)
        assert os.listdir(tmp_path) == []


class TestLegacyStore:
    def test_legacy_store_file_reads_cold_and_is_cleared(self, tmp_path):
        legacy = tmp_path / LEGACY_FILENAME
        legacy.write_text(json.dumps({
            "schema": 1, "hits": 5, "misses": 2,
            "entries": {"sig1": entry("sig1").to_json()},
        }))
        cache = ScheduleCache(tmp_path)
        stats = cache.stats()
        assert stats.disk_entries == 0 and (stats.total_hits, stats.total_misses) == (0, 0)
        assert cache.peek("sig1") is None
        assert legacy.exists()  # ignored, not rewritten or quarantined
        cache.clear()
        assert not legacy.exists()


class TestStoreIO:
    """Counting guard: which files each store operation opens and replaces
    (counts, not timing)."""

    def test_put_reads_no_other_entry_and_replaces_one_file(self, tmp_path, store_io):
        store = PersistentStore(tmp_path)
        for i in range(50):
            store.put(entry(f"sig{i}"))
        store_io.clear()
        store.put(entry("new"))
        own = str(tmp_path / "new.json")
        assert [dst for op, dst, _ in store_io if op == "replace"] == [own]
        opened = [(path, mode) for op, path, mode in store_io if op == "open"]
        assert len(opened) == 1
        path, mode = opened[0]
        assert path.startswith(own + ".tmp.") and mode == "w"

    def test_record_hit_writes_its_entry_and_one_log_line(self, tmp_path, store_io):
        store = PersistentStore(tmp_path)
        for i in range(50):
            store.put(entry(f"sig{i}"))
        store_io.clear()
        store.record_hit(store.get("sig7"))
        own = str(tmp_path / "sig7.json")
        assert [dst for op, dst, _ in store_io if op == "replace"] == [own]
        opened = sorted((path, mode) for op, path, mode in store_io if op == "open")
        assert len(opened) == 2
        assert opened[0] == (str(tmp_path / COUNTERS_FILENAME), "a")
        assert opened[1][0].startswith(own + ".tmp.") and opened[1][1] == "w"

    def test_warm_peek_touches_no_file(self, tmp_path, store_io):
        PersistentStore(tmp_path / STORE_DIRNAME).put(entry("sig1"))
        cache = ScheduleCache(tmp_path)
        store_io.clear()
        for _ in range(10):
            assert cache.peek("sig1") is not None
            assert cache.peek("absent") is None
        assert store_io == []
