"""Schedule cache under concurrent threads and processes: no corruption,
no lost entries.

``PersistentStore`` holds an internal re-entrant lock, keeps one file per
entry, and writes each through its own temp file (pid + thread id +
counter), so interleaved writers can never publish a partially written
entry and trip the corruption-recovery path, and writers of different
signatures never overwrite each other.
"""

import glob
import multiprocessing
import os
import threading
from types import SimpleNamespace

from repro.cache import ScheduleCache
from repro.cache.store import PersistentStore
from repro.gpu.specs import A100
from repro.ir.chain import gemm_chain
from repro.tiling.expr import TilingExpr


def stub_report(i: int) -> SimpleNamespace:
    """A minimal object satisfying ScheduleCache.put's TuneReport duck type.

    The stored expression/tiles never get re-expanded here, so a real tuned
    schedule is unnecessary — which is what lets this suite hammer the
    store with dozens of distinct signatures in milliseconds.
    """
    schedule = SimpleNamespace(
        expr=TilingExpr.parse("mhnk"), tiles={"m": 16, "n": 16}, optimized=True
    )
    return SimpleNamespace(
        best_time=1e-5 + i * 1e-8,
        best_schedule=schedule,
        tuning_seconds=0.5,
        variant="mcfuser",
        strategy="evolutionary",
    )


def no_corruption(directory) -> bool:
    return not glob.glob(os.path.join(str(directory), "**", "*.corrupt"), recursive=True)


def put_many(directory, base: int, count: int, start) -> None:
    """One writer process: open the cache, wait for the shared start, then
    put ``count`` distinct workloads."""
    cache = ScheduleCache(directory)
    chains = [
        gemm_chain(1, 64 + 16 * (base + i), 64, 32, 32, name=f"mp-{base}-{i}")
        for i in range(count)
    ]
    start.wait(60)
    for i, chain in enumerate(chains):
        cache.put(chain, A100, stub_report(base + i))


class TestScheduleCacheThreaded:
    def test_concurrent_writers_and_readers(self, tmp_path):
        """8 threads x 8 distinct signatures each, with interleaved reads."""
        cache = ScheduleCache(tmp_path)
        chains = {
            (t, i): gemm_chain(1, 64 + 16 * t, 64 + 16 * i, 32, 32, name=f"cc-{t}-{i}")
            for t in range(8)
            for i in range(8)
        }
        errors: list[BaseException] = []

        def writer(t: int):
            try:
                for i in range(8):
                    chain = chains[(t, i)]
                    cache.put(chain, A100, stub_report(t * 8 + i))
                    # read back own and a neighbour's workload
                    cache.get(chain, A100)
                    cache.get(chains[((t + 1) % 8, i)], A100)
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(t,)) for t in range(8)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()

        assert not errors
        assert no_corruption(tmp_path)
        # every signature survived, and a fresh instance (= new process)
        # reads them all back from the file
        fresh = ScheduleCache(tmp_path)
        assert fresh.stats().disk_entries == 64
        for chain in chains.values():
            assert fresh.get(chain, A100) is not None

    def test_concurrent_hits_keep_counters_consistent(self, tmp_path):
        cache = ScheduleCache(tmp_path)
        chain = gemm_chain(1, 128, 128, 64, 64, name="cc-hits")
        cache.put(chain, A100, stub_report(0))

        def reader():
            for _ in range(10):
                assert cache.get(chain, A100) is not None

        threads = [threading.Thread(target=reader) for _ in range(6)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        assert cache.stats().hits == 60
        assert no_corruption(tmp_path)
        # persisted cumulative counters match too
        assert ScheduleCache(tmp_path).stats().total_hits == 60


class TestPersistentStoreSharedPath:
    def test_two_instances_one_path_merge_not_clobber(self, tmp_path):
        """Two stores writing one directory concurrently must both land.

        This models two ScheduleCache processes sharing a cache directory,
        compressed into threads: every entry written by either instance
        must survive on disk, with no corruption quarantine.
        """
        path = tmp_path / "schedules"
        store_a = PersistentStore(path)
        store_b = PersistentStore(path)

        def fill(store: PersistentStore, base: int):
            for i in range(12):
                chain = gemm_chain(1, 64 + 16 * (base + i), 64, 32, 32,
                                   name=f"ps-{base}-{i}")
                # build a CacheEntry through the public put() of a
                # memory-only cache, then hand it to the store under test
                made = ScheduleCache(path=None).put(chain, A100, stub_report(base + i))
                store.put(made)

        t_a = threading.Thread(target=fill, args=(store_a, 0))
        t_b = threading.Thread(target=fill, args=(store_b, 100))
        t_a.start()
        t_b.start()
        t_a.join()
        t_b.join()

        assert no_corruption(tmp_path)
        merged = PersistentStore(path)
        assert len(merged) == 24
        assert no_corruption(tmp_path)


class TestScheduleCacheProcesses:
    def test_two_processes_lose_no_entries(self, tmp_path):
        """Two processes x 200 puts into one directory, released together:
        a fresh open sees all 400 entries and nothing was quarantined."""
        ctx = multiprocessing.get_context("spawn")
        start = ctx.Event()
        procs = [
            ctx.Process(target=put_many, args=(str(tmp_path), base, 200, start))
            for base in (0, 1000)
        ]
        for proc in procs:
            proc.start()
        start.set()
        for proc in procs:
            proc.join(120)
        assert [proc.exitcode for proc in procs] == [0, 0]
        assert ScheduleCache(tmp_path).stats().disk_entries == 400
        assert no_corruption(tmp_path)
