"""Every process-wide memo is one kind of map: a locked, bounded LRU
(:class:`repro.utils.LRUCache`), or ``functools.lru_cache`` for functions
of hashable arguments. One :func:`repro.utils.clear_memos` empties them all.
"""

import gc
import random
import sys
import threading
import time
import weakref
from collections import OrderedDict
from dataclasses import dataclass

from conftest import QUICK
from repro.cache import signature
from repro.codegen import clang_runtime, program, render_c
from repro.codegen.program import lower_schedule
from repro.codegen.render_c import render_program
from repro.gpu.specs import A100
from repro.ir.chain import gemm_chain
from repro.search import MCFuserTuner
from repro.search import tuner as tuner_mod
from repro.search.engine import pipeline
from repro.tiling.expr import TilingExpr
from repro.utils import PROCESS_MEMOS, LRUCache, clear_memos


def _size(memo) -> int:
    return len(memo) if isinstance(memo, LRUCache) else memo.cache_info().currsize


@dataclass(frozen=True)
class _YieldingKey:
    i: int

    def __hash__(self) -> int:
        time.sleep(0)  # let another thread run
        return self.i


class _CountingKey:
    """A key that counts how often it is hashed."""

    def __init__(self) -> None:
        self.hashes = 0

    def __hash__(self) -> int:
        self.hashes += 1
        return 7


class TestLRUCache:
    def test_hit_hashes_its_key_once(self):
        """A hit is one lookup plus a relink: the key is hashed once, also
        when the hit refreshes an entry that is not yet the newest."""
        lru = LRUCache(capacity=3)
        key = _CountingKey()
        lru.put(key, "value")
        lru.put("other", 1)
        key.hashes = 0
        assert lru.get(key) == "value"
        assert key.hashes == 1
        assert lru.get(key) == "value"
        assert key.hashes == 2


    def test_put_returns_the_value(self):
        value = object()
        assert LRUCache(capacity=1).put("a", value) is value
        assert LRUCache(capacity=0).put("a", value) is value

    def test_put_replaces_and_refreshes(self):
        lru = LRUCache(capacity=2)
        lru.put("a", 1)
        lru.put("b", 2)
        lru.put("a", 3)  # a is now the newest, b the oldest
        lru.put("c", 4)
        assert (lru.get("a"), lru.get("b"), lru.get("c"), len(lru)) == (3, None, 4, 2)

    def test_matches_an_ordered_dict_model(self):
        """Random gets and puts keep the same entries, and evict in the same
        order, as an LRU modelled on an ``OrderedDict``."""
        rng = random.Random(0)
        for capacity in (1, 2, 5):
            lru, model = LRUCache(capacity), OrderedDict()
            for step in range(2000):
                key = rng.randrange(8)
                if rng.random() < 0.5:
                    expected = model.get(key)
                    if expected is not None:
                        model.move_to_end(key)
                    assert lru.get(key) == expected
                else:
                    model[key] = step
                    model.move_to_end(key)
                    while len(model) > capacity:
                        model.popitem(last=False)
                    assert lru.put(key, step) == step
                assert len(lru) == len(model) and all(k in lru for k in model)

    def test_clear_and_eviction_free_values_at_once(self):
        """Cleared and evicted values are released by reference counting,
        without waiting for the cycle collector (kernel memos hold loaded
        native modules)."""

        class Value:
            pass

        lru = LRUCache(capacity=2)
        values = [Value() for _ in range(3)]
        refs = [weakref.ref(v) for v in values]
        gc.disable()
        try:
            for i, value in enumerate(values):
                lru.put(i, value)
            del values, value
            assert [r() is None for r in refs] == [True, False, False]
            lru.clear()
            assert [r() is None for r in refs] == [True, True, True]
        finally:
            gc.enable()

    def test_eviction_follows_recency(self):
        """Entries leave in least-recently-used order, whatever mix of gets
        and puts refreshed them."""
        lru = LRUCache(capacity=3)
        for key in "abc":
            lru.put(key, key)
        lru.get("a")
        lru.put("b", "b")
        lru.get("c")
        evicted = []
        for key in "xyz":
            before = {k for k in "abc" if k in lru}
            lru.put(key, key)
            evicted += sorted(before - {k for k in "abc" if k in lru})
        assert evicted == ["a", "b", "c"]
        lru.clear()
        assert len(lru) == 0 and lru.get("z") is None
        lru.put("q", 1)
        assert lru.get("q") == 1

    def test_concurrent_get_then_put(self):
        """Eight threads doing get-then-put over nine keys on a capacity-4
        map, switching threads as often as the interpreter allows: every
        get sees its key's own value or a miss, nothing raises, and the
        bound holds. The keys give up the GIL while hashing, so a switch
        can land inside any map operation (real memo keys hash in Python
        too: they hold frozen dataclasses). Without the map's lock, an
        operation that another thread's eviction interleaves with raises
        ``KeyError``."""
        lru = LRUCache(capacity=4)
        keys = [_YieldingKey(i) for i in range(9)]
        start = threading.Barrier(8)
        errors = []

        def worker(offset):
            start.wait()
            try:
                for i in range(200):
                    key = keys[(i + offset) % 9]
                    value = lru.get(key)
                    assert value in (None, key)
                    if value is None:
                        lru.put(key, key)
            except Exception as exc:  # reported below, with the thread's failure
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(k,)) for k in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert len(lru) <= 4


def test_every_memo_is_registered():
    memos = [
        pipeline._CORES,
        pipeline._SURVIVORS,
        tuner_mod._REBUILD_MEMO,
        tuner_mod._REFERENCES,
        program._FACTS_MEMO,
        program._LOWER_MEMO,
        render_c._RENDER_MEMO,
        signature._workload_digest,
        signature._bucketed_digest,
        TilingExpr.parse,
        clang_runtime._discover,
    ]
    assert all(any(memo is m for m in PROCESS_MEMOS) for memo in memos)


def test_clear_memos_empties_every_memo():
    chain = gemm_chain(1, 96, 64, 32, 32, name="memo-clear")
    report = MCFuserTuner(A100, config=QUICK.evolve(verify="best")).tune(chain)
    signature.workload_signature(chain, A100)
    signature.bucketed_signature(chain, A100)
    best = report.best_candidate
    tuner_mod._rebuilt_schedule(chain, TilingExpr.parse(best.expr.render()), best.tile_dict, True)
    render_program(lower_schedule(report.best_schedule))
    clang_runtime.find_compiler()
    assert all(_size(memo) > 0 for memo in PROCESS_MEMOS)
    clear_memos()
    assert [_size(memo) for memo in PROCESS_MEMOS] == [0] * len(PROCESS_MEMOS)
