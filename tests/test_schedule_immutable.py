"""A built schedule cannot change, so warm hits can share one rebuild.

Writing to a schedule's fields, its tiles or its loop tree raises. The
request-shape rebuild memo in :mod:`repro.search.tuner` hands the same
schedule object to every report of one decision on one chain (structure
and name), and a distinct one whenever anything that reaches the
schedule differs.
"""

import dataclasses
import sys
import threading

import pytest

from conftest import QUICK
from repro.cache.store import CacheEntry
from repro.gpu.specs import A100
from repro.ir.chain import gemm_chain
from repro.search import tuner as tuner_mod
from repro.search.tuner import TuneReport, rebind_report, report_from_entry
from repro.tiling.expr import TilingExpr
from repro.tiling.schedule import LoopScope, build_schedule
from repro.utils import LRUCache

EXPR = "mhnk"
TILES = {"m": 32, "n": 16, "k": 16, "h": 16}


def _chain(name="g", m=96):
    return gemm_chain(1, m, 64, 64, 32, name=name)


def _entry(tiles=TILES, optimized=True) -> CacheEntry:
    return CacheEntry(
        signature="sig", workload="g", gpu=A100.name, variant="mcfuser",
        expr=EXPR, tiles=dict(tiles), optimized=optimized,
        best_time=1e-5, tuning_seconds=1.0,
    )


def _hit(chain, **entry_kwargs) -> TuneReport:
    return report_from_entry(chain, A100, _entry(**entry_kwargs), QUICK)


def _scopes(scope: LoopScope):
    yield scope
    for item in scope.body:
        if isinstance(item, LoopScope):
            yield from _scopes(item)


class TestFrozenSchedule:
    @pytest.fixture
    def sched(self):
        return build_schedule(_chain(), TilingExpr.parse(EXPR), TILES, optimize=False)

    def test_tiles_are_read_only(self, sched):
        with pytest.raises(TypeError):
            sched.tiles["m"] = 64
        assert sched.tiles["m"] == 32

    def test_tiles_are_a_private_copy(self):
        tiles = dict(TILES)
        sched = build_schedule(_chain(), TilingExpr.parse(EXPR), tiles)
        tiles["m"] = 64
        assert sched.tiles["m"] == 32

    def test_fields_are_frozen(self, sched):
        with pytest.raises(dataclasses.FrozenInstanceError):
            sched.grid_dims = ()
        with pytest.raises(dataclasses.FrozenInstanceError):
            sched.tiles = {}

    def test_extents_are_read_only(self, sched):
        with pytest.raises(TypeError):
            sched.extents["m"] = 1

    def test_loop_tree_is_frozen(self, sched):
        scopes = list(_scopes(sched.root))
        assert len(scopes) > 1
        for scope in scopes:
            assert isinstance(scope.body, tuple)
        inner = scopes[1]
        with pytest.raises(TypeError):
            inner.body[0] = inner.body[-1]
        with pytest.raises(dataclasses.FrozenInstanceError):
            inner.extent = 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            inner.body = ()

    def test_content_key_is_computed_once(self, sched):
        assert sched.content_key is sched.content_key
        rebuilt = build_schedule(_chain(name="other"), TilingExpr.parse(EXPR), TILES,
                                 optimize=False)
        assert rebuilt.content_key == sched.content_key


class TestRebuildMemo:
    def test_equal_chains_share_one_schedule(self):
        a, b = _chain(), _chain()
        assert a is not b
        ra, rb = _hit(a), _hit(b)
        assert ra.best_schedule is rb.best_schedule
        # The report keeps the request's own chain object.
        assert ra.chain is a and rb.chain is b

    def test_rebind_shares_the_hit_schedule(self):
        hit = _hit(_chain())
        tuned = _hit(_chain(m=128))
        rebound = rebind_report(tuned, _chain())
        assert rebound.best_schedule is hit.best_schedule

    def test_renamed_chains_get_their_own_schedule(self):
        a, b = _hit(_chain(name="layer0")), _hit(_chain(name="layer1"))
        assert a.best_schedule is not b.best_schedule
        assert a.best_schedule.content_key == b.best_schedule.content_key
        launch_a = a.best_schedule.kernel_launch(A100)
        launch_b = b.best_schedule.kernel_launch(A100)
        assert launch_a.name != launch_b.name
        assert launch_a.name.startswith("layer0:")
        assert launch_b.name.startswith("layer1:")

    def test_optimized_flag_splits(self):
        chain = _chain()
        tiles = {**TILES, "k": 64}  # k collapses to extent 1: the flag matters
        opt = _hit(chain, tiles=tiles, optimized=True).best_schedule
        base = _hit(chain, tiles=tiles, optimized=False).best_schedule
        assert opt is not base
        assert (opt.optimized, base.optimized) == (True, False)

    def test_tiles_split(self):
        chain = _chain()
        a = _hit(chain).best_schedule
        b = _hit(chain, tiles={**TILES, "m": 16}).best_schedule
        assert a is not b
        assert (a.tiles["m"], b.tiles["m"]) == (32, 16)

    def test_shapes_split(self):
        a = _hit(_chain(m=96)).best_schedule
        b = _hit(_chain(m=128)).best_schedule
        assert a is not b
        assert (a.chain.loops["m"], b.chain.loops["m"]) == (96, 128)

    def test_memo_stays_within_its_cap(self, monkeypatch):
        monkeypatch.setattr(tuner_mod, "_REBUILD_MEMO", LRUCache(capacity=3))
        for m in range(64, 64 + 10 * 16, 16):
            _hit(_chain(m=m))
            assert len(tuner_mod._REBUILD_MEMO) <= 3

    def test_a_hit_builds_once(self, monkeypatch):
        calls = []
        real = tuner_mod.build_schedule

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(tuner_mod, "build_schedule", counting)
        for _ in range(3):
            _hit(_chain())
        assert len(calls) == 1


def test_concurrent_hits_get_their_own_content(monkeypatch):
    """Threads racing on a small memo (more threads than cores, short
    switch interval) each get a schedule of exactly the chain they asked
    for, whatever the interleaving of misses, inserts and evictions."""
    monkeypatch.setattr(tuner_mod, "_REBUILD_MEMO", LRUCache(capacity=4))
    chains = [_chain(name=f"c{i % 3}", m=64 + 16 * (i % 5)) for i in range(15)]
    errors = []

    def worker(offset):
        try:
            for i in range(60):
                chain = chains[(i + offset) % len(chains)]
                schedule = _hit(chain).best_schedule
                assert schedule.chain.name == chain.name
                assert schedule.chain.structure_key() == chain.structure_key()
                assert dict(schedule.tiles) == TILES
        except Exception as exc:  # reported below, with the thread's failure
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
