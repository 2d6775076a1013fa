"""Unit tests for runtime modules (OperatorModule / GraphExecutorFactory)
and the LRU map behind the kernel memos."""

import numpy as np
import pytest

from repro.codegen.runtime import (
    GraphExecutorFactoryModule,
    OperatorModule,
    compile_schedule,
)
from repro.gpu.kernel import KernelLaunch
from repro.gpu.simulator import GPUSimulator
from repro.gpu.specs import A100
from repro.tiling.expr import TilingExpr
from repro.tiling.schedule import build_schedule
from repro.utils import LRUCache

TILES = {"m": 32, "n": 16, "k": 16, "h": 16}


@pytest.fixture
def module(small_gemm):
    sched = build_schedule(small_gemm, TilingExpr.parse("mhnk"), TILES)
    return compile_schedule(sched, A100)


class TestOperatorModule:
    def test_run_matches_reference(self, module, small_gemm):
        inputs = small_gemm.random_inputs(0)
        out = module.run(inputs)["E"]
        ref = small_gemm.reference(inputs)["E"]
        np.testing.assert_allclose(out, ref, rtol=1e-4, atol=1e-5)

    def test_time_positive_and_deterministic(self, module):
        sim = GPUSimulator(A100, seed=0)
        assert module.time(sim) == module.time(sim) > 0

    def test_kernel_cached(self, module):
        assert module.kernel is module.kernel

    def test_triton_and_ptx_attached(self, module):
        assert "tl.dot" in module.triton.render()
        assert ".entry" in module.ptx


class TestFactoryModule:
    def _kernel(self, name):
        return KernelLaunch(
            name=name,
            grid=108,
            flops=1e9,
            dram_read_bytes=1e6,
            dram_write_bytes=1e5,
            shared_mem_bytes=4096,
        )

    def test_time_sums_plan(self):
        factory = GraphExecutorFactoryModule(name="f", gpu=A100)
        factory.add("k1", self._kernel("k1"))
        factory.add("k2", self._kernel("k2"))
        sim = GPUSimulator(A100, seed=0)
        assert factory.time(sim) == pytest.approx(
            sim.run(self._kernel("k1")) + sim.run(self._kernel("k2"))
        )

    def test_add_module(self, module):
        factory = GraphExecutorFactoryModule(name="f", gpu=A100)
        factory.add_module(module)
        assert factory.kernel_count() == 1
        assert factory.operator_modules == [module]

    def test_breakdown_labels(self, module):
        factory = GraphExecutorFactoryModule(name="f", gpu=A100)
        factory.add("lib:x", self._kernel("x"))
        factory.add_module(module)
        breakdown = factory.breakdown()
        assert len(breakdown) == 2
        assert breakdown[0][0] == "lib:x"
        assert breakdown[1][0].startswith("mcfuser:")


class TestLRU:
    def test_basic_get_put(self):
        lru = LRUCache(capacity=4)
        e = object()
        lru.put("sig1", e)
        assert lru.get("sig1") is e
        assert lru.get("sig2") is None
        assert len(lru) == 1

    def test_eviction_is_least_recently_used(self):
        lru = LRUCache(capacity=2)
        lru.put("a", object())
        lru.put("b", object())
        lru.get("a")  # refresh a, so b is now oldest
        lru.put("c", object())
        assert "a" in lru and "c" in lru and "b" not in lru

    def test_capacity_zero_disables(self):
        lru = LRUCache(capacity=0)
        lru.put("a", object())
        assert len(lru) == 0 and lru.get("a") is None

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            LRUCache(capacity=-1)
