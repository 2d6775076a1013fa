"""Shared fixtures for the test suite: small chains, GPUs, quick tuners."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import SessionConfig
from repro.gpu import A100, GENERIC, RTX3080, GPUSimulator
from repro.ir import attention_chain, gemm_chain
from repro.search import MCFuserTuner
from repro.search.space import SearchSpace, SpacePoints
from repro.tiling.schedule import ScheduleWork

#: The shared quick tuning budget (seed 0). Tests that need a different
#: budget derive it with ``QUICK.evolve(...)``; import it with
#: ``from conftest import QUICK``.
QUICK = SessionConfig.make(population_size=64, top_n=4, max_rounds=2, min_rounds=1)


def empty_space(space: SearchSpace) -> SearchSpace:
    """``space`` with no points left: same chain, GPU, funnel and options."""
    none, nothing = np.zeros(0, dtype=np.int64), np.zeros(0)
    points = SpacePoints(
        exprs=(),
        expr_id=none,
        tiles=np.zeros((0, len(space.chain.loop_names)), dtype=np.int64),
        work=ScheduleWork(nothing, nothing, nothing, none, none),
        template=none,
        templates=(),
    )
    return SearchSpace(space.chain, space.gpu, points, space.stats, space.tile_options)


@pytest.fixture(autouse=True)
def _isolated_schedule_cache(tmp_path, monkeypatch):
    """Point the default schedule-cache directory at a per-test temp dir so
    tests (CLI tests in particular) never touch ~/.cache or each other, and
    reset the process-wide compiled-kernel memo, every other process memo
    (:func:`repro.utils.clear_memos`), tracer, and obs metrics registry
    between tests. Native kernel builds a test started in the
    background (a first run prefetches every deferred build) finish before
    the next test begins."""
    from repro.codegen import clear_kernel_cache, get_runtime
    from repro.obs import disable_tracing, reset_metrics
    from repro.utils import clear_memos

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "schedule-cache"))
    clear_kernel_cache()
    clear_memos()
    reset_metrics()
    disable_tracing()
    yield
    get_runtime().drain()
    disable_tracing()
    reset_metrics()


@pytest.fixture
def store_io(monkeypatch):
    """Record every ``open`` and ``os.replace`` the schedule store makes,
    including those inside :func:`repro.utils.atomic_write`, as
    ``(op, path, mode)`` tuples (``op`` is ``"open"`` or ``"replace"``;
    a replace records its destination)."""
    import builtins
    import os

    from repro import utils
    from repro.cache import store

    calls: list[tuple[str, str, str | None]] = []
    real_open, real_replace = builtins.open, os.replace

    def spy_open(file, mode="r", *args, **kwargs):
        calls.append(("open", os.fspath(file), mode))
        return real_open(file, mode, *args, **kwargs)

    def spy_replace(src, dst, *args, **kwargs):
        calls.append(("replace", os.fspath(dst), None))
        return real_replace(src, dst, *args, **kwargs)

    for module in (store, utils):
        monkeypatch.setattr(module, "open", spy_open, raising=False)
    monkeypatch.setattr(os, "replace", spy_replace)
    return calls


@pytest.fixture
def a100():
    return A100


@pytest.fixture
def rtx3080():
    return RTX3080


@pytest.fixture
def generic_gpu():
    return GENERIC


@pytest.fixture
def sim(a100):
    return GPUSimulator(a100, seed=0)


@pytest.fixture
def small_gemm():
    """Small GEMM chain (all dims multiples of 16) — fast to interpret."""
    return gemm_chain(2, 96, 80, 64, 48, name="t-gemm")


@pytest.fixture
def small_attention():
    """Small attention chain — fast to interpret."""
    return attention_chain(3, 96, 96, 32, 32, name="t-attn")


@pytest.fixture
def ragged_gemm():
    """GEMM chain with non-multiple-of-16 dims (padding paths)."""
    return gemm_chain(1, 100, 90, 70, 60, name="t-ragged")


@pytest.fixture
def quick_tuner(a100):
    """A tuner with a small budget for integration tests."""
    config = QUICK.evolve(population_size=96, top_n=6, max_rounds=4, min_rounds=2)
    return MCFuserTuner(a100, config=config)
