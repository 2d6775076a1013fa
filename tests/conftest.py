"""Shared fixtures for the test suite: small chains, GPUs, quick tuners."""

from __future__ import annotations

import pytest

from repro.config import SessionConfig
from repro.gpu import A100, GENERIC, RTX3080, GPUSimulator
from repro.ir import attention_chain, gemm_chain
from repro.search import MCFuserTuner

#: The shared quick tuning budget (seed 0). Tests that need a different
#: budget derive it with ``QUICK.evolve(...)``; import it with
#: ``from conftest import QUICK``.
QUICK = SessionConfig.make(population_size=64, top_n=4, max_rounds=2, min_rounds=1)


@pytest.fixture(autouse=True)
def _isolated_schedule_cache(tmp_path, monkeypatch):
    """Point the default schedule-cache directory at a per-test temp dir so
    tests (CLI tests in particular) never touch ~/.cache or each other, and
    reset the process-wide compiled-kernel memo, tracer, and obs metrics
    registry between tests."""
    from repro.codegen import clear_kernel_cache
    from repro.obs import disable_tracing, reset_metrics

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "schedule-cache"))
    clear_kernel_cache()
    reset_metrics()
    disable_tracing()
    yield
    disable_tracing()
    reset_metrics()


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
