"""Compiled-backend microbenchmark: native C kernels vs vectorized numpy.

Measures functional execution of tuned-style schedules for the attention
module and the three-GEMM chain on the compiled and vectorized backends,
asserts the acceptance criterion — the compiled backend is at least
``MIN_SPEEDUP`` x faster while agreeing with ``ComputeChain.reference`` —
and records the numbers into the ``BENCH_compiled.json`` artifact.

The tile shapes differ from ``test_exec_backend``: the C emitter's
register-blocked contractions favor wider unit-stride tiles than numpy's
einsum batching, so each backend is benchmarked at a configuration it was
tuned for rather than a shared compromise.

Skips with an explicit marker when no C compiler is on PATH. Quick mode
(``REPRO_BENCH_QUICK=1``) shrinks the shapes to keep the sweep under a
few seconds per workload.
"""

import os
import time

import numpy as np
import pytest

from conftest import QUICK, record_bench

from repro.codegen.clang_runtime import compiler_available
from repro.codegen.interpreter import execute_schedule, resolve_exec_backend
from repro.ir.chain import attention_chain, gemm3_chain
from repro.tiling.expr import TilingExpr
from repro.tiling.schedule import build_schedule

pytestmark = pytest.mark.skipif(
    not compiler_available(),
    reason="no C compiler on PATH; compiled backend unavailable",
)

#: Acceptance floor: compiled must beat vectorized by at least this factor.
MIN_SPEEDUP = 2.0

#: fp32 agreement with the unfused reference. The compiled backend
#: accumulates each output element serially in contracted order, fusing
#: multiplies into FMAs under -march=native, while numpy blocks its dot
#: products; big-k contractions differ at ~1e-4 — the same order as
#: vectorized-vs-scalar drift on these shapes.
RTOL, ATOL = 1e-3, 1e-3


def _attention_case():
    """FlashAttention-style flat tiling over a multi-head attention module."""
    m = 512 if QUICK else 1024
    chain = attention_chain(8, m, m, 32, 32, name=f"bench-cattn-{m}")
    tiles = {"m": 32, "n": 64, "k": 32, "h": 32}
    return chain, "mn(k,h)", tiles


def _gemm3_case():
    """Three chained GEMMs (MLP stack) under a deep tiling."""
    m = 512 if QUICK else 1024
    chain = gemm3_chain(2, m, 256, 64, 64, 64, name=f"bench-cg3-{m}")
    tiles = {"m": 16, "n": 16, "k": 16, "h": 64, "p": 64}
    return chain, "mnkhp", tiles


CASES = {"attention": _attention_case, "gemm3": _gemm3_case}


def _omp_threads() -> int:
    """Threads the compiled kernels' OpenMP grid loop runs on:
    ``OMP_NUM_THREADS`` when set, else the runtime default of one per CPU."""
    env = os.environ.get("OMP_NUM_THREADS", "").split(",")[0].strip()
    return int(env) if env.isdigit() else (os.cpu_count() or 1)


def _time_backend(schedule, inputs, backend, repeats):
    best = float("inf")
    out = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = execute_schedule(schedule, inputs, backend=backend)
        best = min(best, time.perf_counter() - t0)
    return best, out


@pytest.mark.parametrize("case", sorted(CASES))
def test_compiled_speedup(case, run_once):
    chain, expr, tiles = CASES[case]()
    schedule = build_schedule(chain, TilingExpr.parse(expr), tiles)
    assert resolve_exec_backend(schedule, "compiled") == "compiled"
    inputs = chain.random_inputs(0)
    ref = chain.reference(inputs)[chain.output]

    # Warm both paths outside the clock: first compiled call renders and
    # invokes the C compiler (disk-cached thereafter), first vectorized
    # call populates the lowering memo.
    execute_schedule(schedule, inputs, backend="compiled")
    execute_schedule(schedule, inputs, backend="vectorized")

    def measure():
        # min-of-5 for both backends: single-core box, both sides are
        # milliseconds-scale and exposed to scheduler jitter.
        t_c, out_c = _time_backend(schedule, inputs, "compiled", repeats=5)
        t_vec, out_vec = _time_backend(schedule, inputs, "vectorized", repeats=5)
        return t_c, t_vec, out_c, out_vec

    t_c, t_vec, out_c, out_vec = run_once(measure)
    speedup = t_vec / t_c
    np.testing.assert_allclose(
        out_c[chain.output], ref, rtol=RTOL, atol=ATOL,
        err_msg=f"compiled diverged from reference on {chain.name}",
    )
    np.testing.assert_allclose(
        out_c[chain.output], out_vec[chain.output], rtol=RTOL, atol=ATOL,
        err_msg=f"backend parity broke on {chain.name}",
    )
    record_bench(
        "compiled",
        f"compiled_backend[{case}]",
        workload=chain.name,
        schedule=schedule.describe(),
        grid_cells=schedule.grid_size,
        vectorized_seconds=t_vec,
        compiled_seconds=t_c,
        speedup=speedup,
        min_speedup=MIN_SPEEDUP,
        omp_num_threads=_omp_threads(),
        quick=QUICK,
    )
    print(f"\n{chain.name}: vectorized {t_vec * 1e3:.1f}ms  "
          f"compiled {t_c * 1e3:.1f}ms  speedup {speedup:.1f}x")
    assert speedup >= MIN_SPEEDUP, (
        f"{case}: compiled backend only {speedup:.1f}x faster than vectorized "
        f"(need >= {MIN_SPEEDUP}x)"
    )
