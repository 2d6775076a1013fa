"""Every ``FLAG_LADDER`` rung builds the emitted C and runs it correctly.

The runtime walks ``FLAG_LADDER`` down whenever the compiler rejects a
flag set, so a kernel must compile and agree with the reference at every
rung: with ``-march=native`` and without it (the ``mcf_v`` microkernel
vectors then lower to the baseline ISA), with OpenMP threads, with only
``-fopenmp-simd`` (no threads, no libmvec declarations), and with no
extra flag at all. The chains have ragged extents, so partial tiles,
zero-filled padding, the microkernel's scalar column tail and the
blocked transposed copy all run.

Each build gets its own kernel dir, hence its own ``.so`` path:
``dlopen`` hands back the already-loaded library for a path it has seen,
and rewriting a mapped ``.so`` corrupts the process. Skips without a C
compiler; a rung the compiler itself rejects (say, no OpenMP runtime)
skips, while a rung it accepts must build the kernel.
"""

import subprocess

import numpy as np
import pytest

from repro.codegen import clang_runtime
from repro.codegen.clang_runtime import (
    FLAG_LADDER,
    ClangRuntime,
    compiler_available,
    execute_program_compiled,
    find_compiler,
)
from repro.codegen.interpreter import execute_schedule
from repro.codegen.program import lower_schedule
from repro.ir.chain import attention_chain, gemm3_chain
from repro.tiling.expr import TilingExpr
from repro.tiling.schedule import build_schedule

pytestmark = pytest.mark.skipif(
    not compiler_available(), reason="no C compiler (clang/cc/gcc) on PATH"
)

RTOL, ATOL = 2e-4, 5e-5


def _attention():
    # m and n ragged; the h tile is two vectors plus an 8-column tail; the
    # 32x32 K tile is transposed in 16x16 blocks.
    chain = attention_chain(2, 100, 80, 32, 40, name="ladder-attn")
    return chain, "mn(k,h)", {"m": 32, "n": 32, "k": 32, "h": 40}


def _gemm3_gelu():
    # m and h ragged; inner tiles of 4 vectors (n), 2 vectors (h) and one
    # vector plus a 4-column tail (p).
    chain = gemm3_chain(2, 100, 64, 40, 48, 40, name="ladder-g3", epilogue="gelu")
    return chain, "npmhk", {"m": 16, "n": 64, "k": 16, "h": 32, "p": 20}


CASES = {"attention": _attention, "gemm3-gelu": _gemm3_gelu}


def _rung_id(rung: tuple[str, ...]) -> str:
    return " ".join(rung) or "no-flags"


def _compiler_accepts(cc: str, rung: tuple[str, ...], tmp_path) -> bool:
    src = tmp_path / "probe.c"
    src.write_text("int probe(void) { return 0; }\n")
    cmd = [cc, "-shared", "-fPIC", "-O3", str(src), "-o", str(tmp_path / "probe.so"), *rung]
    return subprocess.run(cmd, capture_output=True).returncode == 0


@pytest.mark.parametrize("rung", FLAG_LADDER, ids=_rung_id)
@pytest.mark.parametrize("case", sorted(CASES))
def test_rung_builds_a_correct_kernel(case, rung, tmp_path, monkeypatch):
    cc = find_compiler()
    if not _compiler_accepts(cc, rung, tmp_path):
        pytest.skip(f"{cc} rejects the flag set {_rung_id(rung)!r}")
    monkeypatch.setattr(clang_runtime, "FLAG_LADDER", (rung,))
    runtime = ClangRuntime(cache_dir=str(tmp_path / "kernels"))
    chain, expr, tiles = CASES[case]()
    schedule = build_schedule(chain, TilingExpr.parse(expr), tiles)
    inputs = chain.random_inputs(0)
    out = execute_program_compiled(lower_schedule(schedule), inputs, runtime=runtime)
    assert runtime.stats().compiles == 1  # built here, at this rung only
    got = out[chain.output]
    scalar = execute_schedule(schedule, inputs, backend="scalar")[chain.output]
    np.testing.assert_allclose(got, scalar, rtol=RTOL, atol=ATOL)
    np.testing.assert_allclose(got, chain.reference(inputs)[chain.output], rtol=RTOL, atol=ATOL)
