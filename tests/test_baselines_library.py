"""Unit tests for the library (PyTorch/cuBLAS) execution model."""

import pytest

from repro.baselines.library import (
    EAGER_OVERHEAD_PER_OP,
    PyTorchBaseline,
    chain_unfused_kernels,
    elementwise_kernel,
    gemm_kernel,
    normalization_kernel,
    softmax_kernel,
    transpose_kernel,
)
from repro.gpu.simulator import GPUSimulator
from repro.gpu.specs import A100
from repro.ir.chain import attention_chain, gemm_chain


class TestGemmKernel:
    def test_traffic_model(self):
        k = gemm_kernel("g", 1, 512, 512, 128, A100)
        tm, tn = k.tile_m, k.tile_n
        grid_m, grid_n = -(-512 // tm), -(-512 // tn)
        assert k.dram_read_bytes == pytest.approx(
            (grid_n * 512 * 128 + grid_m * 128 * 512) * 2.0
        )
        assert k.dram_write_bytes == pytest.approx(512 * 512 * 2.0)
        assert k.dram_compulsory_read_bytes == pytest.approx(2 * 512 * 128 * 2.0)

    def test_flops(self):
        k = gemm_kernel("g", 2, 128, 64, 32, A100)
        assert k.flops == 2.0 * 2 * 128 * 64 * 32

    def test_dispatch_picks_fast_tile(self):
        sim = GPUSimulator(A100, jitter=False)
        chosen = gemm_kernel("g", 1, 2048, 2048, 512, A100)
        assert chosen.tile_m >= 64  # big GEMMs use big tiles

    def test_tiles_clamped_to_problem(self):
        k = gemm_kernel("g", 1, 32, 32, 16, A100)
        assert k.tile_m <= 32 and k.tile_n <= 32 and k.tile_k <= 16

    def test_strided_batch_derate(self):
        single = gemm_kernel("g", 1, 256, 256, 64, A100)
        batched = gemm_kernel("g", 8, 256, 256, 64, A100)
        assert batched.efficiency < single.efficiency

    def test_short_k_derate(self):
        short = gemm_kernel("g", 1, 512, 512, 32, A100)
        long = gemm_kernel("g", 1, 512, 512, 512, A100)
        assert short.efficiency < long.efficiency
        assert long.efficiency == pytest.approx(1.0)


class TestAuxKernels:
    def test_softmax_two_pass_reads(self):
        k = softmax_kernel("s", 2, 128, 256, A100)
        elements = 2 * 128 * 256
        assert k.dram_read_bytes == pytest.approx(4.0 * elements)
        assert k.dram_write_bytes == pytest.approx(2.0 * elements)

    def test_elementwise_grid_density(self):
        k = elementwise_kernel("e", 1 << 20, A100, num_inputs=2)
        assert k.grid == (1 << 20) // 1024
        assert k.dram_read_bytes == pytest.approx(2.0 * (1 << 20) * 2)

    def test_normalization_extra_pass(self):
        k = normalization_kernel("n", 256, 512, A100)
        assert k.dram_read_bytes > 2.0 * 256 * 512

    def test_transpose_read_write(self):
        k = transpose_kernel("t", 1 << 16, A100)
        assert k.dram_read_bytes == k.dram_write_bytes == pytest.approx(2.0 * (1 << 16))
        assert k.flops == 0.0


class TestChainLowering:
    def test_gemm_chain_two_kernels(self, small_gemm):
        kernels = chain_unfused_kernels(small_gemm, A100)
        assert len(kernels) == 2

    def test_attention_adds_softmax(self, small_attention):
        kernels = chain_unfused_kernels(small_attention, A100)
        assert len(kernels) == 3
        assert any("softmax" in k.name for k in kernels)

    def test_epilogue_adds_elementwise(self):
        chain = gemm_chain(1, 64, 64, 32, 32, epilogue="relu")
        kernels = chain_unfused_kernels(chain, A100)
        assert len(kernels) == 3


class TestPyTorchBaseline:
    def test_result_fields(self, small_gemm):
        r = PyTorchBaseline().run_chain(small_gemm, A100, seed=0)
        assert r.name == "PyTorch"
        assert not r.fused
        assert r.tuning_seconds == 0.0
        assert r.time > 0

    def test_eager_overhead_charged(self, small_attention):
        r = PyTorchBaseline().run_chain(small_attention, A100, seed=0)
        kernels = chain_unfused_kernels(small_attention, A100)
        raw = GPUSimulator(A100, seed=0).run_sequence(kernels)
        assert r.time == pytest.approx(raw + EAGER_OVERHEAD_PER_OP * len(kernels))

    def test_deterministic(self, small_gemm):
        a = PyTorchBaseline().run_chain(small_gemm, A100, seed=0)
        b = PyTorchBaseline().run_chain(small_gemm, A100, seed=0)
        assert a.time == b.time
