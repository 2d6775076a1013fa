"""Vendor-library execution model: the PyTorch (cuBLAS/cuDNN) baseline.

PyTorch executes an MBCI chain *unfused*: every contraction is a separate
cuBLAS batched-GEMM launch and every softmax a separate memory-bound
kernel, with all intermediates round-tripping through DRAM. Library GEMMs
are extremely well tuned per tile (``codegen="cublas"``), so the only
thing MCFuser can beat them on is exactly what the paper exploits: DRAM
traffic and launch count.

The kernel constructors here are shared by the Relay/BOLT/Ansor fallback
paths and by the end-to-end executor, parameterized by code-generator
quality.
"""

from __future__ import annotations

from repro.baselines.base import Baseline, BaselineResult
from repro.gpu.kernel import KernelLaunch
from repro.gpu.memory import TileBuffer, measure_shared_memory
from repro.gpu.simulator import GPUSimulator
from repro.gpu.specs import GPUSpec
from repro.ir.chain import ComputeChain
from repro.utils import ceil_div, prod

__all__ = [
    "gemm_kernel",
    "softmax_kernel",
    "elementwise_kernel",
    "normalization_kernel",
    "transpose_kernel",
    "chain_unfused_kernels",
    "PyTorchBaseline",
]

#: cuBLAS-style threadblock tile menu (tm, tn); tk candidates below.
_TILE_MENU = [
    (256, 128),
    (128, 256),
    (128, 128),
    (128, 64),
    (64, 128),
    (64, 64),
    (64, 32),
    (32, 64),
    (32, 32),
    (16, 16),
]
_TK_MENU = [64, 32, 16]


def _round16(x: int) -> int:
    return max(16, ceil_div(x, 16) * 16)


def _gemm_shm(tm: int, tn: int, tk: int, gpu: GPUSpec, dtype_bytes: int = 2) -> int:
    buffers = [
        TileBuffer("a", tm, tk, dtype_bytes, role="operand", double_buffered=True),
        TileBuffer("b", tk, tn, dtype_bytes, role="operand", double_buffered=True),
        TileBuffer("c", tm, tn, dtype_bytes, role="accumulator"),
    ]
    return measure_shared_memory(buffers, gpu).total_bytes


def gemm_kernel(
    name: str,
    batch: int,
    m: int,
    n: int,
    k: int,
    gpu: GPUSpec,
    codegen: str = "cublas",
) -> KernelLaunch:
    """One library batched-GEMM launch with a dispatch-table tile choice.

    The library evaluates its (small) tile menu with the timing model and
    dispatches the best — the moral equivalent of cuBLAS's heuristics
    table. Traffic is the classic panel-reuse model: each column of blocks
    re-reads the A panel, each row re-reads the B panel.
    """
    sim = GPUSimulator(gpu, jitter=False)
    best: KernelLaunch | None = None
    best_time = float("inf")
    for tm, tn in _TILE_MENU:
        tm_c, tn_c = min(tm, _round16(m)), min(tn, _round16(n))
        for tk in _TK_MENU:
            tk_c = min(tk, _round16(k))
            shm = _gemm_shm(tm_c, tn_c, tk_c, gpu)
            if shm > gpu.shared_mem_per_block:
                continue
            grid_m, grid_n = ceil_div(m, tm_c), ceil_div(n, tn_c)
            grid = batch * grid_m * grid_n
            reads = (grid_n * m * k + grid_m * k * n) * batch * 2.0
            writes = m * n * batch * 2.0
            # Library kernels lose throughput on strided-batched layouts
            # and on short accumulation loops (pipeline prologue/epilogue
            # dominates when K is small) — the shapes where fused kernels
            # shine (Fig. 2's premise).
            derate = 1.0
            if batch > 1:
                derate *= 0.70
            derate *= min(1.0, 0.55 + 0.45 * k / 256.0)
            kernel = KernelLaunch(
                name=f"{name}[{tm_c}x{tn_c}x{tk_c}]",
                grid=grid,
                flops=2.0 * batch * m * n * k,
                dram_read_bytes=reads,
                dram_write_bytes=writes,
                shared_mem_bytes=shm,
                tile_m=tm_c,
                tile_n=tn_c,
                tile_k=tk_c,
                inner_contig_bytes=min(tn_c, n) * 2,
                codegen=codegen,
                efficiency=derate,
                dram_compulsory_read_bytes=(m * k + k * n) * batch * 2.0,
            )
            t = sim.run(kernel)
            if t < best_time:
                best, best_time = kernel, t
    assert best is not None
    return best


def softmax_kernel(
    name: str, batch: int, m: int, n: int, gpu: GPUSpec, codegen: str = "cublas"
) -> KernelLaunch:
    """Row-wise softmax: memory-bound, with a two-pass read (max, then
    exp-and-normalize) as in library implementations."""
    elements = batch * m * n
    return KernelLaunch(
        name=name,
        grid=max(1, batch * ceil_div(m, 4)),
        flops=5.0 * elements,
        dram_read_bytes=2.0 * 2.0 * elements,
        dram_write_bytes=2.0 * elements,
        shared_mem_bytes=4 * 1024,
        tile_m=4,
        tile_n=min(n, 1024),
        tile_k=16,
        inner_contig_bytes=min(n, 1024) * 2,
        codegen=codegen,
    )


def elementwise_kernel(
    name: str,
    elements: int,
    gpu: GPUSpec,
    flops_per_element: float = 1.0,
    num_inputs: int = 1,
    codegen: str = "cublas",
) -> KernelLaunch:
    """Fused elementwise kernel: ``num_inputs`` reads, one write.

    One 256-thread block per ~1K elements (4 elements/thread), the usual
    grid-stride sizing of library elementwise kernels.
    """
    return KernelLaunch(
        name=name,
        grid=max(1, ceil_div(elements, 1024)),
        flops=flops_per_element * elements,
        dram_read_bytes=2.0 * elements * num_inputs,
        dram_write_bytes=2.0 * elements,
        shared_mem_bytes=0,
        tile_m=16,
        tile_n=128,
        tile_k=16,
        inner_contig_bytes=256,
        codegen=codegen,
    )


def normalization_kernel(
    name: str, rows: int, cols: int, gpu: GPUSpec, codegen: str = "cublas"
) -> KernelLaunch:
    """LayerNorm-style kernel: two passes over the rows."""
    elements = rows * cols
    return KernelLaunch(
        name=name,
        grid=max(1, ceil_div(rows, 4)),
        flops=8.0 * elements,
        dram_read_bytes=2.0 * elements * 1.5,
        dram_write_bytes=2.0 * elements,
        shared_mem_bytes=2 * 1024,
        tile_m=4,
        tile_n=min(cols, 1024),
        tile_k=16,
        inner_contig_bytes=min(cols, 1024) * 2,
        codegen=codegen,
    )


def transpose_kernel(name: str, elements: int, gpu: GPUSpec, codegen: str = "cublas") -> KernelLaunch:
    """Materializing layout change: read + write every element."""
    return KernelLaunch(
        name=name,
        grid=max(1, ceil_div(elements, 2048)),
        flops=0.0,
        dram_read_bytes=2.0 * elements,
        dram_write_bytes=2.0 * elements,
        shared_mem_bytes=32 * 32 * 2,
        tile_m=32,
        tile_n=32,
        tile_k=16,
        inner_contig_bytes=64,
        codegen=codegen,
    )


def chain_unfused_kernels(
    chain: ComputeChain, gpu: GPUSpec, codegen: str = "cublas"
) -> list[KernelLaunch]:
    """The launch sequence a library framework issues for one chain:
    one batched GEMM per block, plus a standalone softmax where fused
    attention would have hidden it."""
    kernels: list[KernelLaunch] = []
    for block in chain.blocks:
        out_dims = chain.tensors[block.output].dims
        m = chain.loops[out_dims[0]]
        n = chain.loops[out_dims[-1]]
        k = int(prod(chain.loops[r] for r in block.reduction))
        if block.softmax_over is not None:
            first = chain.tensors[block.inputs[0]]
            sm_m = chain.loops[first.dims[0]]
            sm_n = chain.loops[first.dims[-1]]
            kernels.append(
                softmax_kernel(
                    f"{chain.name}.softmax", chain.batch, sm_m, sm_n, gpu, codegen
                )
            )
        kernels.append(
            gemm_kernel(
                f"{chain.name}.{block.name}", chain.batch, m, n, k, gpu, codegen
            )
        )
        if block.epilogue is not None:
            elements = chain.batch * m * n
            kernels.append(
                elementwise_kernel(
                    f"{chain.name}.{block.name}.{block.epilogue}",
                    elements,
                    gpu,
                    flops_per_element=8.0 if block.epilogue == "gelu" else 1.0,
                    codegen=codegen,
                )
            )
    return kernels


#: Framework dispatch cost of one eager-mode op (type checks, stream
#: bookkeeping, allocator) — on top of the raw CUDA launch overhead.
EAGER_OVERHEAD_PER_OP = 7.0e-6


class PyTorchBaseline(Baseline):
    """PyTorch eager execution: unfused library kernels (Fig. 8's unit bar)."""

    name = "PyTorch"

    def run_chain(self, chain: ComputeChain, gpu: GPUSpec, seed: int = 0) -> BaselineResult:
        kernels = chain_unfused_kernels(chain, gpu, codegen="cublas")
        sim = GPUSimulator(gpu, seed=seed)
        time = sim.run_sequence(kernels) + EAGER_OVERHEAD_PER_OP * len(kernels)
        return BaselineResult(
            name=self.name,
            chain=chain.name,
            gpu=gpu.name,
            time=time,
            tuning_seconds=0.0,
            fused=False,
            detail={"kernels": len(kernels)},
        )
