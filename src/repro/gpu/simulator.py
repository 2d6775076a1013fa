"""Deterministic analytical GPU simulator — the reproduction's "hardware".

The paper measures candidate kernels on real A100/RTX 3080 GPUs; we price a
:class:`~repro.gpu.kernel.KernelLaunch` with a roofline-with-frictions
model. Compared to MCFuser's analytical performance model (eqs. 2-5 in the
paper, implemented in :mod:`repro.search.perf_model`), the simulator
additionally knows about:

* tensor-core efficiency as a function of the MMA tile shape (small tiles
  under-utilize the MMA pipeline),
* DRAM efficiency as a function of access contiguity (coalescing),
* code-generator quality (cuBLAS > CUTLASS > Triton > Ansor > Relay),
* exact wave quantization from shared-memory-limited occupancy (the model
  only has the smooth ``alpha`` factor),
* partial compute/memory overlap,
* deterministic measurement jitter.

That gap is what makes the model-vs-measurement studies (Fig. 10, Fig. 11)
and the top-k-measure search loop meaningful in simulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.gpu.kernel import CODEGEN_QUALITY, KernelLaunch
from repro.gpu.occupancy import Occupancy, SharedMemoryExceeded, occupancy_for
from repro.gpu.specs import GPUSpec
from repro.utils import unit_jitter

__all__ = ["KernelTiming", "GPUSimulator", "SharedMemoryExceeded"]

#: Fraction of the shorter of (compute, memory) phases that cannot be hidden
#: behind the longer one. 0 would be perfect overlap, 1 no overlap.
_OVERLAP_FRICTION = 0.2

#: Relative amplitude of the deterministic measurement jitter.
_JITTER = 0.02


def _saturation(x: float, half: float) -> float:
    """Smooth saturating curve in (0, 1): 0.5 at ``x == half``, -> 1."""
    return x / (x + half)


def compute_efficiency(tile_m: int, tile_n: int, tile_k: int, codegen: str) -> float:
    """Fraction of peak FLOP/s achieved by an MMA loop with this tile shape.

    Small tiles starve the tensor-core pipeline (not enough independent
    MMAs in flight); very large accumulator tiles hit register pressure.
    Calibrated so a 128x128x64 Triton tile reaches ~55-60% of peak, the
    common ballpark for fused fp16 kernels.
    """
    quality = CODEGEN_QUALITY[codegen]
    eff = (
        quality
        * _saturation(tile_m, 16.0)
        * _saturation(tile_n, 16.0)
        * _saturation(tile_k, 8.0)
    )
    accum = tile_m * tile_n
    if accum > 128 * 128:  # register pressure / spill penalty
        eff *= (128 * 128 / accum) ** 0.5
    return eff


def memory_efficiency(inner_contig_bytes: int, codegen: str = "triton") -> float:
    """Fraction of peak DRAM bandwidth for accesses with this contiguity.

    32B rows reach ~1/3 of peak (uncoalesced transactions dominate); 256B
    and above approach peak. Code-generator quality enters with a square
    root: poorly vectorized loads (Ansor/Relay) waste some bandwidth, but
    far less than they waste MMA throughput.
    """
    contig = _saturation(float(max(inner_contig_bytes, 1)), 64.0)
    return contig * CODEGEN_QUALITY[codegen] ** 0.5


@dataclass(frozen=True)
class KernelTiming:
    """Breakdown of one simulated kernel execution."""

    total: float
    compute_time: float
    memory_time: float
    occupancy: Occupancy
    compute_eff: float
    memory_eff: float
    jitter: float

    @property
    def bound(self) -> str:
        """Which resource dominated: ``"compute"`` or ``"memory"``."""
        return "compute" if self.compute_time >= self.memory_time else "memory"


class GPUSimulator:
    """Prices kernel launches on a :class:`GPUSpec`.

    Args:
        gpu: Hardware description.
        seed: Jitter seed. Two simulators with the same seed return
            identical timings for identical launches.
        jitter: Set ``False`` for exact, noise-free timings (useful in
            tests and in the roofline experiment).
    """

    def __init__(self, gpu: GPUSpec, seed: int = 0, jitter: bool = True) -> None:
        self.gpu = gpu
        self.seed = seed
        self.jitter_enabled = jitter

    # -- single kernels ----------------------------------------------------

    def _effective_dram_bytes(self, kernel: KernelLaunch) -> float:
        """DRAM traffic after within-kernel L2 reuse.

        Reads beyond the compulsory traffic re-touch resident data (GEMM
        panel re-reads, reloads of hoisted tiles); when the working set
        fits L2, ~90% of them are served on-chip. Inter-kernel L2 reuse is
        deliberately not modeled: every kernel starts from a cold L2, so
        back-to-back kernels never share resident data.
        """
        reads = kernel.dram_read_bytes
        compulsory = kernel.dram_compulsory_read_bytes
        if compulsory is None:
            return reads + kernel.dram_write_bytes
        compulsory = min(max(compulsory, 0.0), reads)
        rereads = reads - compulsory
        working_set = max(compulsory + kernel.dram_write_bytes, 1.0)
        hit = 0.9 * min(1.0, self.gpu.l2_bytes / working_set)
        return compulsory + rereads * (1.0 - hit) + kernel.dram_write_bytes

    def time_kernel(self, kernel: KernelLaunch) -> KernelTiming:
        """Simulate one launch; raises SharedMemoryExceeded if it cannot run."""
        gpu = self.gpu
        occ = occupancy_for(kernel.grid, kernel.shared_mem_bytes, gpu)
        eff_c = compute_efficiency(
            kernel.tile_m, kernel.tile_n, kernel.tile_k, kernel.codegen
        ) * kernel.efficiency
        eff_m = memory_efficiency(kernel.inner_contig_bytes, kernel.codegen) * kernel.efficiency
        t_compute = kernel.flops / (gpu.peak_flops * eff_c) if kernel.flops else 0.0
        t_memory = self._effective_dram_bytes(kernel) / (gpu.mem_bandwidth * eff_m)
        # Wave quantization: a grid smaller than the machine, or a ragged
        # tail wave, leaves SMs idle for whole block-durations. Compute
        # throughput is strictly per-SM, so it scales with the full
        # quantization factor; DRAM bandwidth is a shared resource that a
        # handful of blocks can still drive at ~4x their fair share.
        t_compute_q = t_compute * occ.quantization
        t_memory_q = t_memory * max(1.0, occ.quantization / 4.0)
        longer, shorter = max(t_compute_q, t_memory_q), min(t_compute_q, t_memory_q)
        busy = longer + _OVERLAP_FRICTION * shorter
        exec_time = busy + occ.waves * gpu.dram_latency
        jit = self.jitter(kernel.signature()) if self.jitter_enabled else 0.0
        total = (gpu.kernel_launch_overhead + exec_time) * (1.0 + jit)
        return KernelTiming(
            total=total,
            compute_time=t_compute,
            memory_time=t_memory,
            occupancy=occ,
            compute_eff=eff_c,
            memory_eff=eff_m,
            jitter=jit,
        )

    def jitter(self, signature: tuple) -> float:
        """The relative jitter of the launch with this ``signature()``."""
        return _JITTER * unit_jitter("kernel", self.seed, signature)

    def exact_times(self, grid, flops, read_bytes, write_bytes, shared_mem_bytes, tile_m, tile_n,
                    tile_k, inner_contig_bytes, compulsory_bytes: float) -> np.ndarray:
        """:meth:`time_kernel`'s jitter-free ``total``, bit for bit, of one
        Triton launch at efficiency 1 per array element (``inf`` where it
        exceeds shared memory): the same operations in the same order, with
        ``** 0.5`` in Python, whose ``pow`` rounds unlike numpy's."""
        gpu, quality = self.gpu, CODEGEN_QUALITY["triton"]
        waves = -(-grid // gpu.num_sms)
        quantization = waves * gpu.num_sms / grid
        eff_c = quality * _saturation(tile_m, 16.0) * _saturation(tile_n, 16.0)
        eff_c = eff_c * _saturation(tile_k, 8.0)
        accum = tile_m * tile_n
        spill = np.flatnonzero(accum > 128 * 128)
        eff_c[spill] *= [(128 * 128 / a) ** 0.5 for a in accum[spill].tolist()]
        eff_m = _saturation(inner_contig_bytes.astype(np.float64), 64.0) * quality**0.5
        t_compute = flops / (gpu.peak_flops * eff_c)  # 0.0 at 0 flops, like time_kernel's branch
        compulsory = np.minimum(max(compulsory_bytes, 0.0), read_bytes)
        working_set = np.maximum(compulsory + write_bytes, 1.0)
        hit = 0.9 * np.minimum(1.0, gpu.l2_bytes / working_set)
        dram = compulsory + (read_bytes - compulsory) * (1.0 - hit) + write_bytes
        t_compute_q = t_compute * quantization
        t_memory_q = dram / (gpu.mem_bandwidth * eff_m) * np.maximum(1.0, quantization / 4.0)
        longer, shorter = np.maximum(t_compute_q, t_memory_q), np.minimum(t_compute_q, t_memory_q)
        exec_time = longer + _OVERLAP_FRICTION * shorter + waves * gpu.dram_latency
        total = gpu.kernel_launch_overhead + exec_time
        return np.where(shared_mem_bytes > gpu.shared_mem_per_block, np.inf, total)

    def run(self, kernel: KernelLaunch) -> float:
        """Total time (s) of one launch."""
        return self.time_kernel(kernel).total

    # -- kernel sequences ---------------------------------------------------

    def run_sequence(self, kernels: Iterable[KernelLaunch]) -> float:
        """Time a dependent sequence of launches (a sub-graph or model)."""
        return sum(self.run(k) for k in kernels)

    def achieved_tflops(self, kernel: KernelLaunch) -> float:
        """Sustained TFLOP/s of one launch (for roofline plots, Fig. 2)."""
        timing = self.time_kernel(kernel)
        if timing.total <= 0.0:
            return 0.0
        return kernel.flops / timing.total / 1e12
