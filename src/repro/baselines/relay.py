"""The Relay baseline: template-scheduled per-op execution.

Relay (TVM's graph-level compiler without auto-tuning) executes each
operator with a pre-defined template schedule — no per-shape fine-tuning,
so kernel quality trails cuBLAS — but applies classic *epilogue fusion*
(GEMM + bias + activation in one kernel). It never fuses multiple
compute-intensive operators; for MBCI chains it behaves like the library
path with cheaper codegen.
"""

from __future__ import annotations

from repro.baselines.base import Baseline, BaselineResult
from repro.baselines.library import chain_unfused_kernels
from repro.gpu.simulator import GPUSimulator
from repro.gpu.specs import GPUSpec
from repro.ir.chain import ComputeChain
from repro.search.tuning_cost import TuningClock

__all__ = ["RelayBaseline"]


class RelayBaseline(Baseline):
    """TVM Relay with default (template) schedules."""

    name = "Relay"

    def run_chain(self, chain: ComputeChain, gpu: GPUSpec, seed: int = 0) -> BaselineResult:
        clock = TuningClock()
        clock.charge("relay_compile")
        kernels = chain_unfused_kernels(chain, gpu, codegen="relay")
        sim = GPUSimulator(gpu, seed=seed)
        return BaselineResult(
            name=self.name,
            chain=chain.name,
            gpu=gpu.name,
            time=sim.run_sequence(kernels),
            tuning_seconds=clock.seconds,
            fused=False,
            detail={"kernels": len(kernels)},
        )
