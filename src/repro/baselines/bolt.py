"""The BOLT baseline: CUTLASS-template-based dual-GEMM fusion.

BOLT (MLSys'22) bridges auto-tuners and hardware-native templates: it
pattern-matches sub-graphs against a CUTLASS template table, instantiates
matching templates, measures them all, and dispatches the best. The
constraints the paper leans on:

* only **back-to-back GEMM** patterns fuse — self-attention (with its
  interleaved softmax) is not in the pattern table (``run_chain`` returns
  an unfused fallback, and ``supports_fusion`` is False);
* CUTLASS b2b-GEMM requires the *full* ``n`` extent per threadblock
  (``TN = N``) so the intermediate stays register/shared-resident — large
  ``N`` overflows shared memory and falls back to unfused (the paper's
  G11/G12 "extreme cases");
* no sm86 support: on the RTX 3080 BOLT is absent from Fig. 8 entirely
  (``run_chain`` returns ``None``).
"""

from __future__ import annotations

from repro.baselines.base import Baseline, BaselineResult
from repro.baselines.library import chain_unfused_kernels
from repro.gpu.occupancy import SharedMemoryExceeded
from repro.gpu.simulator import GPUSimulator
from repro.gpu.specs import GPUSpec
from repro.ir.chain import ComputeChain
from repro.search.tuning_cost import TuningClock
from repro.tiling.expr import TilingExpr
from repro.tiling.schedule import build_schedule
from repro.utils import ceil_div

__all__ = ["BOLTBaseline", "BOLT_TEMPLATE_TM", "BOLT_TEMPLATE_TK"]

#: CUTLASS b2b-GEMM threadblock tile menu (m and k dimensions; n is fixed
#: to the full problem N, h to the full H — the template's RF-fusion rule).
BOLT_TEMPLATE_TM = (32, 64, 128, 256)
BOLT_TEMPLATE_TK = (16, 32, 64)


class BOLTBaseline(Baseline):
    """BOLT: template-based fusion on top of TVM + CUTLASS."""

    name = "BOLT"

    def supports_gpu(self, gpu: GPUSpec) -> bool:
        """BOLT's CUTLASS kernels do not build for sm86 (paper §VI-B1)."""
        return gpu.arch == "sm80"

    def supports_fusion(self, chain: ComputeChain) -> bool:
        """Only plain dual-GEMM chains match the pattern table."""
        if len(chain.blocks) != 2:
            return False
        return all(b.softmax_over is None for b in chain.blocks)

    def run_chain(self, chain: ComputeChain, gpu: GPUSpec, seed: int = 0) -> BaselineResult | None:
        if not self.supports_gpu(gpu):
            return None
        clock = TuningClock()
        sim = GPUSimulator(gpu, seed=seed)

        best_fused = float("inf")
        best_template = None
        templates_tried = 0
        if self.supports_fusion(chain):
            n_full = ceil_div(chain.loops["n"], 16) * 16
            h_full = ceil_div(chain.loops["h"], 16) * 16
            expr = TilingExpr.parse("mhnk")
            for tm in BOLT_TEMPLATE_TM:
                for tk in BOLT_TEMPLATE_TK:
                    tiles = {
                        "m": min(tm, ceil_div(chain.loops["m"], 16) * 16),
                        "n": n_full,
                        "k": min(tk, ceil_div(chain.loops["k"], 16) * 16),
                        "h": h_full,
                    }
                    sched = build_schedule(chain, expr, tiles, optimize=True)
                    templates_tried += 1
                    try:
                        t = sim.run(sched.kernel_launch(gpu, codegen="cutlass"))
                    except SharedMemoryExceeded:
                        clock.charge("bolt_template")
                        continue
                    clock.charge("bolt_template", runtime=100 * t)
                    if t < best_fused:
                        best_fused = t
                        best_template = sched.describe()

        # Epilogue-fused-but-unfused-chain fallback (BOLT inherits Relay's
        # per-op path when no template matches).
        unfused = chain_unfused_kernels(chain, gpu, codegen="cutlass")
        unfused_time = sim.run_sequence(unfused)
        clock.charge("bolt_template", count=2)  # profile the fallback too

        fused = best_fused < unfused_time
        return BaselineResult(
            name=self.name,
            chain=chain.name,
            gpu=gpu.name,
            time=min(best_fused, unfused_time),
            tuning_seconds=clock.seconds,
            fused=fused,
            detail={
                "templates": templates_tried,
                "best_template": best_template,
                "unfused_time": unfused_time,
            },
        )
