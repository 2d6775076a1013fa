"""MCFuser-Chimera: Chimera's search space inside the MCFuser framework.

The paper cannot compare against closed-source Chimera directly, so it
re-implements Chimera's search space (deep tilings / nested block
execution orders only, no flat tilings, no extent-1 DAG optimization) and
Chimera's objective (minimize data movement, ignoring compute redundancy
and parallelism) inside MCFuser — §VI-A. We do exactly the same via
a tuner configured with ``SessionConfig.make(variant="chimera")``.
"""

from __future__ import annotations

from repro.baselines.base import Baseline, BaselineResult
from repro.config import SessionConfig
from repro.gpu.specs import GPUSpec
from repro.ir.chain import ComputeChain
from repro.search.tuner import MCFuserTuner

__all__ = ["MCFuserChimeraBaseline"]


class MCFuserChimeraBaseline(Baseline):
    """Deep-tiling-only, data-movement-objective variant of the tuner."""

    name = "MCFuser-Chimera"

    def __init__(self, config: SessionConfig | None = None) -> None:
        # The baseline *is* its variant: whatever else ``config`` sets, the
        # search runs as ``chimera``.
        self.config = SessionConfig.make(config, variant="chimera")

    def run_chain(self, chain: ComputeChain, gpu: GPUSpec, seed: int = 0) -> BaselineResult:
        tuner = MCFuserTuner(gpu, config=self.config.evolve(seed=seed))
        report = tuner.tune(chain)
        return BaselineResult(
            name=self.name,
            chain=chain.name,
            gpu=gpu.name,
            time=report.best_time,
            tuning_seconds=report.tuning_seconds,
            fused=True,
            detail={
                "best": report.best_candidate.describe(),
                "rounds": report.search.rounds,
                "measurements": report.search.num_measurements,
            },
        )
