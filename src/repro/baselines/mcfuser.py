"""MCFuser itself, wrapped in the common baseline interface so the
experiment drivers can treat all systems uniformly."""

from __future__ import annotations

from repro.baselines.base import Baseline, BaselineResult
from repro.config import SessionConfig
from repro.gpu.specs import GPUSpec
from repro.ir.chain import ComputeChain
from repro.search.tuner import MCFuserTuner

__all__ = ["MCFuserBaseline"]


class MCFuserBaseline(Baseline):
    """The full system: comprehensive space + analytical model + search."""

    name = "MCFuser"

    def __init__(self, config: SessionConfig | None = None) -> None:
        # The baseline *is* its variant: whatever else ``config`` sets, the
        # search runs as ``mcfuser``.
        self.config = SessionConfig.make(config, variant="mcfuser")

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
                "pruning": report.pruning.funnel(),
            },
        )
