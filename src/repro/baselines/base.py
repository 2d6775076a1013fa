"""Common interface all baselines implement.

A baseline takes a :class:`ComputeChain` and a GPU and produces a
:class:`BaselineResult` — or ``None`` when the workload/hardware is
outside its support envelope (BOLT on sm86, FlashAttention with K != H,
BOLT on attention...), mirroring the gaps in the paper's Fig. 8 bars.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.gpu.specs import GPUSpec
from repro.ir.chain import ComputeChain

__all__ = ["BaselineResult", "Baseline"]


@dataclass
class BaselineResult:
    """Outcome of running one baseline on one chain."""

    name: str
    chain: str
    gpu: str
    time: float  # best kernel(-sequence) time, seconds
    tuning_seconds: float = 0.0
    fused: bool = False  # whether an actually fused kernel was produced
    detail: dict = field(default_factory=dict)


class Baseline:
    """Base class; subclasses set ``name`` and implement ``run_chain``."""

    name = "baseline"

    def run_chain(self, chain: ComputeChain, gpu: GPUSpec, seed: int = 0) -> BaselineResult | None:
        raise NotImplementedError

    def supports(self, chain: ComputeChain, gpu: GPUSpec) -> bool:
        """Cheap support check (default: attempt and compare to None)."""
        return True
