"""Simulated tuning clock: what auto-tuning *costs*, in wall-clock terms.

Table IV of the paper compares tuning times (Ansor needs hours, MCFuser
tens of seconds). Since our kernels run on a simulator, real wall-clock
time is meaningless; instead every tuner charges a :class:`TuningClock`
for the work it performs, with per-operation costs calibrated to the
magnitudes reported for the paper's testbed:

* evaluating the analytical model on one candidate: ~50 us of host time;
* compiling + measuring one candidate kernel (Triton path): ~0.85 s;
* compiling + measuring one Ansor trial (TVM build + RPC measure): ~4.1 s;
* one Ansor XGBoost retraining round: ~12 s;
* instantiating + measuring one BOLT/CUTLASS template: ~1.6 s.

Only *relative* magnitudes matter for the reproduction (MCFuser ~70-140x
faster to tune than Ansor, ~2.5x faster than BOLT); EXPERIMENTS.md records
paper-vs-measured for Table IV.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["TuningClock", "COSTS"]

#: Host-side cost (seconds) of each tuning operation.
COSTS: dict[str, float] = {
    "space_generation": 1.5,
    "model_estimate": 5.0e-5,
    "triton_compile_measure": 0.85,
    "ansor_trial": 4.1,
    "ansor_train_round": 12.0,
    "ansor_sketch": 2.0,
    "bolt_template": 1.6,
    "relay_compile": 8.0,
    "graph_partition": 0.5,
    "kernel_runs": 1.0,  # multiplier bucket for accumulated kernel runtimes
}


@dataclass
class TuningClock:
    """Accumulates simulated tuning time, itemized by operation kind."""

    seconds: float = 0.0
    breakdown: dict[str, float] = field(default_factory=dict)

    def charge(self, kind: str, count: float = 1.0, runtime: float = 0.0) -> None:
        """Charge ``count`` operations of ``kind`` plus ``runtime`` seconds
        of accumulated kernel execution (e.g. measurement repetitions)."""
        if kind not in COSTS:
            raise KeyError(f"unknown tuning cost kind {kind!r}")
        amount = COSTS[kind] * count + runtime
        self.seconds += amount
        self.breakdown[kind] = self.breakdown.get(kind, 0.0) + amount

    def charge_each(self, kind: str, times: int) -> None:
        """Exactly ``times`` sequential ``charge(kind)`` calls, in one call.

        Each addition rounds on its own, as the sequential calls would, so
        ``seconds`` and ``breakdown`` stay bit-identical to them (which
        ``charge(kind, count=times)`` would not)."""
        if kind not in COSTS:
            raise KeyError(f"unknown tuning cost kind {kind!r}")
        if times <= 0:
            return
        amount = COSTS[kind]
        seconds, total = self.seconds, self.breakdown.get(kind, 0.0)
        for _ in range(times):
            seconds += amount
            total += amount
        self.seconds = seconds
        self.breakdown[kind] = total

    def merge(self, other: "TuningClock") -> None:
        self.seconds += other.seconds
        for k, v in other.breakdown.items():
            self.breakdown[k] = self.breakdown.get(k, 0.0) + v

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"TuningClock({self.seconds:.1f}s, {self.breakdown})"
