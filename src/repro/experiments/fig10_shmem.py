"""Fig. 10: estimated vs *measured* shared-memory usage per thread block.

Candidates are sampled from the Fig. 8 workloads' search spaces *before*
the Rule-4 filter (the figure's whole point is to validate that filter).
The plane splits into four quadrants at x = 1.2*Shm_max (the pruning
threshold on the estimate) and y = Shm_max (the hardware launch limit):

* I   — kept and runnable (correct keep),
* II  — kept but over the hardware limit (caught later at PTX lowering),
* III — pruned and indeed over the limit (correct prune),
* IV  — pruned although it would have run (false positive).

The paper reports >90% of points in I+III, ~8.2% in II and ~1.2% in IV.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.common import ExperimentResult
from repro.gpu.specs import A100, GPUSpec
from repro.ir.chain import ComputeChain
from repro.search.pruning import RULE4_SLACK
from repro.search.space import generate_space
from repro.workloads import attention_workloads, gemm_workloads

__all__ = ["ShmemPoint", "collect_points", "quadrant_shares", "run", "main"]


@dataclass(frozen=True)
class ShmemPoint:
    chain: str
    candidate: str
    estimated: int
    measured: int
    quadrant: str


def _quadrant(est: int, meas: int, gpu: GPUSpec) -> str:
    limit = gpu.shared_mem_per_block
    kept = est <= RULE4_SLACK * limit
    runnable = meas <= limit
    if kept and runnable:
        return "I"
    if kept and not runnable:
        return "II"
    if not kept and not runnable:
        return "III"
    return "IV"


def collect_points(
    workloads: list[ComputeChain],
    gpu: GPUSpec = A100,
    per_chain: int = 400,
) -> list[ShmemPoint]:
    """Sample candidates (Rule 4 disabled) and record est/measured pairs
    from the space's work totals and measured shared memory, building nothing."""
    # A fictitious GPU with unbounded shared memory disables Rule 4 but keeps
    # rules 1-3; its measured shared memory is what the real GPU allocates,
    # since shared-memory measurement reads only the register file.
    unbounded = gpu.with_overrides(shared_mem_per_block=1 << 30, shared_mem_per_sm=1 << 30)
    points: list[ShmemPoint] = []
    for chain in workloads:
        space = generate_space(chain, unbounded, max_candidates=per_chain)
        measured = space.shared_memory.tolist()
        for p, (est, meas) in enumerate(zip(space.work.shm_estimate.tolist(), measured)):
            points.append(
                ShmemPoint(
                    chain=chain.name,
                    candidate=space.candidate(p).describe(),
                    estimated=est,
                    measured=meas,
                    quadrant=_quadrant(est, meas, gpu),
                )
            )
    return points


def quadrant_shares(points: list[ShmemPoint]) -> dict[str, float]:
    total = max(len(points), 1)
    return {
        q: 100.0 * sum(1 for p in points if p.quadrant == q) / total
        for q in ("I", "II", "III", "IV")
    }


def run(gpu: GPUSpec = A100, quick: bool = False, per_chain: int = 400) -> ExperimentResult:
    names_g = ["G1", "G4", "G10"] if quick else None
    names_s = ["S1", "S6"] if quick else None
    workloads = gemm_workloads(names_g) + attention_workloads(names_s)
    points = collect_points(workloads, gpu, per_chain=per_chain // (2 if quick else 1))
    shares = quadrant_shares(points)
    rows = [
        ["I (kept, runnable)", f"{shares['I']:.1f}%"],
        ["II (kept, fails at lowering)", f"{shares['II']:.1f}%"],
        ["III (pruned, over limit)", f"{shares['III']:.1f}%"],
        ["IV (pruned, would run)", f"{shares['IV']:.1f}%"],
    ]
    meta = {
        "points": len(points),
        "Shm_max": gpu.shared_mem_per_block,
        "threshold": f"{RULE4_SLACK} * Shm_max",
        "correct(I+III)": f"{shares['I'] + shares['III']:.1f}%",
        "samples": points[:0],  # full list intentionally not dumped
    }
    result = ExperimentResult(
        name=f"Fig.10 shared-memory estimate validation on {gpu.name}",
        headers=["quadrant", "share"],
        rows=rows,
        meta=meta,
    )
    result.meta["points_list"] = points
    return result


def main() -> None:  # pragma: no cover - console entry
    result = run()
    result.meta.pop("points_list", None)
    result.meta.pop("samples", None)
    result.print()


if __name__ == "__main__":  # pragma: no cover
    main()
