"""Ablation study: how much does each MCFuser design choice contribute?

MCFuser rests on four load-bearing choices; this experiment isolates each
on representative workloads (a memory-bound GEMM chain, a larger one, and
a self-attention module):

* **flat tilings** — full expression space vs deep-only (Chimera's space),
  everything else identical;
* **extent-1 DAG optimization** — memory statements re-homed after dead
  loop removal vs the plain rightmost-related placement;
* **performance model** — eqs. (2)-(5) vs data-movement-only (Chimera's
  objective) vs a *random* ranking (search degenerates to random sampling
  with top-n measurement);
* **top-n** — how many hardware measurements per round the search needs.

Reported numbers are the measured (simulated) time of the candidate each
ablated configuration selects, normalized to full MCFuser.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.common import ExperimentResult
from repro.gpu.simulator import GPUSimulator
from repro.gpu.specs import A100, GPUSpec
from repro.ir.chain import ComputeChain
from repro.search.engine import EvolutionarySearch, ParallelEvaluator, SearchLoop
from repro.search.perf_model import AnalyticalModel, ChimeraModel
from repro.search.space import generate_space
from repro.utils import rng_for
from repro.workloads import attention_workload, gemm_workload

__all__ = ["ablate_chain", "AblationRow", "run", "main"]


@dataclass(frozen=True)
class AblationRow:
    chain: str
    full: float
    no_flat: float
    no_dag_opt: float
    movement_model: float
    random_model: float
    top1: float


def _search_time(
    chain: ComputeChain,
    gpu: GPUSpec,
    deep_only: bool = False,
    optimize: bool = True,
    model_kind: str = "mcfuser",
    top_n: int = 8,
    seed: int = 0,
) -> float:
    space = generate_space(chain, gpu, deep_only=deep_only, optimize_schedules=optimize)
    sim = GPUSimulator(gpu, seed=seed)

    if model_kind in ("mcfuser", "chimera"):
        model = AnalyticalModel(gpu) if model_kind == "mcfuser" else ChimeraModel(gpu)
        objective = model.objective(space.prices)
    else:  # random ranking: one draw per position, in position order
        objective = rng_for("ablation-random", chain.name, seed).random(len(space))

    evaluator = ParallelEvaluator(lambda p: space.measure(p, sim))
    loop = SearchLoop(space, objective.__getitem__, evaluator, top_n=top_n, seed=seed)
    return loop.run(EvolutionarySearch()).best_time


def ablate_chain(chain: ComputeChain, gpu: GPUSpec = A100, seed: int = 0) -> AblationRow:
    return AblationRow(
        chain=chain.name,
        full=_search_time(chain, gpu, seed=seed),
        no_flat=_search_time(chain, gpu, deep_only=True, seed=seed),
        no_dag_opt=_search_time(chain, gpu, optimize=False, seed=seed),
        movement_model=_search_time(chain, gpu, model_kind="chimera", seed=seed),
        random_model=_search_time(chain, gpu, model_kind="random", seed=seed),
        top1=_search_time(chain, gpu, top_n=1, seed=seed),
    )


def run(gpu: GPUSpec = A100, quick: bool = False, seed: int = 0) -> ExperimentResult:
    names = ["G2", "S2"] if quick else ["G2", "G8", "S2", "S8"]
    chains = [
        gemm_workload(n) if n.startswith("G") else attention_workload(n) for n in names
    ]
    rows = []
    ablations = []
    for chain in chains:
        row = ablate_chain(chain, gpu, seed=seed)
        ablations.append(row)
        rows.append(
            [
                row.chain,
                "1.00",
                f"{row.no_flat / row.full:.2f}",
                f"{row.no_dag_opt / row.full:.2f}",
                f"{row.movement_model / row.full:.2f}",
                f"{row.random_model / row.full:.2f}",
                f"{row.top1 / row.full:.2f}",
            ]
        )
    return ExperimentResult(
        name=f"Ablation: selected-kernel slowdown vs full MCFuser on {gpu.name}",
        headers=["chain", "full", "-flat", "-DAG opt", "movement-only", "random model", "top-1"],
        rows=rows,
        meta={"ablations": ablations, "note": ">= 1.00 means the ablated variant picked a slower kernel"},
    )


def main() -> None:  # pragma: no cover - console entry
    result = run()
    result.meta.pop("ablations", None)
    result.print()


if __name__ == "__main__":  # pragma: no cover
    main()
