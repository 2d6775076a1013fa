"""Fig. 11: analytical-model estimates vs measured performance for G1-G4.

For each chain we evaluate the model (eqs. 2-5) and the simulator on a
deterministic sample of the pruned space and report the Pearson
correlation. The paper reports 0.86 / 0.92 / 0.84 / 0.80 — strong but
imperfect, which is exactly why Algorithm 1 measures the top-n instead of
trusting the model's argmin.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.common import ExperimentResult
from repro.gpu.simulator import GPUSimulator
from repro.gpu.specs import A100, GPUSpec
from repro.search.perf_model import AnalyticalModel
from repro.search.space import generate_space
from repro.utils import pearson
from repro.workloads import gemm_workload

__all__ = ["ModelCorrelation", "correlation_for", "run", "main"]

_CHAINS = ("G1", "G2", "G3", "G4")


@dataclass(frozen=True)
class ModelCorrelation:
    chain: str
    corr: float
    num_points: int
    pairs: tuple[tuple[float, float], ...]


def correlation_for(
    name: str, gpu: GPUSpec = A100, sample: int = 200, seed: int = 0
) -> ModelCorrelation:
    chain = gemm_workload(name)
    space = generate_space(chain, gpu, max_candidates=sample)
    model = AnalyticalModel(gpu)
    sim = GPUSimulator(gpu, seed=seed)
    objective = model.objective(space.prices).tolist()
    times = [space.measure(p, sim) for p in range(len(space))]
    # Points over the shared-memory limit never reach measurement on hardware either.
    pairs = [(est, t) for est, t in zip(objective, times) if t != float("inf")]
    corr = pearson([p[0] for p in pairs], [p[1] for p in pairs])
    return ModelCorrelation(
        chain=name, corr=corr, num_points=len(pairs), pairs=tuple(pairs)
    )


def run(gpu: GPUSpec = A100, quick: bool = False, seed: int = 0) -> ExperimentResult:
    chains = _CHAINS[:2] if quick else _CHAINS
    sample = 120 if quick else 200
    rows = []
    correlations = {}
    for name in chains:
        mc = correlation_for(name, gpu, sample=sample, seed=seed)
        correlations[name] = mc
        rows.append([name, f"{mc.corr:.2f}", mc.num_points])
    meta = {
        "paper_reference": "corr = 0.86 / 0.92 / 0.84 / 0.80 (G1-G4)",
        "correlations": correlations,
    }
    return ExperimentResult(
        name=f"Fig.11 model vs measurement correlation on {gpu.name}",
        headers=["chain", "pearson_corr", "points"],
        rows=rows,
        meta=meta,
    )


def main() -> None:  # pragma: no cover - console entry
    result = run()
    result.meta.pop("correlations", None)
    result.print()


if __name__ == "__main__":  # pragma: no cover
    main()
