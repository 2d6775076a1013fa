"""Strategy comparison: quality vs tuning cost of every registered
search strategy.

Not a figure of the paper — this driver validates the engine's pluggable
strategies against the paper's Algorithm 1 (``evolutionary``). For each
workload it runs every registered strategy through the real tuner
(pruned space, analytical model, simulated measurements) and reports:

* the measured time of the selected kernel, normalized to evolutionary's
  (``1.00`` = identical choice; the exhaustive row is the space's true
  optimum, so it lower-bounds every other strategy);
* simulated tuning seconds (Table IV magnitudes) and measurement counts.

The expectation the parity tests enforce: every strategy lands within 5%
of evolutionary's kernel, while exhaustive pays an order of magnitude more
tuning time — which is exactly why the paper's model-guided convergent
search matters.
"""

from __future__ import annotations

from repro.config import SessionConfig
from repro.experiments.common import ExperimentResult
from repro.gpu.specs import A100, GPUSpec
from repro.search.engine.strategy import strategy_names
from repro.search.tuner import MCFuserTuner, TuneReport
from repro.utils import fmt_time
from repro.workloads import attention_workload, gemm_workload

__all__ = ["run", "main"]


def _tune(name: str, gpu: GPUSpec, strategy: str, seed: int, workers: int) -> TuneReport:
    chain = gemm_workload(name) if name.startswith("G") else attention_workload(name)
    config = SessionConfig.make(seed=seed, strategy=strategy, workers=workers)
    return MCFuserTuner(gpu, config=config).tune(chain)


def run(
    gpu: GPUSpec = A100,
    quick: bool = False,
    seed: int = 0,
    workers: int = 1,
) -> ExperimentResult:
    """Run every registered strategy on representative workloads."""
    names = ["G2", "S2"] if quick else ["G2", "G8", "S2", "S8"]
    rows: list[list[object]] = []
    reports: dict[tuple[str, str], TuneReport] = {}
    for name in names:
        for strategy in strategy_names():
            reports[(name, strategy)] = _tune(name, gpu, strategy, seed, workers)
    for name in names:
        base = reports[(name, "evolutionary")]
        for strategy in strategy_names():
            rep = reports[(name, strategy)]
            rows.append(
                [
                    name,
                    strategy,
                    f"{rep.best_time / base.best_time:.2f}",
                    fmt_time(rep.best_time),
                    fmt_time(rep.tuning_seconds),
                    rep.search.num_measurements,
                    rep.search.rounds,
                ]
            )
    return ExperimentResult(
        name=f"Search strategies: selected kernel + tuning cost on {gpu.name}",
        headers=["chain", "strategy", "vs evo", "kernel", "tuning", "measures", "rounds"],
        rows=rows,
        meta={
            "reports": reports,
            "note": "vs evo 1.00 = evolutionary's kernel; exhaustive is the true optimum",
        },
    )


def main() -> None:  # pragma: no cover - console entry
    result = run()
    result.meta.pop("reports", None)
    result.print()


if __name__ == "__main__":  # pragma: no cover
    main()
