"""The Ansor baseline: ML-cost-model-guided schedule search.

Faithful to the traits the paper contrasts against (§II-B, Table I):

* **Search space** — loop-transformation sketches: deep tilings only,
  power-of-two tile sizes, memory statements at the rightmost related loop
  but *no* extent-1 DAG optimization and *no* flat tilings.
* **Exploration** — evolutionary search guided by a gradient-boosted-tree
  cost model trained online on measured programs, with a fixed trial
  budget (the paper uses 1000 trials per sub-graph) instead of a
  convergence criterion.
* **Cost** — every trial is a TVM build + measurement (seconds each), and
  each round retrains the model; tuning takes hours where MCFuser takes
  seconds (Table IV).
* **Fusion behaviour** — Ansor prefers fused sub-graphs when its space
  contains a runnable candidate, but falls back to per-operator tuned
  kernels when fusion fails (the paper's G12 case) or when unfused is
  faster under its own measurements.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import Baseline, BaselineResult
from repro.baselines.gbt import GradientBoostedTrees
from repro.baselines.library import chain_unfused_kernels
from repro.gpu.occupancy import SharedMemoryExceeded
from repro.gpu.simulator import GPUSimulator
from repro.gpu.specs import GPUSpec
from repro.ir.chain import ComputeChain
from repro.search.features import ANSOR_FEATURE_NAMES, is_pow2, schedule_features
from repro.search.space import Candidate, SearchSpace, generate_space
from repro.search.tuning_cost import TuningClock
from repro.tiling.schedule import Schedule, build_schedule
from repro.utils import rng_for

__all__ = ["AnsorBaseline", "candidate_features", "ANSOR_DEFAULT_TRIALS"]

#: Paper setup: "we conduct 1000 tuning trials for each subgraph".
ANSOR_DEFAULT_TRIALS = 1000

_ROUND = 64  # measurements per search round (Ansor's default batch)


def candidate_features(schedule: Schedule, gpu: GPUSpec) -> np.ndarray:
    """Feature vector of one candidate program for the cost model.

    Mirrors Ansor's hand-engineered features: work quantities (log scale),
    tile shape, parallelism and shared-memory pressure. Since the shared
    extractor landed this is a view of its leading components
    (:data:`~repro.search.features.ANSOR_FEATURE_NAMES`) — Ansor's
    historical vector, value-identical to the pre-refactor code, without
    the analytic-prior features MCFuser's own cost model also sees (Ansor
    has no such model to lean on).
    """
    return schedule_features(schedule, gpu)[: len(ANSOR_FEATURE_NAMES)]


class AnsorBaseline(Baseline):
    """Ansor auto-scheduler (search-space- and cost-model-restricted)."""

    name = "Ansor"

    def __init__(self, trials: int = ANSOR_DEFAULT_TRIALS, seed: int = 0) -> None:
        self.trials = trials
        self.seed = seed

    # -- sketch space ----------------------------------------------------------

    def sketch_space(self, chain: ComputeChain, gpu: GPUSpec) -> list[Candidate]:
        """Ansor's fused-kernel sketches: deep tilings, pow2 tiles, no
        extent-1 optimization."""
        space: SearchSpace = generate_space(
            chain, gpu, deep_only=True, optimize_schedules=False
        )
        return [
            c
            for c in space.candidates
            if all(is_pow2(t) for _, t in c.tiles)
        ]

    # -- tuning loop --------------------------------------------------------------

    def run_chain(self, chain: ComputeChain, gpu: GPUSpec, seed: int = 0) -> BaselineResult:
        clock = TuningClock()
        clock.charge("ansor_sketch")
        sim = GPUSimulator(gpu, seed=seed)
        rng = rng_for("ansor", chain.name, gpu.name, self.seed, seed)
        candidates = self.sketch_space(chain, gpu)

        measured: dict[tuple, float] = {}
        feats: list[np.ndarray] = []
        targets: list[float] = []
        schedules: dict[tuple, Schedule] = {}

        def sched_of(cand: Candidate) -> Schedule:
            if cand.key not in schedules:
                schedules[cand.key] = build_schedule(
                    chain, cand.expr, cand.tile_dict, optimize=False
                )
            return schedules[cand.key]

        def measure(cand: Candidate) -> float:
            if cand.key in measured:
                return measured[cand.key]
            sched = sched_of(cand)
            try:
                t = sim.run(sched.kernel_launch(gpu, codegen="ansor"))
            except SharedMemoryExceeded:
                t = float("inf")
            measured[cand.key] = t
            clock.charge("ansor_trial", runtime=0.0 if t == float("inf") else 100 * t)
            feats.append(candidate_features(sched, gpu))
            targets.append(np.log1p(1e6 * min(t, 1.0)))
            return t

        best_fused = float("inf")
        rounds = 0
        trials_done = 0
        model = GradientBoostedTrees()
        if candidates:
            budget = min(self.trials, max(len(candidates) * 2, _ROUND))
            while trials_done < budget:
                rounds += 1
                batch = min(_ROUND, budget - trials_done)
                pool_ids = rng.choice(
                    len(candidates), size=min(len(candidates), 512), replace=False
                )
                pool = [candidates[int(i)] for i in pool_ids]
                if model.is_fitted:
                    x = np.stack([candidate_features(sched_of(c), gpu) for c in pool])
                    scores = model.predict(x)
                    order = np.argsort(scores)
                    # epsilon-greedy: mostly model-ranked, some random.
                    n_greedy = int(batch * 0.9)
                    chosen = [pool[int(i)] for i in order[:n_greedy]]
                    rest = [pool[int(i)] for i in order[n_greedy:]]
                    if rest:
                        extra = rng.choice(len(rest), size=batch - n_greedy, replace=True)
                        chosen += [rest[int(i)] for i in extra]
                else:
                    ids = rng.choice(len(pool), size=min(batch, len(pool)), replace=False)
                    chosen = [pool[int(i)] for i in ids]
                for cand in chosen:
                    best_fused = min(best_fused, measure(cand))
                    trials_done += 1
                if len(feats) >= 16:
                    model.fit(np.stack(feats), np.array(targets))
                    clock.charge("ansor_train_round")

        # Per-operator fallback: Ansor always tunes the unfused form too
        # (single-op kernels come out much better than its fused attempts).
        unfused = chain_unfused_kernels(chain, gpu, codegen="ansor_op")
        unfused_time = sim.run_sequence(unfused)
        per_op_trials = min(128, self.trials // 4) * len(unfused)
        clock.charge("ansor_trial", count=per_op_trials, runtime=0.0)

        fused_wins = best_fused < unfused_time
        return BaselineResult(
            name=self.name,
            chain=chain.name,
            gpu=gpu.name,
            time=min(best_fused, unfused_time),
            tuning_seconds=clock.seconds,
            fused=fused_wins,
            detail={
                "trials": trials_done + per_op_trials,
                "rounds": rounds,
                "best_fused_time": best_fused,
                "unfused_time": unfused_time,
                "sketch_candidates": len(candidates),
            },
        )
