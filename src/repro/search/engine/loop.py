"""SearchLoop: the shared driver every search strategy runs inside.

Algorithm 1's skeleton — rank candidates, hardware-measure the best
*unmeasured* top-n, track the best, stop on convergence — is strategy-
independent; what differs between evolutionary, random, exhaustive, and
annealing search is only *which* candidates get ranked each round. The
loop therefore owns all the shared bookkeeping:

* the **measured cache** (re-measuring a program yields no information);
* the **failed blacklist** (launch failures never re-enter the top-n);
* the **(estimate, measured) pairs** behind the Fig. 11 correlation study;
* the **convergence criterion** (relative best-time improvement below
  epsilon, armed after ``min_rounds`` rounds);
* measurement dispatch through a :class:`ParallelEvaluator`.

Strategies implement three hooks (``begin`` / ``propose`` / ``evolve``)
against this driver; see :mod:`repro.search.engine.strategy`.

**Top-k mode.** With a :class:`~repro.search.cost_model.LearnedCostModel`
attached and ``measure_topk > 0``, each round re-ranks *every* unmeasured
proposal with the learned model and hardware-measures only the predicted
best ``k`` — the measurement-count multiplier on top of the paper's
model-guided pruning. All finite measurements (top-k or not) are fed back
into the model's dataset and the model refits once per round, so guidance
sharpens within a single tune. While the model is unfitted or
sample-starved the loop transparently falls back to the classic
measure-the-top-n behavior (and those measurements bootstrap the dataset).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from repro.search.engine.evaluator import ParallelEvaluator
from repro.utils import rng_for

if TYPE_CHECKING:  # pragma: no cover
    from repro.search.cost_model import LearnedCostModel
    from repro.search.engine.strategy import SearchStrategy
    from repro.search.space import Candidate, SearchSpace

__all__ = ["SearchResult", "SearchLoop"]


@dataclass
class SearchResult:
    """Outcome of one search run (any strategy)."""

    best: "Candidate"
    best_time: float
    rounds: int
    num_estimates: int
    num_measurements: int
    converged: bool
    #: (estimated, measured) pairs for every measured candidate — the raw
    #: data behind the Fig. 11 correlation study.
    pairs: list[tuple[float, float]] = field(default_factory=list)
    measured: dict[tuple, float] = field(default_factory=dict)
    #: Which registered strategy produced this result.
    strategy: str = "evolutionary"
    #: The ``measure_topk`` setting the run used (0 = classic top-n mode).
    measure_topk: int = 0
    #: Rounds in which the learned model actually guided the pick (the
    #: remainder fell back to measure-the-top-n while the model warmed up).
    model_rounds: int = 0
    #: The cost model's self-reported pairwise ranking accuracy after its
    #: final refit (``None`` when no model was attached or it never fitted).
    ranking_accuracy: float | None = None


class SearchLoop:
    """Drives one strategy over a pruned space with shared bookkeeping.

    The loop and its strategies work on space positions, and so does its
    bookkeeping: ``measured_positions`` maps each measured position to its
    time (``inf`` for a launch failure) and ``failed_positions`` holds the
    failures. A :class:`~repro.search.space.Candidate` is built only for a
    position that is measured or featurized; the :class:`SearchResult`
    keys its measurements by candidate key.

    Args:
        space: The pruned search space.
        estimate_fn: Analytical model over a batch: ``positions ->
            estimates`` aligned with the input (cheap, called on every
            ranked population; each position counts into
            ``num_estimates``).
        evaluator: Measurement executor for the per-round top-n batch of
            positions.
        population_size/top_n/epsilon/max_rounds/min_rounds: Algorithm-1
            parameters, identical semantics to the paper's pseudo-code.
        seed: Strategy randomness; the rng stream is derived from the
            (strategy, chain, gpu, seed) tuple, so runs are reproducible.
        cost_model: Optional :class:`~repro.search.cost_model.
            LearnedCostModel`. When attached, every finite measurement is
            observed into its dataset and the model refits once per round;
            with ``measure_topk > 0`` it additionally guides the pick.
        measure_topk: Measure only the model's predicted best ``k``
            unmeasured proposals per round (0 disables; requires
            ``cost_model`` and ``feature_fn``). Falls back to the classic
            top-n batch in rounds where the model is not yet fitted.
        feature_fn: ``Candidate -> feature vector`` for the cost model
            (memoized per position).
    """

    def __init__(
        self,
        space: "SearchSpace",
        estimate_fn: Callable[[np.ndarray], Sequence[float]],
        evaluator: ParallelEvaluator,
        population_size: int = 512,
        top_n: int = 8,
        epsilon: float = 0.01,
        max_rounds: int = 16,
        min_rounds: int = 5,
        seed: int = 0,
        cost_model: "LearnedCostModel | None" = None,
        measure_topk: int = 0,
        feature_fn: Callable[["Candidate"], np.ndarray] | None = None,
    ) -> None:
        if len(space) == 0:
            raise ValueError(f"empty search space for chain {space.chain.name!r}")
        if measure_topk < 0:
            raise ValueError(f"measure_topk must be >= 0, got {measure_topk}")
        if measure_topk > 0 and (cost_model is None or feature_fn is None):
            raise ValueError("measure_topk > 0 requires cost_model and feature_fn")
        self.space = space
        self._estimate_fn = estimate_fn
        self.evaluator = evaluator
        self.population_size = min(population_size, len(space))
        self.top_n = min(top_n, len(space))
        self.epsilon = epsilon
        self.max_rounds = max_rounds
        self.min_rounds = min_rounds
        self.seed = seed
        self.cost_model = cost_model
        self.measure_topk = measure_topk
        self._feature_fn = feature_fn
        self._feature_cache: dict[int, np.ndarray] = {}
        # shared bookkeeping; rng is assigned by run() from the strategy's
        # rng_key — accessing it before run() is a bug and fails loudly.
        self.rng: np.random.Generator
        self.measured_positions: dict[int, float] = {}
        self.failed_positions: set[int] = set()
        self.pairs: list[tuple[float, float]] = []
        self.best_position: int | None = None
        self.best_time = float("inf")
        self.num_estimates = 0
        self.num_measurements = 0
        self.rounds = 0
        self.model_rounds = 0
        self.converged = False

    # -- services strategies call back into -----------------------------------

    def estimate_batch(self, positions: "Sequence[int]") -> np.ndarray:
        """Score ``positions`` with the analytical model in one call (counted)."""
        positions = np.asarray(positions, dtype=np.intp)
        self.num_estimates += len(positions)
        return np.asarray(self._estimate_fn(positions), dtype=np.float64)

    def estimate(self, position: int) -> float:
        """Score one position: a batch of one."""
        return float(self.estimate_batch([position])[0])

    def _unmeasured(self, positions: np.ndarray, limit: int | None) -> list[int]:
        """Indices into ``positions`` of its first ``limit`` (all, if
        ``None``) positions not yet measured, each once."""
        done = self.measured_positions
        picked: list[int] = []
        seen: set[int] = set()
        for i, p in enumerate(positions.tolist()):
            if p in done or p in seen:
                continue
            picked.append(i)
            seen.add(p)
            if limit is not None and len(picked) >= limit:
                break
        return picked

    def pick_unmeasured(
        self, positions: np.ndarray, estimates: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """The best ``top_n`` ranked positions not yet measured, with their
        estimates.

        Skips everything in the measured cache (which subsumes the failed
        blacklist — failures are cached as ``inf``) and deduplicates within
        the batch, so each round extends hardware knowledge strictly deeper
        into the strategy's ranking.
        """
        picked = self._unmeasured(positions, self.top_n)
        return positions[picked], estimates[picked]

    def features_for(self, position: int) -> np.ndarray:
        """The cost-model feature vector of a position's candidate
        (memoized by position)."""
        assert self._feature_fn is not None
        feats = self._feature_cache.get(position)
        if feats is None:
            feats = self._feature_cache[position] = self._feature_fn(
                self.space.candidate(position)
            )
        return feats

    def pick_by_model(
        self, positions: np.ndarray, estimates: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """The learned model's predicted-best ``measure_topk`` unmeasured
        positions — drawn from *all* of the ranking, not just its analytic
        top-n, so a good model can rescue candidates the prior misranks.
        Stable-sorted, so ties fall back to the strategy's order and the
        pick stays deterministic for a fixed (seed, dataset).
        """
        assert self.cost_model is not None
        pool = self._unmeasured(positions, None)
        if not pool:
            return positions[pool], estimates[pool]
        x = np.stack([self.features_for(p) for p in positions[pool].tolist()])
        order = self.cost_model.rank(x, estimates[pool])
        picked = [pool[i] for i in order[: self.measure_topk]]
        return positions[picked], estimates[picked]

    # -- the driver ------------------------------------------------------------

    def run(self, strategy: "SearchStrategy") -> SearchResult:
        """Run ``strategy`` to convergence (or budget exhaustion)."""
        from repro.obs import get_tracer

        tracer = get_tracer()
        space = self.space
        self.rng = rng_for(*strategy.rng_key(space, self.seed))
        strategy.begin(self)
        while self.rounds < strategy.round_budget(self):
            self.rounds += 1
            with tracer.span(
                "search.round",
                clock=getattr(self.evaluator, "clock", None),
                round=self.rounds,
                strategy=strategy.name,
            ) as span:
                positions, estimates = strategy.propose(self)
                positions = np.asarray(positions, dtype=np.intp)
                estimates = np.asarray(estimates, dtype=np.float64)
                model_guided = (
                    self.measure_topk > 0
                    and self.cost_model is not None
                    and self.cost_model.ready
                )
                if model_guided:
                    picked, picked_est = self.pick_by_model(positions, estimates)
                    self.model_rounds += 1
                else:
                    picked, picked_est = self.pick_unmeasured(positions, estimates)
                span.set(
                    proposed=len(positions),
                    pruned=len(positions) - len(picked),
                    measured=len(picked),
                    model_guided=model_guided,
                )
                if not len(picked):
                    break  # every reachable candidate measured or failed
                picked_positions = picked.tolist()
                times = self.evaluator.measure(picked_positions)

                round_best_time = float("inf")
                round_best = None
                for p, est, t in zip(picked_positions, picked_est.tolist(), times):
                    # Normalize non-finite measurements (inf *and* NaN) to a
                    # plain launch failure: a NaN would compare False against
                    # everything and silently corrupt best-tracking and the
                    # convergence test.
                    if not math.isfinite(t):
                        t = float("inf")
                    self.measured_positions[p] = t
                    self.num_measurements += 1
                    self.pairs.append((est, t))
                    if t == float("inf"):
                        self.failed_positions.add(p)
                    elif self.cost_model is not None and self._feature_fn is not None:
                        self.cost_model.observe(
                            self.features_for(p),
                            est,
                            t,
                            workload=space.chain.name,
                        )
                    if round_best is None or t < round_best_time:
                        round_best_time, round_best = t, p
                assert round_best is not None
                if self.cost_model is not None and self._feature_fn is not None:
                    self.cost_model.fit()  # no-op while starved or data-unchanged
                    span.event(
                        "cost_model.fit",
                        ready=self.cost_model.ready,
                        ranking_accuracy=self.cost_model.accuracy,
                    )

                prev_best = self.best_time
                if self.best_position is None or round_best_time < self.best_time:
                    self.best_position, self.best_time = round_best, round_best_time
                span.set(round_best=round_best_time, best_time=self.best_time)
                if (
                    strategy.uses_convergence
                    and self.rounds >= self.min_rounds
                    and prev_best != float("inf")
                ):
                    rel_improvement = (prev_best - round_best_time) / prev_best
                    if rel_improvement < self.epsilon:
                        # A fresh round of measurements failed to improve the
                        # best meaningfully: the search has converged.
                        self.converged = True
                        break
                strategy.evolve(self)

        assert self.best_position is not None
        return SearchResult(
            best=space.candidate(self.best_position),
            best_time=self.best_time,
            rounds=self.rounds,
            num_estimates=self.num_estimates,
            num_measurements=self.num_measurements,
            converged=self.converged,
            pairs=self.pairs,
            measured={space.candidate(p).key: t for p, t in self.measured_positions.items()},
            strategy=strategy.name,
            measure_topk=self.measure_topk,
            model_rounds=self.model_rounds,
            ranking_accuracy=(
                self.cost_model.accuracy if self.cost_model is not None else None
            ),
        )
