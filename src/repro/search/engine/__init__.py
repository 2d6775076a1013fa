"""The search engine: streaming space generation, pluggable strategies,
and parallel measurement.

Layout::

    pipeline.py   Rule 1-4 stages as a composable generator pipeline that
                  prices every candidate from per-expression schedule
                  templates (no schedule built per candidate), with the
                  pruning funnel accumulated incrementally.
    loop.py       SearchLoop: the shared Algorithm-1 driver (measured
                  cache, failed blacklist, convergence, measurement
                  dispatch) every strategy runs inside.
    strategy.py   SearchStrategy protocol + registry: evolutionary (the
                  paper's Algorithm 1), random, exhaustive, annealing.
    evaluator.py  ParallelEvaluator: worker-pool top-n measurement with
                  deterministic wall-clock billing to the TuningClock.
"""

from repro.search.engine.evaluator import ParallelEvaluator, batch_makespan
from repro.search.engine.loop import SearchLoop, SearchResult
from repro.search.engine.pipeline import PruningFunnel, stream_space
from repro.search.engine.strategy import (
    STRATEGY_REGISTRY,
    EvolutionarySearch,
    ExhaustiveSearch,
    RandomSearch,
    SearchStrategy,
    SimulatedAnnealingSearch,
    make_strategy,
    mutate_candidate,
    register_strategy,
    strategy_names,
)

__all__ = [
    "PruningFunnel",
    "stream_space",
    "SearchLoop",
    "SearchResult",
    "ParallelEvaluator",
    "batch_makespan",
    "SearchStrategy",
    "EvolutionarySearch",
    "RandomSearch",
    "ExhaustiveSearch",
    "SimulatedAnnealingSearch",
    "STRATEGY_REGISTRY",
    "register_strategy",
    "make_strategy",
    "strategy_names",
    "mutate_candidate",
]
