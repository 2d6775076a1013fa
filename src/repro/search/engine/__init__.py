"""The search engine: space generation, pluggable strategies, and
parallel measurement.

Layout::

    pipeline.py   build_space: Rules 1-4 over each expression's tile grid,
                  every point priced from per-expression schedule
                  templates (no schedule built per candidate), the kept
                  points held as arrays, the pruning funnel counted from
                  the grids' masks.
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
from repro.search.engine.pipeline import build_space
from repro.search.engine.strategy import (
    STRATEGY_REGISTRY,
    EvolutionarySearch,
    ExhaustiveSearch,
    RandomSearch,
    SearchStrategy,
    SimulatedAnnealingSearch,
    make_strategy,
    mutate_position,
    register_strategy,
    strategy_names,
)

__all__ = [
    "build_space",
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
    "mutate_position",
]
