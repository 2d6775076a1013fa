"""Heuristic (evolutionary) search over the pruned space — Algorithm 1.

The implementation lives in the search engine now
(:mod:`repro.search.engine`): :class:`EvolutionarySearch` carries the
paper's population loop, :class:`~repro.search.engine.loop.SearchLoop`
the shared bookkeeping (measured cache, failed blacklist, convergence),
and :class:`~repro.search.engine.evaluator.ParallelEvaluator` the top-n
measurement dispatch. This module keeps the historical functional entry
point: ``heuristic_search`` drives the engine with a single-worker
evaluator and is bit-for-bit seeded-compatible with the pre-engine
monolithic loop (same rng stream, same estimate/measurement order).
"""

from __future__ import annotations

from typing import Callable

from repro.search.engine.evaluator import ParallelEvaluator
from repro.search.engine.loop import SearchLoop, SearchResult
from repro.search.engine.strategy import EvolutionarySearch
from repro.search.space import SearchSpace

__all__ = ["SearchResult", "heuristic_search"]


def heuristic_search(
    space: SearchSpace,
    estimate_fn: Callable[[int], float],
    measure_fn: Callable[[int], float],
    population_size: int = 512,
    top_n: int = 8,
    epsilon: float = 0.01,
    max_rounds: int = 16,
    min_rounds: int = 5,
    seed: int = 0,
) -> SearchResult:
    """Run Algorithm 1 over a pruned search space.

    Args:
        estimate_fn: Analytical model of one space position (cheap, called
            on everything the search ranks).
        measure_fn: Hardware measurement of one space position (expensive,
            top-n only). Results are cached by position — re-measuring is
            free, as on real hardware with a measurement log.
        epsilon: Relative convergence threshold on the best measured time
            (only armed after ``min_rounds`` rounds).
    """
    evaluator = ParallelEvaluator(measure_fn, workers=1, clock=None)
    loop = SearchLoop(
        space,
        lambda positions: [estimate_fn(p) for p in positions.tolist()],
        evaluator,
        population_size=population_size,
        top_n=top_n,
        epsilon=epsilon,
        max_rounds=max_rounds,
        min_rounds=min_rounds,
        seed=seed,
    )
    return loop.run(EvolutionarySearch())
