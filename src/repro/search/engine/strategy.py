"""Pluggable search strategies over the pruned space.

A strategy decides *which candidates to rank* each round; the shared
:class:`~repro.search.engine.loop.SearchLoop` handles everything else
(measured cache, failed blacklist, convergence, parallel measurement).
Four strategies ship in the registry:

* ``evolutionary`` — Algorithm 1 of the paper, behavior-identical to the
  original monolithic implementation (same rng stream, same estimate and
  measurement order for a given seed);
* ``random`` — fresh random sample each round, model-ranked, no evolution
  (the "search without learning" baseline);
* ``exhaustive`` — rank the whole space with the model once, then measure
  *everything* in model order (ground truth; ignores convergence);
* ``annealing`` — simulated annealing on the model's cost surface, with
  the per-round visited set measured top-n like every other strategy.

Writing a new strategy: subclass :class:`SearchStrategy`, implement
``propose`` (and optionally ``begin``/``evolve``/``round_budget``), then
``register_strategy`` it — the tuner, the cache variant key, the CLI, and
the experiments harness all resolve strategies through
:func:`make_strategy`.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.utils import ceil_div

if TYPE_CHECKING:  # pragma: no cover
    from repro.search.engine.loop import SearchLoop
    from repro.search.space import Candidate, SearchSpace

__all__ = [
    "SearchStrategy",
    "EvolutionarySearch",
    "RandomSearch",
    "ExhaustiveSearch",
    "SimulatedAnnealingSearch",
    "STRATEGY_REGISTRY",
    "register_strategy",
    "make_strategy",
    "strategy_names",
    "BulkIntegers",
    "mutate_candidate",
    "rank_by_estimate",
]


class BulkIntegers:
    """Serves ``rng.integers(n)`` draws from one block of raw uint32 draws.

    Within the ``with`` block, :meth:`integers` returns exactly what the
    same sequence of scalar ``rng.integers(n)`` calls would: numpy draws a
    bounded integer below ``n <= 2**32`` with Lemire's rule on one uint32
    per try, rejecting only when ``(x * n) mod 2**32 < (2**32 - n) % n``,
    and consumes nothing for ``n == 1``. On exit the generator is rewound
    and advanced by exactly the uint32 draws used, so the stream after the
    batch is the scalar stream. Nothing else may draw from ``rng`` inside
    the block.
    """

    def __init__(self, rng: np.random.Generator, size: int) -> None:
        self._rng = rng
        self._size = max(1, size)

    def __enter__(self) -> "BulkIntegers":
        self._state = self._rng.bit_generator.state
        self._block: list[int] = []
        self._used = 0
        return self

    def __exit__(self, *exc) -> None:
        self._rng.bit_generator.state = self._state
        if self._used:
            self._rng.integers(0, 2**32, size=self._used, dtype=np.uint32)

    def integers(self, n: int) -> int:
        """The next ``rng.integers(n)`` value, as a Python int."""
        if not 1 <= n <= 2**32:
            raise ValueError(f"bound must be in [1, 2**32], got {n}")
        if n == 1:
            return 0
        threshold = (2**32 - n) % n
        block = self._block
        while True:
            if self._used == len(block):
                block.extend(
                    self._rng.integers(0, 2**32, size=self._size, dtype=np.uint32).tolist()
                )
            m = block[self._used] * n
            self._used += 1
            if (m & 0xFFFFFFFF) >= threshold:
                return m >> 32


def mutate_candidate(
    space: "SearchSpace",
    cand: "Candidate",
    rng: "np.random.Generator | BulkIntegers",
    attempts: int = 8,
) -> "Candidate":
    """Mutate one loop's tile size to a neighboring Rule-3 option, keeping
    the result inside the pruned space (retry a few times, else keep).

    Returns the space's own candidate object (``cand`` itself when every
    attempt fails). ``rng`` only needs ``integers(n)``.
    """
    table = space.mutation_table
    expr_key, tiles = cand.key
    for _ in range(attempts):
        loop, pos, options, index = table[rng.integers(len(table))]
        if len(options) < 2:
            continue
        # ``tiles`` is sorted by loop name; ``pos`` is this loop's entry.
        idx = index.get(tiles[pos][1], 0)
        # Same draw as ``rng.choice((-1, 1))``, at a fraction of its cost.
        new_idx = idx + (-1, 1)[rng.integers(2)]
        # Clamping a step off either end gives back ``idx``: no move.
        if not 0 <= new_idx < len(options):
            continue
        mutated = space.canonical(
            (expr_key, (*tiles[:pos], (loop, options[new_idx]), *tiles[pos + 1:]))
        )
        if mutated is not None:
            return mutated
    return cand


def rank_by_estimate(
    loop: "SearchLoop", candidates: "Sequence[Candidate]"
) -> tuple[list[tuple["Candidate", float]], np.ndarray]:
    """Model-estimate ``candidates`` (in one batch) and rank them best-first.

    Returns the ranked (candidate, estimate) list plus the raw estimate
    array aligned with ``candidates`` (evolution needs it for fitness
    weights).
    """
    estimates = loop.estimate_batch(candidates)
    values = estimates.tolist()
    ranked = [(candidates[i], values[i]) for i in np.argsort(estimates).tolist()]
    return ranked, estimates


class SearchStrategy:
    """Base class for search strategies (the pluggable protocol).

    Subclasses set ``name`` (the registry key) and implement
    :meth:`propose`; the other hooks have sensible defaults.
    """

    #: Registry key; also recorded in TuneReport and the cache variant key.
    name: str = "abstract"
    #: Whether the loop's epsilon-convergence criterion applies.
    uses_convergence: bool = True

    def rng_key(self, space: "SearchSpace", seed: int) -> tuple:
        """Parts seeding the loop's rng stream for this strategy."""
        return ("search", self.name, space.chain.name, space.gpu.name, seed)

    def round_budget(self, loop: "SearchLoop") -> int:
        """Maximum rounds this strategy may run (default: the loop's cap)."""
        return loop.max_rounds

    def begin(self, loop: "SearchLoop") -> None:
        """One-time setup before the first round."""

    def propose(self, loop: "SearchLoop") -> list[tuple["Candidate", float]]:
        """Rank candidates for this round: (candidate, estimate), best first.

        Estimates must be obtained through ``loop.estimate_batch`` (or
        ``loop.estimate`` for one candidate) so model-call accounting
        stays correct.
        """
        raise NotImplementedError

    def evolve(self, loop: "SearchLoop") -> None:
        """React to the round's measurements (mutate population, cool, ...)."""


class EvolutionarySearch(SearchStrategy):
    """Algorithm 1: fitness-weighted resampling + tile mutation.

    Behavior-identical to the original monolithic ``heuristic_search``:
    the rng key, the order of rng draws, and the order of estimate and
    measurement calls all match, so seeded runs select the same schedule.
    """

    name = "evolutionary"

    def rng_key(self, space: "SearchSpace", seed: int) -> tuple:
        # The pre-engine implementation seeded with this exact tuple; keep
        # it so seeded runs reproduce historical results bit-for-bit.
        return ("heuristic-search", space.chain.name, space.gpu.name, seed)

    def begin(self, loop: "SearchLoop") -> None:
        space = loop.space
        idx = loop.rng.choice(
            len(space.candidates), size=loop.population_size, replace=False
        )
        self.population: list["Candidate"] = [space.candidates[int(i)] for i in idx]
        self._estimates = np.zeros(0)

    def propose(self, loop: "SearchLoop") -> list[tuple["Candidate", float]]:
        ranked, self._estimates = rank_by_estimate(loop, self.population)
        return ranked

    def evolve(self, loop: "SearchLoop") -> None:
        # Next generation: fitness-weighted resampling + tile mutation,
        # with a 10% fresh-random injection for exploration.
        space, rng = loop.space, loop.rng
        weights = 1.0 / np.maximum(self._estimates, 1e-12)
        weights /= weights.sum()
        n_fresh = max(1, loop.population_size // 10)
        chosen = rng.choice(
            len(self.population), size=loop.population_size - n_fresh, p=weights
        )
        # The mutations are the only draws between the two choices, so they
        # come from one bulk block (same values, same stream afterwards).
        parents = self.population
        with BulkIntegers(rng, 3 * len(chosen)) as draws:
            population = [
                mutate_candidate(space, parents[i], draws) for i in chosen.tolist()
            ]
        fresh_ids = rng.choice(len(space.candidates), size=n_fresh, replace=True)
        population += [space.candidates[int(i)] for i in fresh_ids]
        # Known launch failures are replaced with fresh draws.
        self.population = [
            c
            if c.key not in loop.failed
            else space.candidates[int(rng.integers(len(space.candidates)))]
            for c in population
        ]


class RandomSearch(SearchStrategy):
    """Fresh random sample each round, model-ranked, no evolution.

    Isolates what the evolutionary machinery buys: the analytical model
    still picks the top-n of every sample, but nothing learned in one
    round shapes the next.
    """

    name = "random"

    def propose(self, loop: "SearchLoop") -> list[tuple["Candidate", float]]:
        space = loop.space
        idx = loop.rng.choice(
            len(space.candidates), size=loop.population_size, replace=False
        )
        sample = [space.candidates[int(i)] for i in idx]
        ranked, _ = rank_by_estimate(loop, sample)
        return ranked


class ExhaustiveSearch(SearchStrategy):
    """Measure the entire pruned space, best-estimated first.

    The ground-truth strategy: guaranteed to find the space's true optimum
    at maximum tuning cost. Convergence is disabled — the budget is
    exactly ``ceil(|space| / top_n)`` rounds.
    """

    name = "exhaustive"
    uses_convergence = False

    def round_budget(self, loop: "SearchLoop") -> int:
        return ceil_div(len(loop.space.candidates), loop.top_n)

    def begin(self, loop: "SearchLoop") -> None:
        self._ranked: list[tuple["Candidate", float]] | None = None

    def propose(self, loop: "SearchLoop") -> list[tuple["Candidate", float]]:
        if self._ranked is None:
            self._ranked, _ = rank_by_estimate(loop, list(loop.space.candidates))
        return self._ranked


class SimulatedAnnealingSearch(SearchStrategy):
    """Simulated annealing on the analytical model's cost surface.

    Each round walks ``steps_per_round`` mutation steps from the current
    candidate, accepting uphill moves with probability
    ``exp(-relative_delta / temperature)``; the round's visited set is
    ranked by estimated cost and the loop measures its top-n. The
    temperature cools geometrically per round.
    """

    name = "annealing"

    def __init__(
        self,
        initial_temperature: float = 0.5,
        cooling: float = 0.8,
        steps_per_round: int | None = None,
    ) -> None:
        if initial_temperature <= 0:
            raise ValueError("initial_temperature must be > 0")
        if not 0 < cooling < 1:
            raise ValueError("cooling must be in (0, 1)")
        self.initial_temperature = initial_temperature
        self.cooling = cooling
        self.steps_per_round = steps_per_round

    def begin(self, loop: "SearchLoop") -> None:
        space = loop.space
        start = int(loop.rng.integers(len(space.candidates)))
        self.current = space.candidates[start]
        self.current_cost = loop.estimate(self.current)
        self.temperature = self.initial_temperature

    def propose(self, loop: "SearchLoop") -> list[tuple["Candidate", float]]:
        steps = self.steps_per_round or max(4 * loop.top_n, 32)
        visited: dict[tuple, tuple["Candidate", float]] = {
            self.current.key: (self.current, self.current_cost)
        }
        for _ in range(steps):
            neighbor = mutate_candidate(loop.space, self.current, loop.rng)
            if neighbor.key in visited:
                cost = visited[neighbor.key][1]
            else:
                cost = loop.estimate(neighbor)
                visited[neighbor.key] = (neighbor, cost)
            # Estimated times span orders of magnitude across the space;
            # anneal on the relative delta so temperature is scale-free.
            delta = (cost - self.current_cost) / max(self.current_cost, 1e-12)
            if delta <= 0 or loop.rng.random() < math.exp(-delta / self.temperature):
                self.current, self.current_cost = neighbor, cost
        ranked = sorted(visited.values(), key=lambda pair: pair[1])
        return ranked

    def evolve(self, loop: "SearchLoop") -> None:
        self.temperature *= self.cooling
        # Restart the walk from the best measured point so the chain
        # exploits hardware knowledge, not just the model's surface.
        if loop.best is not None and loop.best.key not in loop.failed:
            self.current = loop.best
            self.current_cost = loop.estimate(self.current)


#: Registered strategy constructors, keyed by ``SearchStrategy.name``.
STRATEGY_REGISTRY: dict[str, type[SearchStrategy]] = {}


def register_strategy(cls: type[SearchStrategy]) -> type[SearchStrategy]:
    """Add a strategy class to the registry (usable as a decorator).

    Name collisions raise: silently replacing a built-in would change what
    ``--strategy <name>`` (and the strategy-keyed cache entries) mean.
    Re-registering the same class is an idempotent no-op.
    """
    if not cls.name or cls.name == "abstract":
        raise ValueError("strategy classes must define a unique name")
    existing = STRATEGY_REGISTRY.get(cls.name)
    if existing is not None and existing is not cls:
        raise ValueError(
            f"search strategy name {cls.name!r} is already registered "
            f"by {existing.__qualname__}"
        )
    STRATEGY_REGISTRY[cls.name] = cls
    return cls


for _cls in (EvolutionarySearch, RandomSearch, ExhaustiveSearch, SimulatedAnnealingSearch):
    register_strategy(_cls)


def strategy_names() -> list[str]:
    """Registered strategy names, registration order."""
    return list(STRATEGY_REGISTRY)


def make_strategy(strategy: "str | SearchStrategy") -> SearchStrategy:
    """Resolve a strategy name (or pass an instance through)."""
    if isinstance(strategy, SearchStrategy):
        return strategy
    if strategy not in STRATEGY_REGISTRY:
        raise ValueError(
            f"unknown search strategy {strategy!r}; "
            f"registered: {', '.join(STRATEGY_REGISTRY)}"
        )
    return STRATEGY_REGISTRY[strategy]()
