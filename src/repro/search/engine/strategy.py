"""Pluggable search strategies over the pruned space.

A strategy decides *which space positions to rank* each round; the shared
:class:`~repro.search.engine.loop.SearchLoop` handles everything else
(measured cache, failed blacklist, convergence, parallel measurement).
Four strategies ship in the registry:

* ``evolutionary`` — Algorithm 1 of the paper (fitness-weighted
  resampling, tile mutation and a fresh-random share each generation);
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
    from repro.search.space import SearchSpace

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
    "mutate_position",
    "mutate_positions",
    "rank_by_estimate",
]


def _lemire(raw: np.ndarray, n: int) -> list[int]:
    """What ``rng.integers(n)`` makes of each raw uint32 draw: numpy's
    Lemire rule keeps ``(x * n) >> 32`` unless ``(x * n) mod 2**32 <
    (2**32 - n) % n``, which rejects the draw (-1 here)."""
    m = raw.astype(np.uint64) * np.uint64(n)
    values = (m >> np.uint64(32)).astype(np.int64)
    values[(m & np.uint64(0xFFFFFFFF)) < (2**32 - n) % n] = -1
    return values.tolist()


class BulkIntegers:
    """Serves ``rng.integers(n)`` draws from one block of raw uint32 draws.

    Within the ``with`` block, :meth:`integers` returns exactly what the
    same sequence of scalar ``rng.integers(n)`` calls would: numpy draws a
    bounded integer below ``n <= 2**32`` with Lemire's rule on one uint32
    per try (:func:`_lemire`), and consumes nothing for ``n == 1``. On
    exit the generator is rewound and advanced by exactly the uint32 draws
    used, so the stream after the batch is the scalar stream. Nothing else
    may draw from ``rng`` inside the block.

    A hot loop may skip the method call per draw: it reads the lists
    :meth:`bounded` decodes from index :attr:`used` on, then passes the
    number of draws it read to :meth:`advance`.
    """

    def __init__(self, rng: np.random.Generator, size: int) -> None:
        self._rng = rng
        self._size = max(1, size)

    def __enter__(self) -> "BulkIntegers":
        self._state = self._rng.bit_generator.state
        self._block: list[int] = []
        self._decoded: dict[int, list[int]] = {}
        self._used = 0
        return self

    def __exit__(self, *exc) -> None:
        self._rng.bit_generator.state = self._state
        if self._used:
            self._rng.integers(0, 2**32, size=self._used, dtype=np.uint32)

    @property
    def used(self) -> int:
        """Raw draws consumed so far: the index of the next one."""
        return self._used

    def advance(self, count: int) -> None:
        """Consume ``count`` raw draws that a reader of :meth:`bounded`
        lists has read."""
        if count < 0 or self._used + count > len(self._block):
            raise ValueError(f"cannot consume {count} draws at {self._used}")
        self._used += count

    def bounded(self, n: int, count: int = 0) -> list[int]:
        """Per raw draw of the block, the value ``rng.integers(n)`` takes
        from it, or -1 where Lemire's rule rejects it (numpy then tries the
        next raw draw). The block first grows to hold at least ``count``
        raw draws, and the list keeps growing with it; ``n`` must be at
        least 2."""
        values = self._decoded.get(n)
        if values is None:
            values = self._decoded[n] = _lemire(np.asarray(self._block, dtype=np.uint32), n)
        while len(self._block) < count:
            raw = self._rng.integers(0, 2**32, size=self._size, dtype=np.uint32)
            self._block.extend(raw.tolist())
            for bound, decoded in self._decoded.items():
                decoded.extend(_lemire(raw, bound))
        return values

    def integers(self, n: int) -> int:
        """The next ``rng.integers(n)`` value, as a Python int."""
        if not 1 <= n <= 2**32:
            raise ValueError(f"bound must be in [1, 2**32], got {n}")
        if n == 1:
            return 0
        n = int(n)
        values = self.bounded(n)
        while True:
            if self._used == len(values):
                self.bounded(n, self._used + 1)
            value = values[self._used]
            self._used += 1
            if value >= 0:
                return value


def mutate_position(
    space: "SearchSpace",
    position: int,
    rng: "np.random.Generator | BulkIntegers",
    attempts: int = 8,
) -> int:
    """Mutate one loop's tile size to a neighboring Rule-3 option, keeping
    the result inside the pruned space (retry a few times, else keep).

    Each attempt draws the loop, then (unless the loop has a single
    option) the direction, and reads the landing point from
    ``space.mutants``. Returns the mutant's position (``position`` itself
    when every attempt fails). ``rng`` only needs ``integers(n)``.
    """
    mutable, mutants = space.mutable_loops, space.mutants
    row = position * 2 * len(space.chain.loop_names)
    for _ in range(attempts):
        i = rng.integers(len(mutable))
        if not mutable[i]:
            continue
        # Same draw as ``rng.choice((-1, 1))``, at a fraction of its cost.
        mutant = mutants[row + 2 * i + rng.integers(2)]
        if mutant >= 0:
            return mutant
    return position


def mutate_positions(
    space: "SearchSpace", parents: "Sequence[int]", draws: BulkIntegers, attempts: int = 8
) -> list[int]:
    """:func:`mutate_position` of every parent in turn, drawing from
    ``draws``: the same mutants and the same draws, read from the block's
    decoded lists without a method call per draw."""
    mutable, mutants = space.mutable_loops, space.mutants
    n = len(mutable)
    if n < 2:  # a one-loop draw consumes nothing; there is no block to read
        return [mutate_position(space, p, draws, attempts) for p in parents]
    width = 2 * len(space.chain.loop_names)
    need = 2 * attempts  # the most draws a parent reads, rejections aside
    start = used = draws.used
    loops, steps = draws.bounded(n), draws.bounded(2)  # a bound of 2 never rejects
    out = []
    for parent in parents:
        if used + need > len(loops):
            draws.bounded(n, used + need)  # grows every decoded list
        row = parent * width
        mutant = parent
        for _ in range(attempts):
            i = loops[used]
            used += 1
            while i < 0:  # rejected by Lemire's rule: numpy reads the next draw
                draws.bounded(n, used + need)
                i = loops[used]
                used += 1
            if not mutable[i]:
                continue
            found = mutants[row + 2 * i + steps[used]]
            used += 1
            if found >= 0:
                mutant = found
                break
        out.append(mutant)
    draws.advance(used - start)
    return out


def rank_by_estimate(
    loop: "SearchLoop", positions: "Sequence[int]"
) -> tuple[np.ndarray, np.ndarray]:
    """Model-estimate ``positions`` (in one batch) and rank them best-first:
    the ranked positions and their estimates."""
    positions = np.asarray(positions, dtype=np.intp)
    estimates = loop.estimate_batch(positions)
    order = np.argsort(estimates)
    return positions[order], estimates[order]


class SearchStrategy:
    """Base class for search strategies (the pluggable protocol).

    Subclasses set ``name`` (the registry key) and implement
    :meth:`propose`; the other hooks have sensible defaults. Strategies
    work on space positions (see :class:`~repro.search.space.SearchSpace`).
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

    def propose(self, loop: "SearchLoop") -> tuple[np.ndarray, np.ndarray]:
        """Rank positions for this round: ``(positions, estimates)``,
        aligned arrays, best first.

        Estimates must be obtained through ``loop.estimate_batch`` (or
        ``loop.estimate`` for one position) so model-call accounting
        stays correct.
        """
        raise NotImplementedError

    def evolve(self, loop: "SearchLoop") -> None:
        """React to the round's measurements (mutate population, cool, ...)."""


class EvolutionarySearch(SearchStrategy):
    """Algorithm 1: fitness-weighted resampling + tile mutation.

    For a given seed, the rng key, the order of rng draws and the order of
    estimate and measurement calls are fixed, so seeded runs select the
    same schedule.
    """

    name = "evolutionary"

    def rng_key(self, space: "SearchSpace", seed: int) -> tuple:
        # The pre-engine implementation seeded with this exact tuple; keep
        # it so seeded runs reproduce historical results bit-for-bit.
        return ("heuristic-search", space.chain.name, space.gpu.name, seed)

    def begin(self, loop: "SearchLoop") -> None:
        self.population = loop.rng.choice(
            len(loop.space), size=loop.population_size, replace=False
        )
        self._estimates = np.zeros(0)

    def propose(self, loop: "SearchLoop") -> tuple[np.ndarray, np.ndarray]:
        self._estimates = loop.estimate_batch(self.population)
        order = np.argsort(self._estimates)
        return self.population[order], self._estimates[order]

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
        with BulkIntegers(rng, 3 * len(chosen)) as draws:
            population = mutate_positions(space, self.population[chosen].tolist(), draws)
        population += rng.choice(len(space), size=n_fresh, replace=True).tolist()
        # Known launch failures are replaced with fresh draws.
        failed = loop.failed_positions
        if failed:
            population = [
                p if p not in failed else int(rng.integers(len(space))) for p in population
            ]
        self.population = np.array(population, dtype=np.intp)


class RandomSearch(SearchStrategy):
    """Fresh random sample each round, model-ranked, no evolution.

    Isolates what the evolutionary machinery buys: the analytical model
    still picks the top-n of every sample, but nothing learned in one
    round shapes the next.
    """

    name = "random"

    def propose(self, loop: "SearchLoop") -> tuple[np.ndarray, np.ndarray]:
        sample = loop.rng.choice(len(loop.space), size=loop.population_size, replace=False)
        return rank_by_estimate(loop, sample)


class ExhaustiveSearch(SearchStrategy):
    """Measure the entire pruned space, best-estimated first.

    The ground-truth strategy: guaranteed to find the space's true optimum
    at maximum tuning cost. Convergence is disabled — the budget is
    exactly ``ceil(|space| / top_n)`` rounds.
    """

    name = "exhaustive"
    uses_convergence = False

    def round_budget(self, loop: "SearchLoop") -> int:
        return ceil_div(len(loop.space), loop.top_n)

    def begin(self, loop: "SearchLoop") -> None:
        self._ranked: tuple[np.ndarray, np.ndarray] | None = None

    def propose(self, loop: "SearchLoop") -> tuple[np.ndarray, np.ndarray]:
        if self._ranked is None:
            self._ranked = rank_by_estimate(loop, np.arange(len(loop.space)))
        return self._ranked


class SimulatedAnnealingSearch(SearchStrategy):
    """Simulated annealing on the analytical model's cost surface.

    Each round walks ``steps_per_round`` mutation steps from the current
    position, accepting uphill moves with probability
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
        self.current = int(loop.rng.integers(len(loop.space)))
        self.current_cost = loop.estimate(self.current)
        self.temperature = self.initial_temperature

    def propose(self, loop: "SearchLoop") -> tuple[np.ndarray, np.ndarray]:
        steps = self.steps_per_round or max(4 * loop.top_n, 32)
        # position -> its estimate, in visiting order
        visited = {self.current: self.current_cost}
        for _ in range(steps):
            neighbor = mutate_position(loop.space, self.current, loop.rng)
            cost = visited.get(neighbor)
            if cost is None:
                cost = visited[neighbor] = loop.estimate(neighbor)
            # Estimated times span orders of magnitude across the space;
            # anneal on the relative delta so temperature is scale-free.
            delta = (cost - self.current_cost) / max(self.current_cost, 1e-12)
            if delta <= 0 or loop.rng.random() < math.exp(-delta / self.temperature):
                self.current, self.current_cost = neighbor, cost
        positions = np.fromiter(visited, dtype=np.intp, count=len(visited))
        estimates = np.fromiter(visited.values(), dtype=np.float64, count=len(visited))
        order = np.argsort(estimates, kind="stable")
        return positions[order], estimates[order]

    def evolve(self, loop: "SearchLoop") -> None:
        self.temperature *= self.cooling
        # Restart the walk from the best measured point so the chain
        # exploits hardware knowledge, not just the model's surface.
        best = loop.best_position
        if best is not None and best not in loop.failed_positions:
            self.current = best
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
