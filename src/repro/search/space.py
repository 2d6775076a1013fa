"""The pruned search space: a lazy view over the streaming pipeline (§III).

``generate_space`` remains the entry point, but it no longer eagerly
enumerates anything: it wires up the Rule 1-4 generator pipeline
(:mod:`repro.search.engine.pipeline`) and returns a :class:`SearchSpace`
that materializes on demand. Iterating the space touches each candidate
exactly once; consumers that need the full set (tests, the experiment
drivers, random sampling) force materialization through the
``candidates`` / ``stats`` / ``len`` accessors and get the same candidate
order and pruning funnel the old eager implementation produced.

Candidates are **priced and measured, not built**: the pipeline evaluates
the eq. 2-5 estimate of every candidate from per-expression schedule
templates, ``price`` serves it from the space's price table, and
``launch_for`` summarizes a candidate as a kernel launch from the template
that priced it. ``schedule_for`` builds a
:class:`~repro.tiling.schedule.Schedule` lazily, once per candidate, for
the few candidates that are verified, featurized or returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Iterator

from repro.gpu.kernel import KernelLaunch
from repro.gpu.specs import GPUSpec
from repro.ir.chain import ComputeChain
from repro.search.perf_model import PerfEstimate, estimate_time
from repro.search.pruning import PruningStats
from repro.tiling.expr import TilingExpr
from repro.tiling.schedule import Schedule, ScheduleTemplate, build_schedule

if TYPE_CHECKING:  # pragma: no cover
    from repro.search.engine.pipeline import PruningFunnel, TemplateTable

__all__ = ["Candidate", "SearchSpace", "generate_space"]


@dataclass(frozen=True)
class Candidate:
    """One point of the search space: an expression class + tile sizes.

    ``key`` — ``(rendered expression, tiles)`` — identifies the candidate
    in every lookup table (prices, schedules, measurements).
    """

    expr: TilingExpr
    tiles: tuple[tuple[str, int], ...]

    def __post_init__(self) -> None:
        # The search looks candidates up by key constantly; compute it once.
        object.__setattr__(self, "key", (self.expr.render(), self.tiles))

    @staticmethod
    def make(expr: TilingExpr, tiles: dict[str, int]) -> "Candidate":
        return Candidate(expr=expr, tiles=tuple(sorted(tiles.items())))

    @property
    def tile_dict(self) -> dict[str, int]:
        return dict(self.tiles)

    def describe(self) -> str:
        tiles = ",".join(f"T{l}={t}" for l, t in self.tiles)
        return f"{self.expr.render()}[{tiles}]"


class SearchSpace:
    """Lazy, immutable view over the pruned candidate pipeline.

    Iterating the space pulls candidates through the pipeline
    incrementally; the ``candidates`` tuple, ``stats``, ``len`` and
    ``contains`` force full materialization. Once materialized the
    candidate set is frozen — there is no way to mutate it, so the key
    index (`functools.cached_property`) can never go stale.

    Construct through :func:`generate_space` (streaming) or
    :meth:`from_candidates` (eager, for tests and restricted baselines).
    """

    def __init__(
        self,
        chain: ComputeChain,
        gpu: GPUSpec,
        source: "Iterator[tuple[Candidate, PerfEstimate, ScheduleTemplate]]",
        funnel: "PruningFunnel",
        tile_options: dict[str, list[int]],
        deep_only: bool = False,
        optimized: bool = True,
        max_candidates: int | None = None,
        templates: "TemplateTable | None" = None,
    ) -> None:
        self.chain = chain
        self.gpu = gpu
        self.tile_options = tile_options
        self.deep_only = deep_only
        #: Whether candidates are priced (and ``schedule_for`` memoizes
        #: schedules) with the extent-1 DAG optimization.
        self.optimized = optimized
        self._source = source
        self._funnel = funnel
        self._max_candidates = max_candidates
        self._templates: "TemplateTable" = {} if templates is None else templates
        self._prices: dict[tuple, PerfEstimate] = {}
        #: candidate key -> the template that priced it
        self._launchers: dict[tuple, ScheduleTemplate] = {}
        self._schedules: dict[tuple, Schedule] = {}
        self._lazy_builds = 0
        self._drained: list[Candidate] = []
        self._candidates: tuple[Candidate, ...] | None = None

    @classmethod
    def from_candidates(
        cls,
        chain: ComputeChain,
        gpu: GPUSpec,
        candidates: "list[Candidate] | tuple[Candidate, ...]",
        stats: PruningStats,
        tile_options: dict[str, list[int]],
        deep_only: bool = False,
        optimized: bool = True,
    ) -> "SearchSpace":
        """Eagerly frozen space over an explicit candidate list."""
        from repro.search.engine.pipeline import PruningFunnel

        funnel = PruningFunnel(
            expressions=stats.expressions,
            classes_rule1=stats.classes_rule1,
            classes_rule2=stats.classes_rule2,
            original=stats.original,
            after_rule1=stats.after_rule1,
            after_rule2=stats.after_rule2,
            after_rule3=stats.after_rule3,
            after_rule4=stats.after_rule4,
            complete=True,
        )
        space = cls(
            chain=chain,
            gpu=gpu,
            source=iter(()),
            funnel=funnel,
            tile_options=tile_options,
            deep_only=deep_only,
            optimized=optimized,
        )
        space._candidates = tuple(candidates)
        return space

    # -- streaming -------------------------------------------------------------

    def _pull(self) -> bool:
        """Drain one priced candidate from the pipeline; False when done."""
        try:
            cand, price, template = next(self._source)
        except StopIteration:
            self._candidates = tuple(self._drained)
            return False
        self._prices[cand.key] = price
        self._launchers[cand.key] = template
        self._drained.append(cand)
        return True

    def __iter__(self) -> Iterator[Candidate]:
        """Stream candidates through the pipeline.

        Already-drained candidates are replayed first; the remainder comes
        straight off the generator stages, so interleaved iterators and a
        mid-stream ``materialize()`` all observe one consistent sequence.
        With ``max_candidates`` set the deterministic stride requires the
        total count, so the space materializes first.
        """
        if self._max_candidates is not None:
            self.materialize()
        if self._candidates is not None:
            yield from self._candidates
            return
        i = 0
        while True:
            while i < len(self._drained):
                yield self._drained[i]
                i += 1
            if self._candidates is not None or not self._pull():
                return

    # -- materialization -------------------------------------------------------

    def materialize(self) -> tuple[Candidate, ...]:
        """Drain the pipeline; idempotent. Returns the frozen candidates.

        Applies the optional ``max_candidates`` cap (deterministically
        strided over the pruned set, as the eager implementation did);
        prices of dropped candidates are released.
        """
        while self._candidates is None and self._pull():
            pass
        if self._max_candidates is not None:
            cap = self._max_candidates
            self._max_candidates = None
            if len(self._candidates) > cap:
                stride = len(self._candidates) / cap
                kept = tuple(self._candidates[int(i * stride)] for i in range(cap))
                self._prices = {c.key: self._prices[c.key] for c in kept}
                self._launchers = {c.key: self._launchers[c.key] for c in kept}
                self._candidates = kept
        return self._candidates

    @property
    def candidates(self) -> tuple[Candidate, ...]:
        """The frozen candidate tuple (forces materialization)."""
        return self.materialize()

    @property
    def stats(self) -> PruningStats:
        """The complete Fig. 7 pruning funnel (forces materialization)."""
        self.materialize()
        return self._funnel.snapshot()

    @property
    def funnel(self) -> "PruningFunnel":
        """The live, incrementally accumulated funnel (may be partial)."""
        return self._funnel

    def __len__(self) -> int:
        return len(self.materialize())

    # -- lookups ---------------------------------------------------------------

    def price(self, cand: Candidate) -> PerfEstimate:
        """The eq. 2-5 estimate of ``cand``, from the price table.

        Candidates the pipeline did not price (a space built with
        :meth:`from_candidates`) are priced by the reference oracle on first
        use. Bit-identical to ``estimate_time(schedule_for(cand), gpu)``.
        """
        est = self._prices.get(cand.key)
        if est is None:
            est = self._prices[cand.key] = estimate_time(self.schedule_for(cand), self.gpu)
        return est

    def launch_for(self, cand: Candidate) -> KernelLaunch:
        """The simulator launch of ``cand``, from the template that priced it.

        Builds nothing. Candidates the pipeline did not price (a space built
        with :meth:`from_candidates`) fall back to the built schedule. Equal
        to ``schedule_for(cand).kernel_launch(gpu)``.
        """
        template = self._launchers.get(cand.key)
        if template is None:
            return self.schedule_for(cand).kernel_launch(self.gpu)
        return template.launch(cand.tile_dict, self.gpu)

    def schedule_for(self, cand: Candidate, optimize: bool | None = None) -> Schedule:
        """The schedule of ``cand``, built on first request and memoized.

        ``optimize`` defaults to the space's own flag; only that variant is
        memoized (the other flag always builds afresh).
        """
        if optimize is None:
            optimize = self.optimized
        if optimize != self.optimized:
            self._lazy_builds += 1
            return build_schedule(self.chain, cand.expr, cand.tile_dict, optimize=optimize)
        schedule = self._schedules.get(cand.key)
        if schedule is None:
            self._lazy_builds += 1
            schedule = build_schedule(self.chain, cand.expr, cand.tile_dict, optimize=optimize)
            schedule = self._schedules.setdefault(cand.key, schedule)
        return schedule

    @property
    def templates(self) -> int:
        """Schedule templates priced so far (one schedule built for each)."""
        return len(self._templates)

    @property
    def schedules_built(self) -> int:
        """Every ``build_schedule`` call this space made: one per template
        plus one per ``schedule_for`` construction."""
        return len(self._templates) + self._lazy_builds

    def contains(self, cand: Candidate) -> bool:
        return cand.key in self._keys

    def canonical(self, key: tuple) -> Candidate | None:
        """The space's own candidate with ``key``, or ``None`` if outside."""
        return self._keys.get(key)

    @cached_property
    def _keys(self) -> dict[tuple, Candidate]:
        # Safe to cache permanently: materialize() freezes the candidate
        # tuple, and there is no mutation path afterwards.
        return {c.key: c for c in self.materialize()}

    @cached_property
    def mutation_table(self) -> tuple[tuple[str, int, tuple[int, ...], dict[int, int]], ...]:
        """Per loop, in ``chain.loop_names`` order: ``(loop, position in the
        name-sorted tiles, Rule-3 options, tile -> first option index)`` —
        what one tile mutation looks up instead of recomputing."""
        loops = self.chain.loop_names
        ordered = sorted(loops)
        table = []
        for loop in loops:
            options = tuple(self.tile_options[loop])
            index: dict[int, int] = {}
            for i, tile in enumerate(options):
                index.setdefault(tile, i)
            table.append((loop, ordered.index(loop), options, index))
        return tuple(table)


def generate_space(
    chain: ComputeChain,
    gpu: GPUSpec,
    deep_only: bool = False,
    optimize_schedules: bool = True,
    max_candidates: int | None = None,
) -> SearchSpace:
    """Build the (lazily) pruned search space for ``chain`` on ``gpu``.

    Args:
        deep_only: Restrict to deep tilings (the Chimera search space used
            by the MCFuser-Chimera baseline, §VI-A).
        optimize_schedules: Apply the extent-1 DAG optimization when
            validating candidates (``False`` for MCFuser-Chimera).
        max_candidates: Optional hard cap (applied after pruning,
            deterministically strided) to bound test runtimes.
    """
    from repro.search.engine.pipeline import stream_space

    return stream_space(
        chain,
        gpu,
        deep_only=deep_only,
        optimize_schedules=optimize_schedules,
        max_candidates=max_candidates,
    )
