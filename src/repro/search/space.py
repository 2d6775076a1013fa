"""The pruned search space (§III-C, Fig. 7).

:func:`generate_space` builds it once per tune, eagerly
(:func:`repro.search.engine.pipeline.build_space`): Rules 1-4 cut the
~1e8 raw points of a chain to ~1e3-1e4 candidates, kept in a
:class:`SearchSpace` together with the Fig. 7 funnel counts.

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
from typing import TYPE_CHECKING

from repro.gpu.kernel import KernelLaunch
from repro.gpu.specs import GPUSpec
from repro.ir.chain import ComputeChain
from repro.search.perf_model import PerfEstimate, estimate_time
from repro.search.pruning import PruningStats
from repro.tiling.expr import TilingExpr
from repro.tiling.schedule import Schedule, ScheduleTemplate, build_schedule

if TYPE_CHECKING:  # pragma: no cover
    from repro.search.engine.pipeline import TemplateTable

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
    """The frozen pruned space: candidates, the Fig. 7 funnel and the
    Rule-3 tile options, plus the price and launch tables of the pipeline
    that priced the candidates.

    ``candidates`` is a tuple and there is no mutation path, so the key
    index (`functools.cached_property`) can never go stale. A space built
    by hand (in tests) may omit the tables: its candidates are then
    priced and launched from built schedules.
    """

    def __init__(
        self,
        chain: ComputeChain,
        gpu: GPUSpec,
        candidates: "list[Candidate] | tuple[Candidate, ...]",
        stats: PruningStats,
        tile_options: dict[str, list[int]],
        deep_only: bool = False,
        optimized: bool = True,
        prices: dict[tuple, PerfEstimate] | None = None,
        launchers: dict[tuple, ScheduleTemplate] | None = None,
        templates: "TemplateTable | None" = None,
    ) -> None:
        self.chain = chain
        self.gpu = gpu
        self.tile_options = tile_options
        self.deep_only = deep_only
        #: Whether candidates are priced (and ``schedule_for`` builds
        #: schedules) with the extent-1 DAG optimization.
        self.optimized = optimized
        self._candidates = tuple(candidates)
        self._stats = stats
        self._prices: dict[tuple, PerfEstimate] = {} if prices is None else prices
        #: candidate key -> the template that priced it
        self._launchers: dict[tuple, ScheduleTemplate] = {} if launchers is None else launchers
        self._templates: "TemplateTable" = {} if templates is None else templates
        self._schedules: dict[tuple, Schedule] = {}
        self._lazy_builds = 0

    @property
    def candidates(self) -> tuple[Candidate, ...]:
        """The candidates; a generated space lists them in expression
        order, then grid row order."""
        return self._candidates

    @property
    def stats(self) -> PruningStats:
        """The Fig. 7 pruning funnel."""
        return self._stats

    def __len__(self) -> int:
        return len(self._candidates)

    # -- lookups ---------------------------------------------------------------

    def price(self, cand: Candidate) -> PerfEstimate:
        """The eq. 2-5 estimate of ``cand``, from the price table.

        Candidates the pipeline did not price (a space built by hand) are
        priced by the reference oracle on first use. Bit-identical to
        ``estimate_time(schedule_for(cand), gpu)``.
        """
        est = self._prices.get(cand.key)
        if est is None:
            est = self._prices[cand.key] = estimate_time(self.schedule_for(cand), self.gpu)
        return est

    def launch_for(self, cand: Candidate) -> KernelLaunch:
        """The simulator launch of ``cand``, from the template that priced it.

        Builds nothing. Candidates the pipeline did not price (a space built
        by hand) fall back to the built schedule. Equal to
        ``schedule_for(cand).kernel_launch(gpu)``.
        """
        template = self._launchers.get(cand.key)
        if template is None:
            return self.schedule_for(cand).kernel_launch(self.gpu)
        return template.launch(cand.tile_dict, self.gpu)

    def schedule_for(self, cand: Candidate) -> Schedule:
        """The schedule of ``cand`` under the space's own ``optimized``
        flag, built on first request and memoized."""
        schedule = self._schedules.get(cand.key)
        if schedule is None:
            self._lazy_builds += 1
            schedule = build_schedule(self.chain, cand.expr, cand.tile_dict, optimize=self.optimized)
            schedule = self._schedules.setdefault(cand.key, schedule)
        return schedule
    @property
    def templates(self) -> int:
        """Schedule templates that priced the space (one schedule built for each)."""
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
        # Safe to cache permanently: the candidate tuple never changes.
        return {c.key: c for c in self._candidates}

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
    """Build the pruned search space for ``chain`` on ``gpu``.

    Args:
        deep_only: Restrict to deep tilings (the Chimera search space used
            by the MCFuser-Chimera baseline, §VI-A).
        optimize_schedules: Apply the extent-1 DAG optimization when
            validating candidates (``False`` for MCFuser-Chimera).
        max_candidates: Optional hard cap (applied after pruning,
            deterministically strided) to bound test runtimes.
    """
    from repro.search.engine.pipeline import build_space  # deferred: pipeline imports us

    return build_space(
        chain,
        gpu,
        deep_only=deep_only,
        optimize_schedules=optimize_schedules,
        max_candidates=max_candidates,
    )
