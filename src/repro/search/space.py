"""The pruned search space (§III-C, Fig. 7).

:func:`generate_space` builds it once per tune, eagerly
(:func:`repro.search.engine.pipeline.build_space`): Rules 1-4 cut the
~1e8 raw points of a chain to ~1e3-1e4 candidates, kept in a
:class:`SearchSpace` as a few aligned arrays together with the Fig. 7
funnel counts.

The search works on **positions**, ints into those arrays. A
:class:`Candidate` is built only for a point that is measured,
featurized or returned (:meth:`SearchSpace.candidate`). Points are
**priced and measured, not built**: the pipeline evaluates the work
totals of every kept point (DRAM bytes, FLOPs, grid size) in one array
pass over the chain's schedule templates; ``prices`` holds the eq. 2-5 estimates and, from the
first ``measure``, the space holds every point's jitter-free simulated
time, both as arrays. A measurement reads its point's time and adds the
simulator's jitter from its launch ``signature``. ``schedule_for``
builds a :class:`~repro.tiling.schedule.Schedule` lazily, once per
candidate, for the few candidates that are verified, featurized or
returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.gpu.simulator import GPUSimulator
from repro.gpu.specs import GPUSpec
from repro.ir.chain import ComputeChain
from repro.search.perf_model import PerfEstimate, combine
from repro.search.pruning import PruningStats
from repro.tiling.expr import TilingExpr
from repro.tiling.schedule import Schedule, ScheduleTemplate, ScheduleWork, build_schedule
from repro.tiling.schedule import compulsory_bytes, launch_arrays

__all__ = ["Candidate", "SpacePoints", "SearchSpace", "generate_space"]


@dataclass(frozen=True)
class Candidate:
    """One point of the search space: an expression class + tile sizes.

    ``key`` — ``(rendered expression, tiles)`` — identifies the candidate
    outside the search: in memoized schedules and in
    ``SearchResult.measured``.
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


@dataclass(frozen=True)
class SpacePoints:
    """A space's points as aligned arrays, one row per position.

    Point ``p`` tiles ``exprs[expr_id[p]]`` with ``tiles[p]`` (columns in
    ``chain.loop_names`` order). ``work`` holds its work totals
    (:meth:`~repro.search.engine.pipeline.PricedGrid.work`), and
    ``template[p]`` indexes the entry of ``templates`` that priced the
    point. ``bound`` of the templates were taken from the pipeline's memo,
    the others built.
    """

    exprs: tuple[TilingExpr, ...]
    expr_id: np.ndarray
    tiles: np.ndarray
    work: ScheduleWork
    template: np.ndarray
    templates: tuple[ScheduleTemplate, ...]
    bound: int = 0


class SearchSpace:
    """The frozen pruned space: its points, the Fig. 7 funnel and the
    Rule-3 tile options, plus the work totals and templates of the
    pipeline that priced the points, which also measure them.
    :func:`~repro.search.engine.pipeline.build_space` constructs it.

    **Positions.** A position is an int in ``range(len(space))`` and is a
    point's only identity inside the search: points are listed in
    expression order, then in grid row order, so each candidate key is
    held by exactly one position. :meth:`candidate` builds a position's
    :class:`Candidate` once and returns the same object afterwards, and
    ``candidates`` is the tuple of all of them, built on first access.

    **Mutation index.** A point's mixed-radix code is its expression id,
    then, per loop in ``chain.loop_names`` order, the index of its tile in
    that loop's (strictly increasing) Rule-3 options, so codes increase
    with position.

    * ``mutants[(p * L + i) * 2 + d]``, with ``L`` the chain's loop count,
      is where stepping loop ``i`` of point ``p`` one Rule-3 option down
      (``d = 0``) or up (``d = 1``) lands: the position holding ``code ±
      stride[i]``, or -1 when the step leaves the options or the space;
    * ``mutable_loops[i]`` is false for a loop with fewer than two options.

    Nothing here changes after construction, so no index can go stale.
    """

    def __init__(
        self,
        chain: ComputeChain,
        gpu: GPUSpec,
        points: SpacePoints,
        stats: PruningStats,
        tile_options: dict[str, list[int]],
        deep_only: bool = False,
        optimized: bool = True,
    ) -> None:
        self.chain = chain
        self.gpu = gpu
        self.tile_options = tile_options
        self.deep_only = deep_only
        #: Whether candidates are priced (and ``schedule_for`` builds
        #: schedules) with the extent-1 DAG optimization.
        self.optimized = optimized
        self._stats = stats
        self._schedules: dict[tuple, Schedule] = {}
        self._lazy_builds = 0
        self._candidates: tuple[Candidate, ...] | None = None
        self._memo: list[Candidate | None] = [None] * len(points.expr_id)
        self._points = points
        self._compulsory = float(compulsory_bytes(chain))
        work = points.work
        self._prices = combine(work.read_bytes, work.write_bytes, work.flops, work.grid, gpu)
        self._sorted_columns = sorted((loop, j) for j, loop in enumerate(chain.loop_names))
        self._build_mutants()

    def _build_mutants(self) -> None:
        loops = self.chain.loop_names
        tiles = self._points.tiles
        options = [np.asarray(self.tile_options[loop], dtype=np.int64) for loop in loops]
        digits = np.stack([np.searchsorted(o, tiles[:, j]) for j, o in enumerate(options)], axis=1)
        radices = [len(o) for o in options]
        strides = [int(np.prod(radices[j + 1:], dtype=np.int64)) for j in range(len(loops))]
        span = int(np.prod(radices, dtype=np.int64))
        codes = self._points.expr_id * span + digits @ np.asarray(strides, dtype=np.int64)

        # Every one-option step of every point: code ± stride[loop]. Codes
        # increase with position, so a code's index in them is its position.
        mutants = np.full((len(codes), len(loops), 2), -1, dtype=np.int64)
        for j in range(len(loops)):
            for d, step in enumerate((-1, 1)):
                new = digits[:, j] + step
                inside = np.flatnonzero((new >= 0) & (new < radices[j]))
                target = codes[inside] + step * strides[j]
                found = np.minimum(np.searchsorted(codes, target), len(codes) - 1)
                hit = codes[found] == target
                mutants[inside[hit], j, d] = found[hit]
        self.mutants: list[int] = mutants.ravel().tolist()
        self.mutable_loops = tuple(r >= 2 for r in radices)

    @property
    def candidates(self) -> tuple[Candidate, ...]:
        """Every position's candidate, in position order."""
        if self._candidates is None:
            self._candidates = tuple(self.candidate(p) for p in range(len(self)))
        return self._candidates

    @property
    def stats(self) -> PruningStats:
        """The Fig. 7 pruning funnel."""
        return self._stats

    def __len__(self) -> int:
        return len(self._memo)

    # -- lookups ---------------------------------------------------------------

    def candidate(self, position: int) -> Candidate:
        """The candidate at ``position``, built on first request."""
        cand = self._memo[position]
        if cand is None:
            points = self._points
            row = points.tiles[position].tolist()
            cand = Candidate(
                expr=points.exprs[points.expr_id[position]],
                tiles=tuple((loop, row[j]) for loop, j in self._sorted_columns),
            )
            self._memo[position] = cand
        return cand

    @property
    def work(self) -> ScheduleWork:
        """Every position's work totals and eq. (1) estimate, by position."""
        return self._points.work

    @property
    def prices(self) -> PerfEstimate:
        """Every position's eq. 2-5 estimate, as arrays aligned with the
        positions, bit-identical to ``estimate_time`` of its schedule."""
        return self._prices

    @cached_property
    def _launches(self) -> tuple[np.ndarray, ...]:
        points = self._points
        return launch_arrays(self.chain, points.templates, points.template, points.tiles, self.gpu)

    @property
    def shared_memory(self) -> np.ndarray:
        """Every position's measured shared memory per block (Fig. 10's
        y-axis), equal to its schedule's ``shm_measured(gpu)``."""
        return self._launches[0]

    @cached_property
    def _times(self) -> np.ndarray:
        """Every position's jitter-free simulated time, built on the first
        measurement; ``inf`` where the launch exceeds shared memory."""
        w = self.work
        return GPUSimulator(self.gpu).exact_times(
            w.grid, w.flops, w.read_bytes, w.write_bytes, *self._launches, self._compulsory
        )

    def signature(self, position: int) -> tuple:
        """The launch signature of ``position``, from Python numbers: equal
        to ``schedule_for(candidate(position)).kernel_launch(gpu).signature()``,
        element types included (the simulator's jitter hashes its ``repr``)."""
        points, w = self._points, self._points.work
        row = zip(self.chain.loop_names, points.tiles[position].tolist())
        sizes = ",".join(f"T{loop}={t}" for loop, t in row)
        return (
            f"{self.chain.name}:{points.exprs[points.expr_id[position]].render()}[{sizes}]",
            w.grid.item(position),
            *(round(a.item(position), 3) for a in (w.flops, w.read_bytes, w.write_bytes)),
            *(a.item(position) for a in self._launches),
            "triton", 1.0, round(self._compulsory, 3),
        )

    def measure(self, position: int, sim: GPUSimulator) -> float:
        """One measurement of ``position`` on ``sim``, a simulator of the
        space's GPU: ``sim.run`` of its schedule's launch, or ``inf`` where
        that raises ``SharedMemoryExceeded``. The one reader of the space's
        simulated times, so a search reads only what it measures."""
        t = self._times.item(position)
        if t == float("inf") or not sim.jitter_enabled:
            return t
        return t * (1.0 + sim.jitter(self.signature(position)))

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
        """Schedule templates that priced the space."""
        return len(self._points.templates)

    @property
    def templates_bound(self) -> int:
        """Templates taken from the pipeline's memo, not built."""
        return self._points.bound

    @property
    def schedules_built(self) -> int:
        """Every ``build_schedule`` call this space made: one per template
        not taken from the memo, plus one per ``schedule_for``
        construction."""
        return self.templates - self.templates_bound + self._lazy_builds


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
