"""The pruned search space (§III-C, Fig. 7).

:func:`generate_space` builds it once per tune, eagerly
(:func:`repro.search.engine.pipeline.build_space`): Rules 1-4 cut the
~1e8 raw points of a chain to ~1e3-1e4 candidates, kept in a
:class:`SearchSpace` as a few aligned arrays together with the Fig. 7
funnel counts.

The search works on **positions**, ints into those arrays. A
:class:`Candidate` is built only for a point that is measured,
featurized or returned (:meth:`SearchSpace.candidate`). Points are
**priced and measured, not built**: the pipeline evaluates the eq. 2-5
estimate of every point from per-expression schedule templates,
``prices`` holds them as arrays, and ``launch_for`` summarizes a
candidate as a kernel launch from the template that priced it.
``schedule_for`` builds a :class:`~repro.tiling.schedule.Schedule`
lazily, once per candidate, for the few candidates that are verified,
featurized or returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.gpu.kernel import KernelLaunch
from repro.gpu.specs import GPUSpec
from repro.ir.chain import ComputeChain
from repro.search.perf_model import PerfEstimate, estimate_time
from repro.search.pruning import PruningStats
from repro.tiling.expr import TilingExpr
from repro.tiling.schedule import Schedule, ScheduleTemplate, build_schedule

if TYPE_CHECKING:  # pragma: no cover
    from repro.search.engine.pipeline import TemplateTable

__all__ = ["Candidate", "SpacePoints", "SearchSpace", "generate_space"]


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


@dataclass(frozen=True)
class SpacePoints:
    """A space's points as aligned arrays, one row per position.

    Point ``p`` tiles ``exprs[expr_id[p]]`` with ``tiles[p]`` (columns in
    ``chain.loop_names`` order). ``price`` holds the eq. 2-5 estimates as
    arrays and ``template[p]`` indexes the entry of ``launchers`` that
    priced the point; a space built by hand from candidates has neither,
    and prices and launches them from built schedules.
    """

    exprs: tuple[TilingExpr, ...]
    expr_id: np.ndarray
    tiles: np.ndarray
    price: PerfEstimate | None = None
    template: np.ndarray | None = None
    launchers: tuple[ScheduleTemplate, ...] = ()


def _points_of(chain: ComputeChain, candidates: Sequence[Candidate]) -> SpacePoints:
    """The arrays of a hand-built space: no prices, no templates."""
    loops = chain.loop_names
    ids: dict[str, int] = {}
    exprs: list[TilingExpr] = []
    expr_id = []
    for cand in candidates:
        eid = ids.setdefault(cand.key[0], len(exprs))
        if eid == len(exprs):
            exprs.append(cand.expr)
        expr_id.append(eid)
    tiles = np.array(
        [[cand.tile_dict[l] for l in loops] for cand in candidates], dtype=np.int64
    ).reshape(len(candidates), len(loops))
    return SpacePoints(tuple(exprs), np.array(expr_id, dtype=np.int64), tiles)


class SearchSpace:
    """The frozen pruned space: its points, the Fig. 7 funnel and the
    Rule-3 tile options, plus the prices and templates of the pipeline
    that priced the points.

    **Positions.** A position is an int in ``range(len(space))``;
    :meth:`candidate` builds a position's :class:`Candidate` once and
    returns the same object afterwards, and ``candidates`` is the tuple of
    all of them, built on first access. A space built by hand
    (``SearchSpace(chain, gpu, candidates, stats, tile_options)``) keeps
    the given objects and prices and launches them from built schedules.

    **Key codes.** Every point has a mixed-radix code: its expression id,
    then, per loop in ``chain.loop_names`` order, the index of its tile in
    that loop's value universe (the Rule-3 options, then any off-grid tile
    a hand-built candidate carries). Two positions have equal codes
    exactly when their candidates have equal keys.

    * ``codes[p]`` is position ``p``'s code;
    * ``code_positions`` maps each code in the space to the position
      holding it (the last one, when a hand-built space repeats a key);
    * ``mutants[(p * L + i) * 2 + d]``, with ``L`` the chain's loop count,
      is where stepping loop ``i`` of point ``p`` one Rule-3 option down
      (``d = 0``) or up (``d = 1``) lands: the position holding ``code ±
      stride[i]``, or -1 when the step leaves the options or the space. A
      tile sits at its first option index; an off-grid tile steps from
      option 0;
    * ``mutable_loops[i]`` is false for a loop with fewer than two options.

    Nothing here changes after construction, so no index can go stale.
    """

    def __init__(
        self,
        chain: ComputeChain,
        gpu: GPUSpec,
        candidates: "Sequence[Candidate] | None",
        stats: PruningStats,
        tile_options: dict[str, list[int]],
        deep_only: bool = False,
        optimized: bool = True,
        points: SpacePoints | None = None,
        templates: "TemplateTable | None" = None,
    ) -> None:
        self.chain = chain
        self.gpu = gpu
        self.tile_options = tile_options
        self.deep_only = deep_only
        #: Whether candidates are priced (and ``schedule_for`` builds
        #: schedules) with the extent-1 DAG optimization.
        self.optimized = optimized
        self._stats = stats
        self._templates: "TemplateTable" = {} if templates is None else templates
        self._schedules: dict[tuple, Schedule] = {}
        self._priced: dict[tuple, PerfEstimate] = {}
        self._lazy_builds = 0
        self._candidates: tuple[Candidate, ...] | None = None
        if points is None:
            self._candidates = tuple(candidates or ())
            points = _points_of(chain, self._candidates)
            self._memo: list[Candidate | None] = list(self._candidates)
        else:
            self._memo = [None] * len(points.expr_id)
        self._points = points
        self._build_index()

    def _build_index(self) -> None:
        loops = self.chain.loop_names
        tiles = self._points.tiles
        digits = np.zeros(tiles.shape, dtype=np.int64)
        universes: list[list[int]] = []
        for j, loop in enumerate(loops):
            universe = list(dict.fromkeys(self.tile_options.get(loop, ())))
            column = tiles[:, j]
            universe += sorted(set(column.tolist()) - set(universe))
            values = np.asarray(universe, dtype=np.int64)
            order = np.argsort(values)
            digits[:, j] = order[np.searchsorted(values[order], column)]
            universes.append(universe)
        radices = [len(u) for u in universes]
        strides = [int(np.prod(radices[j + 1:], dtype=np.int64)) for j in range(len(loops))]
        span = int(np.prod(radices, dtype=np.int64))
        codes = self._points.expr_id * span + digits @ np.asarray(strides, dtype=np.int64)
        self.codes: list[int] = codes.tolist()
        # A repeated key maps to its last position.
        self.code_positions: dict[int, int] = dict(zip(self.codes, range(len(self.codes))))
        kept = np.fromiter(self.code_positions.values(), dtype=np.int64)
        kept = kept[np.argsort(codes[kept])]  # the mapped positions, by code
        kept_codes = codes[kept]

        # Every one-option step of every point: code ± stride[loop], where
        # a tile sits at its first option index (off-grid: option 0).
        value_index = [{t: v for v, t in enumerate(u)} for u in universes]
        mutants = np.full((len(codes), len(loops), 2), -1, dtype=np.int64)
        mutable = []
        for j, loop in enumerate(loops):
            options = self.tile_options.get(loop, ())
            mutable.append(len(options) >= 2)
            if not mutable[-1]:
                continue
            first: dict[int, int] = {}
            for i, tile in enumerate(options):
                first.setdefault(tile, i)
            at = np.array([first.get(t, 0) for t in universes[j]], dtype=np.int64)[digits[:, j]]
            option_values = np.array([value_index[j][t] for t in options], dtype=np.int64)
            for d, new in enumerate((at - 1, at + 1)):
                inside = np.flatnonzero((new >= 0) & (new < len(options)))
                step = option_values[new[inside]] - digits[inside, j]
                target = codes[inside] + step * strides[j]
                found = np.minimum(np.searchsorted(kept_codes, target), len(kept_codes) - 1)
                hit = kept_codes[found] == target
                mutants[inside[hit], j, d] = kept[found[hit]]
        self.mutants: list[int] = mutants.ravel().tolist()
        self.mutable_loops = tuple(mutable)

        # Key -> code, loop by loop in the key's name-sorted tile order.
        self._span = span
        self._expr_ids = {e.render(): i for i, e in enumerate(self._points.exprs)}
        by_name = sorted(range(len(loops)), key=lambda j: loops[j])
        self._key_loops = tuple((loops[j], value_index[j], strides[j]) for j in by_name)
        self._sorted_columns = tuple((loops[j], j) for j in by_name)

    @property
    def candidates(self) -> tuple[Candidate, ...]:
        """Every position's candidate; a generated space lists them in
        expression order, then grid row order."""
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

    def position(self, key: tuple) -> int | None:
        """The position holding ``key`` (the last one, for a key a
        hand-built space repeats), or ``None`` if outside the space."""
        render, tiles = key
        eid = self._expr_ids.get(render)
        if eid is None or len(tiles) != len(self._key_loops):
            return None
        code = eid * self._span
        for (loop, tile), (name, values, stride) in zip(tiles, self._key_loops):
            v = values.get(tile) if loop == name else None
            if v is None:
                return None
            code += v * stride
        return self.code_positions.get(code)

    @property
    def prices(self) -> PerfEstimate | None:
        """Every position's eq. 2-5 estimate, as arrays aligned with the
        positions; ``None`` for a space built by hand, which prices each
        candidate on request (:meth:`price`)."""
        return self._points.price

    def price(self, cand: Candidate) -> PerfEstimate:
        """The eq. 2-5 estimate of ``cand``, from the price arrays.

        Candidates the pipeline did not price (a space built by hand) are
        priced by the reference oracle on first use. Bit-identical to
        ``estimate_time(schedule_for(cand), gpu)``.
        """
        price = self._points.price
        p = None if price is None else self.position(cand.key)
        if p is not None:
            return PerfEstimate(
                t_mem=float(price.t_mem[p]),
                t_comp=float(price.t_comp[p]),
                alpha=float(price.alpha[p]),
            )
        est = self._priced.get(cand.key)
        if est is None:
            est = self._priced[cand.key] = estimate_time(self.schedule_for(cand), self.gpu)
        return est

    def launch_for(self, cand: Candidate) -> KernelLaunch:
        """The simulator launch of ``cand``, from the template that priced it.

        Builds nothing. Candidates the pipeline did not price (a space built
        by hand) fall back to the built schedule. Equal to
        ``schedule_for(cand).kernel_launch(gpu)``.
        """
        points = self._points
        p = None if points.template is None else self.position(cand.key)
        if p is None:
            return self.schedule_for(cand).kernel_launch(self.gpu)
        return points.launchers[points.template[p]].launch(cand.tile_dict, self.gpu)

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
        return self.position(cand.key) is not None

    def canonical(self, key: tuple) -> Candidate | None:
        """The space's own candidate with ``key``, or ``None`` if outside."""
        p = self.position(key)
        return None if p is None else self.candidate(p)


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
