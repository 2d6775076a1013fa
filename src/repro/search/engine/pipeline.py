"""Search-space generation: Rules 1-4 (§III-C, Fig. 7), priced without
building a schedule per candidate.

::

    surviving_expressions  Rule 1 dedup + Rule 2 class filter -> expressions
                           and the analytic head of the funnel
    price_grid             the chain's Rule-3 tile grid under   -> PricedGrid
                           every expression, in one array pass
                           over its templates' term tables:
                           validity and candidate-level Rule 2
                           at every point, eq. (1) and the work
                           totals at the points asked for
    build_space            Rule 3 as a mask, eq. (1) for Rule 4 -> SearchSpace
                           at its survivors, totals at the kept

Everything the search needs before measuring depends only on the tiling
expression and on which per-block loops have extent 1 (see
:class:`~repro.tiling.schedule.ScheduleTemplate`). :func:`price_grid`
therefore builds one real schedule per distinct extent-1 set of an
expression and records it as a template. The grid's tiles and extents are
the same for every expression, so their products over every loop subset
are taken once per chain, and each term of every template is a gather
from them. Neither a template's core nor the surviving expressions depend
on the chain's sizes, so both are memoized process-wide on the chain's
size-free structure, shared by all of its shapes (bucket tunes, the layers
of a model). The space keeps each kept point's work totals, which give
both its eq. 2-5 estimate and, with the same template's tables, its
simulated time when first measured
(:meth:`~repro.search.space.SearchSpace.measure`); schedules of
individual candidates are built only for candidates that are verified,
featurized or returned (:meth:`~repro.search.space.SearchSpace.schedule_for`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.gpu.specs import GPUSpec
from repro.ir.chain import ComputeChain
from repro.search.pruning import (
    PruningStats,
    expression_classes,
    rule2_class_survives,
    rule2_probe_applies,
    rule3_tile_options,
    rule4_fits,
    unconstrained_tile_count,
)
from repro.search.space import SearchSpace, SpacePoints
from repro.tiling.enumeration import all_tilings, sub_tiling_expr
from repro.tiling.expr import TilingExpr
from repro.tiling.schedule import ScheduleTemplate, ScheduleWork, build_schedule
from repro.utils import LRUCache, prod, process_memo

__all__ = ["PricedGrid", "surviving_expressions", "price_grid", "build_space"]

#: ``(structure, rendered expression, extent-1 loops, optimize) -> template``
#: and ``(structure, deep_only, probe applies) -> (survivors, expression
#: count, class count)``, where the structure is the chain's stored
#: ``size_free_key()``. Values are immutable, so concurrent tunes share them.
_CORES = process_memo(LRUCache(capacity=1024))
_SURVIVORS = process_memo(LRUCache(capacity=1024))


def surviving_expressions(
    chain: ComputeChain, deep_only: bool = False
) -> tuple[list[TilingExpr], PruningStats]:
    """Rules 1-2 at the expression level.

    Returns the canonical representative of every equivalence class that
    survives Rule 2 for generic loop extents, in deterministic class order,
    and the funnel's analytic head (its Rule 3-4 counts are still 0). The
    expressions are memoized per size-free structure; the head is counted
    from ``chain``'s own sizes.
    """
    key = (chain.size_free_key(), deep_only, rule2_probe_applies(chain))
    memo = _SURVIVORS.get(key)
    if memo is None:
        exprs = all_tilings(chain)
        classes = expression_classes(chain)
        if deep_only:
            exprs = [e for e in exprs if e.is_deep]
            classes = {k: v for k, v in classes.items() if v.is_deep}
        survivors = tuple(v for v in classes.values() if rule2_class_survives(chain, v))
        memo = _SURVIVORS.put(key, (survivors, len(exprs), len(classes)))
    survivors, expressions, classes = memo

    raw_tiles = int(prod(unconstrained_tile_count(s) for s in chain.loops.values()))
    head = PruningStats(
        expressions=expressions,
        classes_rule1=classes,
        classes_rule2=len(survivors),
        original=expressions * raw_tiles,
        after_rule1=classes * raw_tiles,
        after_rule2=len(survivors) * raw_tiles,
        after_rule3=0,
        after_rule4=0,
    )
    return list(survivors), head


@dataclass(frozen=True)
class PricedGrid:
    """A chain's Rule-3 tile grid under every surviving expression, priced
    in one array pass.

    ``tiles`` is the grid, the same for every expression: one row per point
    (columns in ``chain.loop_names`` order, rows in ``itertools.product``
    order of the options). Priced row ``r`` is point ``r % len(tiles)`` under
    expression ``r // len(tiles)``, so rows run in expression order, then
    grid order; ``templates[template[r]]`` prices it, and ``valid`` and
    ``rule2`` are that template's validity and candidate-level Rule 2.
    Eq. (1) (:meth:`shm_estimate`) and the work totals (:meth:`work`) are
    evaluated only at the rows asked for, any row, rejected ones included.
    ``bound`` of the templates came from the memo, the others were built.
    """

    chain: ComputeChain
    tiles: np.ndarray
    template: np.ndarray
    valid: np.ndarray
    rule2: np.ndarray
    templates: tuple[ScheduleTemplate, ...]
    bound: int
    #: Products of the tiles and of the extents over every loop subset, by
    #: its bitmask, then by grid point; row ``1 << L`` is 0. Exact: int64,
    #: or Python ints when a product could overflow.
    tile_products: np.ndarray
    extent_products: np.ndarray
    #: The templates' ``work_masks``, padded with that 0 row and stacked on
    #: a last, template axis, and their grid masks.
    work_masks: np.ndarray
    grid_masks: np.ndarray

    def __len__(self) -> int:
        return len(self.template)

    def shm_estimate(self, rows: np.ndarray) -> np.ndarray:
        """Eq. (1) at ``rows``: the sum of the buffers' tile footprints."""
        buffers = self.work_masks[0, 3][:, self.template[rows]]  # the buffers' tile dims
        footprint = self.tile_products[buffers, rows % len(self.tiles)].sum(axis=0)
        return (footprint * self.chain.dtype_bytes).astype(np.int64)

    def work(self, rows: np.ndarray) -> ScheduleWork:
        """The work totals at ``rows``, bit-identical to the
        :class:`~repro.tiling.schedule.Schedule` methods at each: byte and
        tile counts are exact integer products, and the float totals add
        their terms in statement order, as the schedule's sums do."""
        points, template, batch = rows % len(self.tiles), self.template[rows], self.chain.batch
        tile, ext, softmax = self.work_masks[:, :3, :, template]
        tiles, trips = self.tile_products[tile, points], batch * self.extent_products[ext, points]
        read, write = (_in_order(tiles[t] * trips[t] * self.chain.dtype_bytes) for t in (0, 1))
        per_exec = 2.0 * tiles[2] + 7.0 * self.tile_products[softmax[2], points]
        grid = batch * self.extent_products[self.grid_masks[template], points]
        return ScheduleWork(
            read_bytes=read,
            write_bytes=write,
            flops=_in_order(per_exec * trips[2]),
            grid=grid.astype(np.int64),
            shm_estimate=self.shm_estimate(rows),
        )


def _in_order(terms: np.ndarray) -> np.ndarray:
    """The float64 sum of ``terms`` over its first axis, added left to
    right like the schedule's sums (a padding term adds an exact 0.0)."""
    total = np.zeros(terms.shape[1:])
    for term in terms.astype(np.float64):
        total = total + term
    return total


def price_grid(
    chain: ComputeChain,
    exprs: list[TilingExpr],
    options: dict[str, list[int]],
    optimize: bool = True,
) -> PricedGrid:
    """Price the ``options`` tile grid under every expression of ``exprs``.

    An expression's points are grouped by their set of extent-1 per-block
    loops. Each group is priced by one template: a memoized core of the
    same structure, or else one derived from a real schedule at the group's
    first point and memoized. The tile and extent products over every loop
    subset are taken once for the whole grid, so each term of every
    template is a gather from them.
    """
    loops = chain.loop_names
    axes = np.meshgrid(*[np.asarray(options[l], dtype=np.int64) for l in loops], indexing="ij")
    tiles = np.stack([axis.ravel() for axis in axes], axis=1)
    sizes = np.array([chain.loops[l] for l in loops], dtype=np.int64)
    extents = -(-sizes // tiles)
    bits = 1 << np.arange(len(loops), dtype=np.int64)
    codes, first, inverse = np.unique(
        (extents == 1) @ bits, return_index=True, return_inverse=True
    )
    codes, first = codes.tolist(), first.tolist()

    templates: list[ScheduleTemplate] = []
    template = np.zeros((len(exprs), len(tiles)), dtype=np.int64)
    bound = 0
    structure = chain.size_free_key()
    for e, expr in enumerate(exprs):
        free = sub_tiling_expr(chain, expr).loops()
        # A point's group: its extent-1 loops among ``free``, bit i for free[i].
        group = [
            sum(1 << i for i, l in enumerate(free) if code >> loops.index(l) & 1)
            for code in codes
        ]
        ids: dict[int, int] = {}
        for g in sorted(set(group)):
            unit_loops = frozenset(l for i, l in enumerate(free) if g >> i & 1)
            key = (structure, expr.render(), unit_loops, optimize)
            core = _CORES.get(key)
            if core is not None:
                bound += 1
            else:
                rep = min(f for f, h in zip(first, group) if h == g)
                point = dict(zip(loops, tiles[rep].tolist()))
                schedule = build_schedule(chain, expr, point, optimize=optimize)
                core = _CORES.put(key, ScheduleTemplate.from_schedule(schedule))
            ids[g] = len(templates)
            templates.append(core)
        template[e] = np.array([ids[g] for g in group], dtype=np.int64)[inverse]
    template = template.ravel()

    # Every term multiplies each loop's tile and extent at most once.
    span = np.ones(len(tiles))
    for j in range(len(loops)):
        span *= tiles[:, j] * extents[:, j]
    limit = 9.0 * chain.batch * chain.dtype_bytes * float(span.max(initial=1.0))
    dtype = np.int64 if limit < 2.0**62 else object
    tile_products, extent_products = (
        np.zeros(((1 << len(loops)) + 1, len(tiles)), dtype=dtype) for _ in range(2)
    )
    for products, factors in ((tile_products, tiles), (extent_products, extents)):
        products[0] = 1
        for j in range(len(loops)):
            products[1 << j:2 << j] = products[:1 << j] * factors[:, j].astype(dtype)

    width = max((t.work_masks.shape[-1] for t in templates), default=0)
    work_masks = np.full((3, 4, width, len(templates)), 1 << len(loops), dtype=np.int64)
    for i, t in enumerate(templates):
        work_masks[:, :, :t.work_masks.shape[-1], i] = t.work_masks
    return PricedGrid(
        chain=chain,
        tiles=tiles,
        template=template,
        valid=np.array([t.valid for t in templates], dtype=bool)[template],
        rule2=np.array([t.single_copy for t in templates], dtype=bool)[template],
        templates=tuple(templates),
        bound=bound,
        tile_products=tile_products,
        extent_products=extent_products,
        work_masks=work_masks,
        grid_masks=np.array([t.grid_mask for t in templates], dtype=np.int64),
    )


def build_space(
    chain: ComputeChain,
    gpu: GPUSpec,
    deep_only: bool = False,
    optimize_schedules: bool = True,
    max_candidates: int | None = None,
) -> SearchSpace:
    """The pruned :class:`~repro.search.space.SearchSpace` of ``chain``
    (arguments as :func:`~repro.search.space.generate_space`).

    A point survives Rule 3 if it is valid and passes candidate-level
    Rule 2, and Rule 4 if its shared-memory estimate fits too. The kept
    points are the space's arrays, in expression order, then grid row
    order, each with its work totals and the template that priced it
    (whose tables also simulate it). Eq. (1) is evaluated only at the
    Rule-3 survivors and the work totals only at the kept points. No
    :class:`~repro.search.space.Candidate` is built here.
    """
    exprs, head = surviving_expressions(chain, deep_only=deep_only)
    options = {loop: rule3_tile_options(size) for loop, size in chain.loops.items()}
    grid = price_grid(chain, exprs, options, optimize_schedules)
    rule3 = np.flatnonzero(grid.valid & grid.rule2)
    kept = rule3[rule4_fits(grid.shm_estimate(rule3), gpu)]
    stats = replace(head, after_rule3=len(rule3), after_rule4=len(kept))
    if max_candidates is not None and len(kept) > max_candidates:
        stride = len(kept) / max_candidates
        kept = kept[np.array([int(i * stride) for i in range(max_candidates)], dtype=np.int64)]
    points = SpacePoints(
        exprs=tuple(exprs),
        expr_id=kept // len(grid.tiles),
        tiles=grid.tiles[kept % len(grid.tiles)],
        work=grid.work(kept),
        template=grid.template[kept],
        templates=grid.templates,
        bound=grid.bound,
    )
    return SearchSpace(
        chain,
        gpu,
        points,
        stats,
        options,
        deep_only=deep_only,
        optimized=optimize_schedules,
    )
