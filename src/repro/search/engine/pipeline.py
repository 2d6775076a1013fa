"""Search-space generation: Rules 1-4 (§III-C, Fig. 7), priced without
building a schedule per candidate.

::

    surviving_expressions  Rule 1 dedup + Rule 2 class filter -> expressions
                           and the analytic head of the funnel
    price_grid             Rule 3 tile grid of one expression,  -> PricedGrid
                           priced from schedule templates:
                           validity, candidate-level Rule 2,
                           Rule 4 and the work totals
    build_space            Rules 3-4 as masks over every grid   -> SearchSpace

Everything the search needs before measuring depends only on the tiling
expression and on which per-block loops have extent 1 (see
:class:`~repro.tiling.schedule.ScheduleTemplate`). :func:`price_grid`
therefore builds one real schedule per distinct extent-1 set of an
expression, records it as a template, and evaluates the template over the
whole Rule-3 grid with numpy. Neither a template's core nor the surviving
expressions depend on the chain's sizes, so both are memoized process-wide
on the chain's size-free structure, shared by all of its shapes (bucket
tunes, the layers of a model). The space keeps each kept point's work
totals, which give both its eq. 2-5 estimate and, with the same template's
tables, its simulated time when first measured
(:meth:`~repro.search.space.SearchSpace.measure`); schedules of
individual candidates are built only for candidates that are verified,
featurized or returned (:meth:`~repro.search.space.SearchSpace.schedule_for`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.gpu.specs import GPUSpec
from repro.ir.chain import ComputeChain
from repro.search.perf_model import PerfEstimate, combine
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
    """Every tile point of one expression, priced from its templates.

    ``tiles`` has one row per point (columns in ``chain.loop_names`` order,
    rows in ``itertools.product`` order of the options); every other array,
    ``work``'s totals included, is aligned with its rows. Rejected points
    are priced too. Point ``i`` was priced from ``templates[group[i]]``;
    ``bound`` of the templates were bound from the memo, the others built.
    """

    tiles: np.ndarray
    valid: np.ndarray
    rule2: np.ndarray
    rule4: np.ndarray
    work: ScheduleWork
    group: np.ndarray
    templates: tuple[ScheduleTemplate, ...]
    bound: int
    gpu: GPUSpec

    @property
    def price(self) -> PerfEstimate:
        """Every point's eq. 2-5 estimate, from its work totals."""
        w = self.work
        return combine(w.read_bytes, w.write_bytes, w.flops, w.grid, self.gpu)


def price_grid(
    chain: ComputeChain,
    gpu: GPUSpec,
    expr: TilingExpr,
    options: dict[str, list[int]],
    optimize: bool = True,
) -> PricedGrid:
    """Price the ``expr`` x ``options`` tile grid from schedule templates.

    Points are grouped by their set of extent-1 per-block loops; each group
    is evaluated from one template: a memoized core of the same structure
    bound to ``chain``, or else one derived from a real schedule and
    memoized.
    """
    loops = chain.loop_names
    axes = np.meshgrid(*[np.asarray(options[l], dtype=np.int64) for l in loops], indexing="ij")
    tiles = np.stack([axis.ravel() for axis in axes], axis=1)
    sizes = np.array([chain.loops[l] for l in loops], dtype=np.int64)
    extents = -(-sizes // tiles)
    free = sub_tiling_expr(chain, expr).loops()
    unit = extents[:, [loops.index(l) for l in free]] == 1
    codes = unit @ (1 << np.arange(len(free), dtype=np.int64))
    _, first, group = np.unique(codes, return_index=True, return_inverse=True)

    used: list[ScheduleTemplate] = []
    works: list[ScheduleWork] = []
    bound = 0
    structure = chain.size_free_key()
    for g, rep in enumerate(first.tolist()):
        rows = np.flatnonzero(group == g)
        unit_loops = frozenset(l for l, u in zip(free, unit[rep]) if u)
        key = (structure, expr.render(), unit_loops, optimize)
        template = _CORES.get(key)
        if template is not None:
            bound += 1
            template = template.bind(chain)
        else:
            point = dict(zip(loops, tiles[rep].tolist()))
            schedule = build_schedule(chain, expr, point, optimize=optimize)
            template = _CORES.put(key, ScheduleTemplate.from_schedule(schedule))
        used.append(template)
        works.append(template.work(
            {l: tiles[rows, j] for j, l in enumerate(loops)},
            {l: extents[rows, j] for j, l in enumerate(loops)},
        ))
    # The works hold the rows group by group, in this order; undo it.
    order = np.argsort(group, kind="stable")
    work = ScheduleWork.concat(works).take(np.argsort(order))
    return PricedGrid(
        tiles=tiles,
        valid=np.array([t.valid for t in used])[group],
        rule2=np.array([t.single_copy for t in used])[group],
        rule4=rule4_fits(work.shm_estimate, gpu),
        work=work,
        group=group,
        templates=tuple(used),
        bound=bound,
        gpu=gpu,
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
    points of every grid are concatenated into the space's arrays, in
    expression order, then grid row order, each with its work totals and
    the template that priced it (whose tables also simulate it). No
    :class:`~repro.search.space.Candidate` is built here.
    """
    exprs, head = surviving_expressions(chain, deep_only=deep_only)
    options = {loop: rule3_tile_options(size) for loop, size in chain.loops.items()}
    templates: list[ScheduleTemplate] = []
    parts: list[tuple[np.ndarray, ...]] = []
    works: list[ScheduleWork] = []
    after_rule3 = bound = 0
    for eid, expr in enumerate(exprs):
        grid = price_grid(chain, gpu, expr, options, optimize_schedules)
        bound += grid.bound
        rule3 = grid.valid & grid.rule2
        after_rule3 += int(rule3.sum())
        kept = np.flatnonzero(rule3 & grid.rule4)
        parts.append((
            np.full(len(kept), eid, dtype=np.int64),
            grid.tiles[kept],
            grid.group[kept] + len(templates),
        ))
        works.append(grid.work.take(kept))
        templates.extend(grid.templates)
    if parts:
        expr_id, tiles, template = map(np.concatenate, zip(*parts))
        work = ScheduleWork.concat(works)
    else:
        none, nothing = np.zeros(0, dtype=np.int64), np.zeros(0)
        expr_id = template = none
        tiles = np.zeros((0, len(chain.loop_names)), dtype=np.int64)
        work = ScheduleWork(nothing, nothing, nothing, none, none)
    stats = replace(head, after_rule3=after_rule3, after_rule4=len(expr_id))
    if max_candidates is not None and len(expr_id) > max_candidates:
        stride = len(expr_id) / max_candidates
        rows = np.array([int(i * stride) for i in range(max_candidates)], dtype=np.int64)
        expr_id, tiles, template = expr_id[rows], tiles[rows], template[rows]
        work = work.take(rows)
    points = SpacePoints(
        exprs=tuple(exprs),
        expr_id=expr_id,
        tiles=tiles,
        work=work,
        template=template,
        templates=tuple(templates),
        bound=bound,
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
