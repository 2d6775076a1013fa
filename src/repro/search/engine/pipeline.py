"""Streaming search-space generation: the Rule 1-4 stages as a generator
pipeline (§III), priced without building a schedule per candidate.

::

    expression_stage   Rule 1 dedup + Rule 2 class filter  -> TilingExpr
    price_stage        Rule 3 tile grid per expression,    -> (Candidate,
                       priced from schedule templates:         PerfEstimate,
                       validity, candidate-level Rule 2,       template)
                       Rule 4 and the eq. 2-5 estimate

Everything the search needs before measuring depends only on the tiling
expression and on which per-block loops have extent 1 (see
:class:`~repro.tiling.schedule.ScheduleTemplate`). :func:`price_grid`
therefore builds one real schedule per distinct extent-1 set of an
expression, records it as a template, and evaluates the template over the
whole Rule-3 grid with numpy. The same template later summarizes a
measured candidate as a kernel launch
(:meth:`~repro.search.space.SearchSpace.launch_for`); schedules of
individual candidates are built only for candidates that are verified,
featurized or returned (:meth:`~repro.search.space.SearchSpace.schedule_for`).

The Fig. 7 pruning funnel is accumulated *incrementally* in a
:class:`PruningFunnel` as candidates flow; a fully drained pipeline yields
the complete funnel.
:func:`stream_space` assembles the stages and wraps them in a lazy
:class:`~repro.search.space.SearchSpace` view.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

import numpy as np

from repro.gpu.specs import GPUSpec
from repro.ir.chain import ComputeChain
from repro.search.perf_model import PerfEstimate, combine
from repro.search.pruning import (
    PruningStats,
    expression_classes,
    rule2_class_survives,
    rule3_tile_options,
    rule4_fits,
    unconstrained_tile_count,
)
from repro.tiling.enumeration import all_tilings, sub_tiling_expr
from repro.tiling.expr import TilingExpr
from repro.tiling.schedule import ScheduleTemplate, build_schedule
from repro.utils import prod

if TYPE_CHECKING:  # pragma: no cover
    from repro.search.space import Candidate, SearchSpace

__all__ = [
    "PruningFunnel",
    "PricedGrid",
    "expression_stage",
    "price_grid",
    "price_stage",
    "candidate_pipeline",
    "stream_space",
]

#: ``(rendered expression, extent-1 loops, optimize) -> template``.
TemplateTable = dict[tuple[str, frozenset, bool], ScheduleTemplate]


@dataclass
class PruningFunnel:
    """Incrementally accumulated Fig. 7 funnel counts.

    The expression-level counts (Rules 1-2 plus the analytic early-stage
    sizes) are filled in by :func:`expression_stage` up front; the
    enumerated counts (Rules 3-4) grow as candidates flow through the
    pipeline. ``complete`` flips when the pipeline is fully drained —
    :meth:`snapshot` before that point describes a partially generated
    space.
    """

    expressions: int = 0
    classes_rule1: int = 0
    classes_rule2: int = 0
    original: int = 0
    after_rule1: int = 0
    after_rule2: int = 0
    after_rule3: int = 0
    after_rule4: int = 0
    complete: bool = False

    def snapshot(self) -> PruningStats:
        """Freeze the current counts into an immutable :class:`PruningStats`."""
        return PruningStats(
            expressions=self.expressions,
            classes_rule1=self.classes_rule1,
            classes_rule2=self.classes_rule2,
            original=self.original,
            after_rule1=self.after_rule1,
            after_rule2=self.after_rule2,
            after_rule3=self.after_rule3,
            after_rule4=self.after_rule4,
        )


def expression_stage(
    chain: ComputeChain,
    funnel: PruningFunnel,
    deep_only: bool = False,
) -> Iterator[TilingExpr]:
    """Rules 1-2 at the expression level; fills the funnel's analytic head.

    Yields the canonical representative of every equivalence class that
    survives Rule 2 for generic loop extents, in deterministic class order.
    """
    exprs = all_tilings(chain)
    if deep_only:
        exprs = [e for e in exprs if e.is_deep]
    classes = expression_classes(chain)
    if deep_only:
        classes = {k: v for k, v in classes.items() if v.is_deep}
    survivors = {
        k: v for k, v in classes.items() if rule2_class_survives(chain, v)
    }

    raw_tiles = int(prod(unconstrained_tile_count(s) for s in chain.loops.values()))
    funnel.expressions = len(exprs)
    funnel.classes_rule1 = len(classes)
    funnel.classes_rule2 = len(survivors)
    funnel.original = len(exprs) * raw_tiles
    funnel.after_rule1 = len(classes) * raw_tiles
    funnel.after_rule2 = len(survivors) * raw_tiles

    yield from survivors.values()


@dataclass(frozen=True)
class PricedGrid:
    """Every tile point of one expression, priced from its templates.

    ``tiles`` has one row per point (columns in ``chain.loop_names`` order,
    rows in ``itertools.product`` order of the options); every other array
    is aligned with its rows. Rejected points are priced too. Point ``i``
    was priced from ``templates[group[i]]``.
    """

    tiles: np.ndarray
    valid: np.ndarray
    rule2: np.ndarray
    rule4: np.ndarray
    price: PerfEstimate
    group: np.ndarray
    templates: tuple[ScheduleTemplate, ...]


def price_grid(
    chain: ComputeChain,
    gpu: GPUSpec,
    expr: TilingExpr,
    options: dict[str, list[int]],
    templates: TemplateTable,
    optimize: bool = True,
) -> PricedGrid:
    """Price the ``expr`` x ``options`` tile grid from schedule templates.

    Points are grouped by their set of extent-1 per-block loops; each group
    is evaluated from one template, built from a real schedule on first use
    and kept in ``templates``.
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

    n = len(tiles)
    valid = np.zeros(n, dtype=bool)
    rule2 = np.zeros(n, dtype=bool)
    rule4 = np.zeros(n, dtype=bool)
    t_mem, t_comp, alpha = np.zeros(n), np.zeros(n), np.zeros(n)
    used: list[ScheduleTemplate] = []
    for g, rep in enumerate(first.tolist()):
        rows = np.flatnonzero(group == g)
        key = (expr.render(), frozenset(l for l, u in zip(free, unit[rep]) if u), optimize)
        template = templates.get(key)
        if template is None:
            point = dict(zip(loops, tiles[rep].tolist()))
            template = templates[key] = ScheduleTemplate.from_schedule(
                build_schedule(chain, expr, point, optimize=optimize)
            )
        used.append(template)
        work = template.work(
            {l: tiles[rows, j] for j, l in enumerate(loops)},
            {l: extents[rows, j] for j, l in enumerate(loops)},
        )
        est = combine(work.read_bytes, work.write_bytes, work.flops, work.grid, gpu)
        valid[rows] = template.valid
        rule2[rows] = template.single_copy
        rule4[rows] = rule4_fits(work.shm_estimate, gpu)
        t_mem[rows], t_comp[rows], alpha[rows] = est.t_mem, est.t_comp, est.alpha
    return PricedGrid(
        tiles=tiles,
        valid=valid,
        rule2=rule2,
        rule4=rule4,
        price=PerfEstimate(t_mem=t_mem, t_comp=t_comp, alpha=alpha),
        group=group,
        templates=tuple(used),
    )


def price_stage(
    chain: ComputeChain,
    gpu: GPUSpec,
    exprs: Iterator[TilingExpr],
    options: dict[str, list[int]],
    funnel: PruningFunnel,
    templates: TemplateTable,
    optimize: bool = True,
) -> Iterator[tuple["Candidate", PerfEstimate, ScheduleTemplate]]:
    """Rules 3-4 over each expression's priced grid.

    Yields every surviving candidate with its estimate and the template
    that priced it (which also launches it), counting points
    that are valid and pass candidate-level Rule 2 into ``after_rule3`` and
    Rule-4 survivors into ``after_rule4``, one candidate at a time.
    """
    from repro.search.space import Candidate  # deferred: space imports us

    names = sorted(chain.loop_names)
    columns = [chain.loop_names.index(l) for l in names]
    for expr in exprs:
        grid = price_grid(chain, gpu, expr, options, templates, optimize)
        rule3 = grid.valid & grid.rule2
        fits = grid.rule4.tolist()
        rows = grid.tiles.tolist()
        t_mem = grid.price.t_mem.tolist()
        t_comp = grid.price.t_comp.tolist()
        alpha = grid.price.alpha.tolist()
        group = grid.group.tolist()
        for i in np.flatnonzero(rule3).tolist():
            funnel.after_rule3 += 1
            if not fits[i]:
                continue
            funnel.after_rule4 += 1
            row = rows[i]
            cand = Candidate(expr=expr, tiles=tuple((l, row[j]) for l, j in zip(names, columns)))
            price = PerfEstimate(t_mem=t_mem[i], t_comp=t_comp[i], alpha=alpha[i])
            yield cand, price, grid.templates[group[i]]


def candidate_pipeline(
    chain: ComputeChain,
    gpu: GPUSpec,
    funnel: PruningFunnel,
    tile_options: dict[str, list[int]],
    templates: TemplateTable,
    deep_only: bool = False,
    optimize_schedules: bool = True,
) -> Iterator[tuple["Candidate", PerfEstimate, ScheduleTemplate]]:
    """The full composed pipeline; marks ``funnel.complete`` when drained."""
    exprs = expression_stage(chain, funnel, deep_only=deep_only)
    yield from price_stage(
        chain, gpu, exprs, tile_options, funnel, templates, optimize=optimize_schedules
    )
    funnel.complete = True


def stream_space(
    chain: ComputeChain,
    gpu: GPUSpec,
    deep_only: bool = False,
    optimize_schedules: bool = True,
    max_candidates: int | None = None,
) -> "SearchSpace":
    """Build a lazy :class:`~repro.search.space.SearchSpace` over the
    streaming pipeline.

    Nothing is enumerated until the space is iterated (or an accessor that
    needs the full set — ``candidates``, ``stats``, ``len`` — forces
    materialization). The estimates priced on the way are kept in the
    space's price table; schedules are built only on request.
    """
    from repro.search.space import SearchSpace  # deferred: space imports us

    funnel = PruningFunnel()
    templates: TemplateTable = {}
    options = {loop: rule3_tile_options(size) for loop, size in chain.loops.items()}
    priced = candidate_pipeline(
        chain,
        gpu,
        funnel,
        options,
        templates,
        deep_only=deep_only,
        optimize_schedules=optimize_schedules,
    )
    return SearchSpace(
        chain=chain,
        gpu=gpu,
        source=priced,
        funnel=funnel,
        tile_options=options,
        deep_only=deep_only,
        optimized=optimize_schedules,
        max_candidates=max_candidates,
        templates=templates,
    )
