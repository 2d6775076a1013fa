"""Lowering a :class:`Schedule` into a flat batched tile program.

The scalar interpreter re-walks the schedule's loop tree once per grid
cell per batch element — ``grid_size x batch`` Python recursions. But the
residual (within-block) loop structure is *identical across cells*: only
the grid-bound tile indices differ. ``lower_schedule`` therefore unrolls
the residual loop tree **once** into a flat sequence of :class:`TileOp`
records, each carrying the concrete residual loop indices it executes
under. The vectorized executor (:mod:`repro.codegen.vectorized`) then runs
every op exactly once, batched over the grid with broadcastable leading
axes (one per grid loop, extent-1 where a tensor is not indexed by it):

* ``load``    — a zero-copy view of every cell's tile in a padded, tiled
  layout;
* ``compute`` — one batched ``np.matmul``/``np.einsum`` (including the
  batched online-softmax update);
* ``store``   — one sliced scatter into a padded, tiled output buffer.

Programs the flat form cannot express raise :class:`LoweringError` (a
subclass of :class:`~repro.codegen.interpreter.InterpreterError`), which
the ``auto`` backend treats as "fall back to the scalar interpreter":

* multi-copy on-chip buffers (the interpreter models single-copy tiles);
* an output tensor not indexed by every non-batch grid loop (distinct
  cells would scatter into the same tile with no deterministic
  last-writer);
* a softmax axis or a reduction loop bound to the grid (the padding mask
  / partial sums would vary per cell mid-update);
* unrolled programs or batched working sets past a safety cap.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.codegen.interpreter import InterpreterError
from repro.tiling.schedule import LoopScope, Schedule, Statement
from repro.utils import LRUCache, process_memo, prod

__all__ = ["TileOp", "TileProgram", "LoweringError", "lower_schedule",
           "schedule_facts", "ScheduleFacts",
           "MAX_PROGRAM_OPS", "MAX_GATHER_BYTES"]

#: Unrolled-program size cap. The flat program has one op per residual
#: statement execution; anything near this cap would be glacial to
#: interpret per-cell too, but the lowering must not eat unbounded memory.
MAX_PROGRAM_OPS = 65536

#: Cap on a single batched gather/accumulator (bytes). Past this the
#: "materialize every cell's tile at once" strategy stops being a win.
MAX_GATHER_BYTES = 1 << 30


class LoweringError(InterpreterError):
    """The schedule has no faithful flat batched form (use the scalar path)."""


@dataclass(frozen=True)
class TileOp:
    """One batched primitive of the flat program.

    ``idx`` holds the concrete residual-loop indices in scope when the op
    executes — the unrolled counterpart of the interpreter's loop-state
    dict. Grid-bound loops never appear here; they become the leading cell
    axis of every array the executor touches.
    """

    kind: str  # "load" | "compute" | "store"
    tensor: str
    block: str
    idx: tuple[tuple[str, int], ...]

    def label(self) -> str:
        prefix = {"load": "L", "compute": "C", "store": "S"}[self.kind]
        where = ",".join(f"{l}={i}" for l, i in self.idx)
        return f"{prefix}{self.tensor}[{where}]"


@dataclass(frozen=True)
class TileProgram:
    """A fully unrolled batched tile program for one schedule.

    ``grid_loops`` lists the cell axes in iteration order — the implicit
    batch loop first, then every grid-bound spatial loop — so
    ``n_cells == prod(extent)`` and cell ``i`` unravels to one index per
    grid loop, exactly matching the scalar interpreter's nesting order.
    """

    schedule: Schedule
    ops: tuple[TileOp, ...]
    grid_loops: tuple[tuple[str, int], ...]

    @property
    def n_cells(self) -> int:
        return int(prod(extent for _, extent in self.grid_loops))

    def describe(self) -> str:
        grid = "x".join(f"{l}:{e}" for l, e in self.grid_loops)
        return f"TileProgram({self.schedule.chain.name}, cells={grid}, ops={len(self.ops)})"


def _check_expressible(schedule: Schedule) -> None:
    """Raise LoweringError for schedules the batched form cannot run."""
    chain = schedule.chain
    for name, ref in chain.tensors.items():
        if ref.role != "input" and schedule.live_copies(name) > 1:
            raise LoweringError(
                f"schedule {schedule.describe()} needs {schedule.live_copies(name)} "
                f"live tiles of {name!r}; the vectorizer models single-copy buffers"
            )
    grid = [loop for loop, _ in schedule.grid_dims if loop != "b"]
    for name, ref in chain.tensors.items():
        if ref.role != "output":
            continue
        missing = sorted(set(grid) - set(ref.dims))
        if missing:
            raise LoweringError(
                f"output {name!r} is not indexed by grid loop(s) {missing}; "
                "distinct cells would scatter into the same tile"
            )
    for block in chain.blocks:
        if block.softmax_over is not None and block.softmax_over in grid:
            raise LoweringError(
                f"block {block.name!r}: softmax axis {block.softmax_over!r} is "
                "grid-bound; the batched online-softmax mask must be uniform "
                "across cells"
            )
        bound_red = sorted(set(block.reduction) & set(grid))
        if bound_red:
            raise LoweringError(
                f"block {block.name!r}: reduction loop(s) {bound_red} are "
                "grid-bound; per-cell partial reductions have no batched form"
            )


def lower_schedule(schedule: Schedule) -> TileProgram:
    """Unroll ``schedule``'s residual loop tree into a :class:`TileProgram`.

    Raises :class:`LoweringError` when the flat batched form cannot
    faithfully reproduce the scalar interpreter (see module docstring) and
    :class:`~repro.tiling.schedule.InvalidScheduleError` for schedules no
    backend may run.
    """
    memo_key = schedule.content_key
    hit = _LOWER_MEMO.get(memo_key)
    if hit is not None:
        # The unrolled ops depend only on schedule content; hand back
        # the caller's own schedule object so downstream identity
        # checks and tile lookups see exactly what was passed in.
        if hit.schedule is schedule:
            return hit
        return replace(hit, schedule=schedule)
    from repro.obs import get_tracer

    tracer = get_tracer()
    attrs = (
        {"chain": schedule.chain.name, "expr": schedule.expr.render()}
        if tracer.enabled
        else {}
    )
    with tracer.span("lower", **attrs) as span:
        program = _lower_uncached(schedule)
        span.set(ops=len(program.ops), cells=program.n_cells)
    return _LOWER_MEMO.put(memo_key, program)


def _lower_uncached(schedule: Schedule) -> TileProgram:
    schedule.check_valid()
    _check_expressible(schedule)
    grid_loops = tuple(schedule.grid_dims)
    n_cells = int(prod(extent for _, extent in grid_loops))

    widest = max(
        (schedule.tile_elements(stmt.related) for stmt in schedule.statements()),
        default=1,
    )
    if n_cells * widest * 4 > MAX_GATHER_BYTES:
        raise LoweringError(
            f"batched working set ~{n_cells * widest * 4} bytes exceeds the "
            f"{MAX_GATHER_BYTES}-byte gather cap for {schedule.describe()}"
        )

    ops: list[TileOp] = []

    def walk(scope: LoopScope, idx: dict[str, int]) -> None:
        for item in scope.body:
            if isinstance(item, Statement):
                if len(ops) >= MAX_PROGRAM_OPS:
                    raise LoweringError(
                        f"unrolled program of {schedule.describe()} exceeds "
                        f"{MAX_PROGRAM_OPS} ops"
                    )
                ops.append(
                    TileOp(item.kind, item.tensor, item.block, tuple(idx.items()))
                )
            else:
                assert item.loop is not None
                for i in range(item.extent):
                    idx[item.loop] = i
                    walk(item, idx)
                del idx[item.loop]

    walk(schedule.root, {})
    return TileProgram(schedule=schedule, ops=tuple(ops), grid_loops=grid_loops)


@dataclass
class ScheduleFacts:
    """What the exec-backend decision knows about one schedule content.

    ``renderable`` stays ``None`` until something asks (see
    :func:`repro.codegen.render_c.schedule_renderable`).
    """

    lowerable: bool
    flops: float
    renderable: bool | None = None


#: schedule content key -> :class:`ScheduleFacts`. Warm cache hits rebuild
#: the same schedules over and over (one per served signature); memoizing
#: the facts keeps `resolve_exec_backend` off the unroll, render and FLOPs
#: walks there.
_FACTS_MEMO = process_memo(LRUCache(capacity=4096))

#: schedule content key -> unrolled program. The op list is pure in
#: schedule content, so repeat executions of one schedule skip the
#: residual-loop walk; hits re-bind the caller's schedule object.
_LOWER_MEMO = process_memo(LRUCache(capacity=256))


def schedule_facts(schedule: Schedule) -> ScheduleFacts:
    """The memoized :class:`ScheduleFacts` of ``schedule``'s content, so
    repeated queries for rebuilt-but-identical schedules cost a key build
    and a dict lookup instead of an unroll and a FLOPs walk."""
    key = schedule.content_key
    facts = _FACTS_MEMO.get(key)
    if facts is None:
        try:
            lower_schedule(schedule)
            lowerable = True
        except LoweringError:
            lowerable = False
        facts = _FACTS_MEMO.put(key, ScheduleFacts(lowerable, schedule.total_flops()))
    return facts
