"""Expansion of a tiling expression into a scheduled tiled program (§III-B).

A :class:`Schedule` is the paper's expanded tiling expression — e.g.
``mh(n(k(LA,LB,CC),LD,CE),SE)`` — realized as a tree of loop scopes with
Load/Compute/Store statements placed at their *rightmost related loop*:

* ``Compute`` statements live at the deepest loop of their block's related
  set (spatial + reduction);
* ``Load`` statements live at the deepest tensor-indexing loop on the path
  to their consumer's compute;
* ``Store`` statements live at the deepest tensor-indexing loop that is
  *outside* the producer's unfinished reduction loops.

Loops bound to ``blockIdx`` (the grid) are modeled as a root scope; a
statement homed there runs once per thread block.

The module also derives every quantity the rest of the system needs from a
schedule: statement trip counts, DRAM traffic, FLOPs, the shared-memory
tile buffers (estimate vs measured), live-copy multiplicities (Rule 2), and
semantic validity (a consumer must never observe a partially-reduced
producer tile).

A :class:`ScheduleTemplate` captures the part of a schedule that depends
on neither tile nor loop sizes, so the search can price and prune many
tile points of one expression without building a schedule for each.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from repro.gpu.kernel import KernelLaunch
from repro.gpu.memory import TileBuffer, estimate_shared_memory, measure_shared_memory
from repro.gpu.memory import measured_bytes
from repro.gpu.specs import GPUSpec
from repro.ir.chain import ComputeBlock, ComputeChain
from repro.tiling.enumeration import bindable_spatial_loops
from repro.tiling.expr import LoopNest, TilingExpr
from repro.utils import ceil_div, prod

__all__ = [
    "Statement",
    "LoopScope",
    "Schedule",
    "build_schedule",
    "InvalidScheduleError",
    "TemplateTerm",
    "TemplateBuffer",
    "compulsory_bytes",
    "launch_arrays",
    "ScheduleWork",
    "ScheduleTemplate",
]

GRID = None  # sentinel home for statements at per-block (grid) scope


class InvalidScheduleError(ValueError):
    """The (expression, tile sizes) pair has no valid execution order."""


@dataclass(frozen=True)
class Statement:
    """One primitive statement of the expanded tiling expression.

    ``home`` is the loop whose scope the statement executes in (``None``
    for the per-block root). ``related`` are the loops indexing the
    statement's tile.
    """

    kind: str  # "load" | "compute" | "store"
    tensor: str
    block: str
    related: tuple[str, ...]
    home: str | None

    def label(self) -> str:
        prefix = {"load": "L", "compute": "C", "store": "S"}[self.kind]
        return f"{prefix}{self.tensor}"


@dataclass(frozen=True)
class LoopScope:
    """A loop in the scheduled program; ``body`` interleaves statements and
    nested scopes in execution order. ``loop is None`` only at the root."""

    loop: str | None
    extent: int
    body: tuple["LoopScope | Statement", ...] = ()

    def contains_compute(self, block: str) -> bool:
        for item in self.body:
            if isinstance(item, Statement):
                if item.kind == "compute" and item.block == block:
                    return True
            elif item.contains_compute(block):
                return True
        return False


def _homes(
    chain: ComputeChain,
    residual: TilingExpr,
    extents: dict[str, int],
) -> dict[tuple[str, str, str], str | None]:
    """Assign every statement its home loop on the residual expression."""
    homes: dict[tuple[str, str, str], str | None] = {}
    present = set(residual.loops())
    for block in chain.blocks:
        compute_home = residual.deepest(set(block.related) & present)
        homes[("compute", block.output, block.name)] = compute_home
        path: set[str] = set()
        if compute_home is not None:
            path = set(residual.ancestors(compute_home)) | {compute_home}
        for tensor in block.inputs:
            if chain.tensors[tensor].role != "input":
                continue  # intermediates stay on-chip: no Load statement
            dims = set(chain.tensors[tensor].dims)
            homes[("load", tensor, block.name)] = residual.deepest(dims & path)
        out = block.output
        if chain.tensors[out].role == "output":
            live_red = {
                r for r in block.reduction if r in present and extents.get(r, 1) > 1
            }
            eligible = set()
            for d in chain.tensors[out].dims:
                if d not in path:
                    continue
                above = set(residual.ancestors(d)) | {d}
                if not (above & live_red):
                    eligible.add(d)
            homes[("store", out, block.name)] = residual.deepest(eligible)
    return homes


def _build_tree(
    chain: ComputeChain,
    residual: TilingExpr,
    extents: dict[str, int],
    homes: dict[tuple[str, str, str], str | None],
) -> LoopScope:
    """Build the scheduled loop tree with dependency-respecting ordering.

    Each scope's body is assembled in a local list (children first, then
    its statements inserted around them) and frozen into a
    :class:`LoopScope` only when complete, so the tree is immutable from
    the moment anything outside this function can see it.
    """

    def make_scope(loop: str | None, extent: int, children: tuple[LoopNest, ...]) -> LoopScope:
        body = [make_scope(c.loop, extents[c.loop], c.body) for c in children]
        _insert_statements(loop, body)
        return LoopScope(loop=loop, extent=extent, body=tuple(body))

    def element_with_compute(body: list, block: str) -> int | None:
        for i, item in enumerate(body):
            if isinstance(item, Statement):
                if item.kind == "compute" and item.block == block:
                    return i
            elif item.contains_compute(block):
                return i
        return None

    def consumer_limit(body: list, block: str) -> int:
        """First body element containing a compute that consumes ``block``'s
        output — statements of ``block`` must be inserted before it.

        Matters when the DAG optimization collapses every loop of a
        producer to extent 1: its statements re-home to a scope whose body
        already holds the (deeper-homed) consumer, and a plain append would
        run the producer after the consumer.
        """
        out = chain.block(block).output
        limit = len(body)
        for consumer in chain.consumers_of(out):
            idx = element_with_compute(body, consumer.name)
            if idx is not None:
                limit = min(limit, idx)
        return limit

    def _insert_statements(here: str | None, body: list) -> None:
        for block in chain.blocks:
            stmts: list[Statement] = []
            for tensor in block.inputs:
                key = ("load", tensor, block.name)
                if key in homes and homes[key] == here:
                    stmts.append(
                        Statement(
                            "load", tensor, block.name,
                            chain.tensors[tensor].dims, here,
                        )
                    )
            ckey = ("compute", block.output, block.name)
            if homes[ckey] == here:
                stmts.append(
                    Statement("compute", block.output, block.name, block.related, here)
                )
            skey = ("store", block.output, block.name)
            if skey in homes and homes[skey] == here:
                stmts.append(
                    Statement(
                        "store", block.output, block.name,
                        chain.tensors[block.output].dims, here,
                    )
                )
            for stmt in stmts:
                if stmt.kind == "load":
                    anchor = element_with_compute(body, stmt.block)
                    if anchor is None:
                        body.insert(consumer_limit(body, stmt.block), stmt)
                    else:
                        body.insert(anchor, stmt)
                elif stmt.kind == "compute":
                    pos = -1
                    consumer = chain.block(stmt.block)
                    for tensor in consumer.inputs:
                        producer = chain.producer_of(tensor)
                        if producer is not None:
                            idx = element_with_compute(body, producer.name)
                            if idx is not None:
                                pos = max(pos, idx)
                    for i, item in enumerate(body):
                        if isinstance(item, Statement) and item.kind == "load" and item.block == stmt.block:
                            pos = max(pos, i)
                    body.insert(min(pos + 1, consumer_limit(body, stmt.block)), stmt)
                else:  # store: after the producing compute
                    idx = element_with_compute(body, stmt.block)
                    body.insert(len(body) if idx is None else idx + 1, stmt)

    return make_scope(GRID, 1, residual.roots)


@dataclass(frozen=True, eq=False)
class Schedule:
    """A fully placed tiled program for one (chain, expression, tiles) triple.

    Do not construct directly — use :func:`build_schedule`, which performs
    grid binding and (optionally) the DAG dead-loop optimization.

    A built schedule is immutable: its fields are frozen, ``tiles`` is a
    read-only view of a private copy, and the loop tree is made of frozen
    scopes with tuple bodies. That is what lets derived data hang off it
    as ``cached_property`` values and lets one schedule be shared by every
    report that rebuilt the same decision (see
    :mod:`repro.search.tuner`). Equality is identity.
    """

    chain: ComputeChain
    expr: TilingExpr
    tiles: Mapping[str, int]
    residual: TilingExpr
    grid_dims: tuple[tuple[str, int], ...]
    root: LoopScope
    optimized: bool

    def __post_init__(self) -> None:
        object.__setattr__(self, "tiles", MappingProxyType(dict(self.tiles)))

    # -- structure queries ---------------------------------------------------

    @cached_property
    def extents(self) -> Mapping[str, int]:
        return MappingProxyType({
            loop: ceil_div(size, self.tiles[loop]) for loop, size in self.chain.loops.items()
        })

    @cached_property
    def content_key(self) -> tuple:
        """In-process identity of this schedule's content: chain structure
        (not its name), expression (its canonical text), tiles and whether
        the DAG optimization ran. A tuple compared by equality, so two
        contents can never share a key."""
        return (
            self.chain.structure_key(),
            self.expr.render(),
            tuple(sorted(self.tiles.items())),
            self.optimized,
        )

    @property
    def grid_size(self) -> int:
        return int(prod(extent for _, extent in self.grid_dims))

    def statements(self) -> list[Statement]:
        out: list[Statement] = []

        def walk(scope: LoopScope) -> None:
            for item in scope.body:
                if isinstance(item, Statement):
                    out.append(item)
                else:
                    walk(item)

        walk(self.root)
        return out

    def trip_loops(self, stmt: Statement) -> tuple[str, ...]:
        """The per-block loops a statement repeats over: its home and the
        home's ancestors (empty for a statement at grid scope)."""
        if stmt.home is None:
            return ()
        return (*self.residual.ancestors(stmt.home), stmt.home)

    def trip_count(self, stmt: Statement) -> int:
        """Executions of one statement across the whole kernel (grid incl.)."""
        trips = self.grid_size
        for loop in self.trip_loops(stmt):
            trips *= self.extents[loop]
        return trips

    def tile_elements(self, dims: tuple[str, ...]) -> int:
        return int(prod(self.tiles[d] for d in dims))

    # -- Rule 2 analysis: live partial-tile copies ------------------------------

    def live_copies(self, tensor: str) -> int:
        """Number of simultaneously live tiles the on-chip buffer of
        ``tensor`` needs.

        A loop that indexes the tensor and sits *inside* an unfinished
        reduction loop of the tensor's producer multiplies the live tiles
        (the paper's Fig. 6(b) situation, pruned by Rule 2).
        """
        return int(prod(self.extents[d] for d in self.copy_loops(tensor)))

    def copy_loops(self, tensor: str) -> tuple[str, ...]:
        """The loops whose extents multiply ``tensor``'s live tiles: those
        indexing it inside an unfinished reduction loop of its producer
        (empty for an input)."""
        producer = self.chain.producer_of(tensor)
        if producer is None:
            return ()
        present = set(self.residual.loops())
        live_red = {
            r for r in producer.reduction if r in present and self.extents[r] > 1
        }
        return tuple(
            d for d in self.chain.tensors[tensor].dims
            if d in present and set(self.residual.ancestors(d)) & live_red
        )

    def single_live_copies(self) -> bool:
        """Candidate-level Rule 2: every on-chip tensor needs one live tile."""
        return all(
            self.live_copies(name) == 1
            for name, ref in self.chain.tensors.items()
            if ref.role != "input"
        )

    # -- semantic validity ---------------------------------------------------------

    def check_valid(self) -> None:
        """Raise InvalidScheduleError if a consumer would read partial tiles.

        A compute statement homed inside (or at) an unfinished reduction
        loop of one of its producers would observe a partially accumulated
        intermediate; no execution order of this schedule is correct.
        """
        present = set(self.residual.loops())
        for block in self.chain.blocks:
            home = None
            for stmt in self.statements():
                if stmt.kind == "compute" and stmt.block == block.name:
                    home = stmt.home
            scope_path: set[str] = set()
            if home is not None:
                scope_path = set(self.residual.ancestors(home)) | {home}
            for tensor in block.inputs:
                producer = self.chain.producer_of(tensor)
                if producer is None:
                    continue
                for r in producer.reduction:
                    if r in present and self.extents[r] > 1 and r in scope_path:
                        raise InvalidScheduleError(
                            f"{self.describe()}: compute {block.name} inside "
                            f"unfinished reduction loop {r!r} of producer {producer.name}"
                        )
        # Producer-before-consumer in program order: a compute whose
        # producer's compute appears later in the statement walk reads a
        # tile that does not exist yet (the failure mode the DAG
        # optimization can create when a producer's loops all collapse).
        compute_pos = {
            s.block: i for i, s in enumerate(self.statements()) if s.kind == "compute"
        }
        for block in self.chain.blocks:
            for tensor in block.inputs:
                producer = self.chain.producer_of(tensor)
                if producer is None:
                    continue
                if compute_pos[producer.name] > compute_pos[block.name]:
                    raise InvalidScheduleError(
                        f"{self.describe()}: compute {block.name} precedes its "
                        f"producer {producer.name} in program order"
                    )

    @property
    def is_valid(self) -> bool:
        try:
            self.check_valid()
            return True
        except InvalidScheduleError:
            return False

    # -- work accounting -------------------------------------------------------------

    def store_dims(self, stmt: Statement) -> tuple[str, ...]:
        """A store's tile loops nested strictly inside its home scope: it
        writes one tile per combination of their extents."""
        present = set(self.residual.loops())
        if stmt.home is None:
            inside = present
        else:
            inside = {
                l for l in present if stmt.home in self.residual.ancestors(l)
            }
        return tuple(d for d in stmt.related if d in inside)

    def statement_bytes(self, stmt: Statement) -> float:
        """Total DRAM bytes moved by one statement over the whole kernel."""
        if stmt.kind == "compute":
            return 0.0
        tile = self.tile_elements(stmt.related) * self.chain.dtype_bytes
        total = tile * self.trip_count(stmt)
        if stmt.kind == "store":
            total *= int(prod(self.extents[d] for d in self.store_dims(stmt)))
        return float(total)

    def statement_flops(self, stmt: Statement) -> float:
        """Total FLOPs of one compute statement over the whole kernel."""
        if stmt.kind != "compute":
            return 0.0
        block = self.chain.block(stmt.block)
        per_exec = 2.0 * self.tile_elements(block.related)
        if block.softmax_over is not None:
            first = self.chain.tensors[block.inputs[0]]
            per_exec += 7.0 * self.tile_elements(first.dims)
        return per_exec * self.trip_count(stmt)

    @staticmethod
    def _in_order(terms) -> float:
        # Plain left-to-right addition in statement order, which the
        # pipeline's array pricer reproduces; sum() compensates float
        # rounding on Python >= 3.12.
        total = 0
        for term in terms:
            total = total + term
        return total

    def dram_read_bytes(self) -> float:
        return self._in_order(
            self.statement_bytes(s) for s in self.statements() if s.kind == "load"
        )

    def dram_write_bytes(self) -> float:
        return self._in_order(
            self.statement_bytes(s) for s in self.statements() if s.kind == "store"
        )

    def total_flops(self) -> float:
        return self._in_order(
            self.statement_flops(s) for s in self.statements() if s.kind == "compute"
        )

    # -- shared memory --------------------------------------------------------------------

    def _buffer_shape(self, dims: tuple[str, ...]) -> tuple[int, int]:
        if not dims:
            return (1, 1)
        cols = self.tiles[dims[-1]]
        rows = int(prod(self.tiles[d] for d in dims[:-1])) if len(dims) > 1 else 1
        return (rows, cols)

    def tile_buffers(self) -> list[TileBuffer]:
        """On-chip buffers of this schedule, for the shared-memory backend."""
        buffers: dict[str, TileBuffer] = {}
        dtype_bytes = self.chain.dtype_bytes
        for stmt in self.statements():
            if stmt.kind != "load":
                continue
            consumer = self.chain.block(stmt.block)
            rows, cols = self._buffer_shape(stmt.related)
            path: set[str] = set()
            if stmt.home is not None:
                path = set(self.residual.ancestors(stmt.home)) | {stmt.home}
            double = any(
                r in path and self.extents[r] > 1 for r in consumer.reduction
            )
            buf = TileBuffer(
                tensor=stmt.tensor,
                rows=rows,
                cols=cols,
                dtype_bytes=dtype_bytes,
                role="operand",
                double_buffered=double,
            )
            prev = buffers.get(stmt.tensor)
            if prev is None or buf.elements * (2 if double else 1) > prev.elements:
                buffers[stmt.tensor] = buf
        for name, ref in self.chain.tensors.items():
            if ref.role == "input":
                continue
            rows, cols = self._buffer_shape(ref.dims)
            role = "accumulator" if ref.role == "output" else "stage"
            buffers[name] = TileBuffer(
                tensor=name,
                rows=rows,
                cols=cols,
                dtype_bytes=dtype_bytes,
                role=role,
                copies=self.live_copies(name),
            )
        return [buffers[k] for k in sorted(buffers)]

    def shm_estimate(self) -> int:
        """The paper's eq. (1): naive sum of single-tile footprints."""
        return estimate_shared_memory(self.tile_buffers())

    def shm_measured(self, gpu: GPUSpec) -> int:
        """What the simulated backend actually allocates (Fig. 10's y-axis)."""
        return measure_shared_memory(self.tile_buffers(), gpu).total_bytes

    # -- lowering to a kernel launch ------------------------------------------------------

    def representative_tiles(self) -> tuple[int, int, int]:
        """Flops-weighted dominant MMA tile shape (for the simulator)."""
        return tuple(self.tiles[loop] for loop in _mma_loops(self.chain))

    def contig_loops(self) -> tuple[str, ...]:
        """The innermost loop of every loaded, then every stored, tile."""
        stmts = self.statements()
        return tuple(
            s.related[-1] for kind in ("load", "store") for s in stmts if s.kind == kind
        )

    def inner_contig_bytes(self) -> int:
        """Worst-case contiguous run among loaded tiles (coalescing input)."""
        widths = [self.tiles[loop] * self.chain.dtype_bytes for loop in self.contig_loops()]
        return min(widths) if widths else 128

    def kernel_launch(self, gpu: GPUSpec, codegen: str = "triton") -> KernelLaunch:
        """Summarize this schedule as a simulator kernel launch.

        The reference for :func:`launch_arrays` and the space's launch
        signatures, which the search measures candidates from instead.
        """
        tm, tn, tk = self.representative_tiles()
        compulsory = compulsory_bytes(self.chain)
        return KernelLaunch(
            name=f"{self.chain.name}:{self.describe()}",
            grid=self.grid_size,
            flops=self.total_flops(),
            dram_read_bytes=self.dram_read_bytes(),
            dram_write_bytes=self.dram_write_bytes(),
            dram_compulsory_read_bytes=float(compulsory),
            shared_mem_bytes=self.shm_measured(gpu),
            tile_m=tm,
            tile_n=tn,
            tile_k=tk,
            inner_contig_bytes=self.inner_contig_bytes(),
            codegen=codegen,
            extra={"schedule": self.describe()},
        )

    # -- reporting ------------------------------------------------------------------------

    def describe(self) -> str:
        tiles = ",".join(f"T{l}={self.tiles[l]}" for l in self.chain.loop_names)
        return f"{self.expr.render()}[{tiles}]"

    def pretty(self) -> str:
        """Fig. 4-style pseudo-code rendering of the scheduled program."""
        lines: list[str] = []
        grid = ", ".join(f"{l}:{e}" for l, e in self.grid_dims)
        lines.append(f"for {grid or 'block'} in grid():")

        def walk(scope: LoopScope, depth: int) -> None:
            pad = "    " * depth
            for item in scope.body:
                if isinstance(item, Statement):
                    verb = {"load": "Load", "compute": "Compute", "store": "Store"}[item.kind]
                    lines.append(f"{pad}{verb}(tile {item.tensor})")
                else:
                    lines.append(f"{pad}for {item.loop} in range({item.extent}):")
                    walk(item, depth + 1)

        walk(self.root, 1)
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Schedule({self.chain.name}, {self.describe()}, grid={self.grid_size})"


def _mma_loops(chain: ComputeChain) -> tuple[str, str, str]:
    """The (m, n, k) loops of the flops-dominant block's MMA. The loop
    sizes pick that block, so this is not size-free."""
    best = None
    best_flops = -1.0
    for block in chain.blocks:
        flops = chain.block_flops(block)
        if flops > best_flops:
            best_flops = flops
            best = (block.spatial[0], block.spatial[-1], block.reduction[0])
    assert best is not None
    return best


def compulsory_bytes(chain: ComputeChain) -> int:
    """Every input byte read once (a launch's ``dram_compulsory_read_bytes``)."""
    return sum(
        chain.batch * prod(chain.loops[d] for d in ref.dims) * chain.dtype_bytes
        for ref in chain.tensors.values()
        if ref.role == "input"
    )


def build_schedule(
    chain: ComputeChain,
    expr: TilingExpr,
    tiles: dict[str, int],
    optimize: bool = True,
) -> Schedule:
    """Expand ``expr`` with ``tiles`` into a :class:`Schedule`.

    ``optimize=True`` additionally runs the DAG dead-loop elimination
    (extent-1 loops are removed and memory statements re-homed upward —
    the paper's §III-B optimization that Chimera and Ansor miss). Pass
    ``False`` to get the baseline placement (rightmost related loop only).
    """
    missing = set(chain.loop_names) - set(tiles)
    if missing:
        raise ValueError(f"missing tile sizes for loops {sorted(missing)}")
    for loop, t in tiles.items():
        if t < 1:
            raise ValueError(f"tile for loop {loop!r} must be >= 1, got {t}")
    bound = bindable_spatial_loops(chain, expr)
    residual = expr.without(set(bound))
    extents = {loop: ceil_div(size, tiles[loop]) for loop, size in chain.loops.items()}
    if optimize:
        dead = {l for l in residual.loops() if extents[l] == 1}
        residual = residual.without(dead)
    homes = _homes(chain, residual, extents)
    root = _build_tree(chain, residual, extents, homes)
    grid_dims = (("b", chain.batch), *[(l, extents[l]) for l in bound])
    return Schedule(
        chain=chain,
        expr=expr,
        tiles=tiles,
        residual=residual,
        grid_dims=grid_dims,
        root=root,
        optimized=optimize,
    )


# -- schedule templates ------------------------------------------------------------


@dataclass(frozen=True)
class TemplateTerm:
    """One statement's share of a schedule's work, in loop names.

    ``tile_dims`` size one tile (a compute's are its block's related
    loops). ``trip_loops`` are the home and its ancestors: their extents,
    times the grid, count executions. A store writes one tile per
    combination of ``store_dims``. ``softmax_dims`` marks a compute with a
    softmax pass over its first input's tile.
    """

    kind: str
    tile_dims: tuple[str, ...]
    trip_loops: tuple[str, ...]
    store_dims: tuple[str, ...] = ()
    softmax_dims: tuple[str, ...] | None = None


@dataclass(frozen=True)
class TemplateBuffer:
    """One on-chip tile buffer, in loop names: its tile spans ``dims``,
    and the extents of ``copy_loops`` multiply its live copies (Rule 2)."""

    tensor: str
    dims: tuple[str, ...]
    role: str
    double_buffered: bool
    copy_loops: tuple[str, ...]


@dataclass(frozen=True)
class ScheduleWork:
    """Work totals of a set of tile points (arrays aligned with the points):
    float64 bytes and FLOPs, int64 grid sizes and eq. (1) estimates."""

    read_bytes: np.ndarray
    write_bytes: np.ndarray
    flops: np.ndarray
    grid: np.ndarray
    shm_estimate: np.ndarray


@dataclass(frozen=True)
class ScheduleTemplate:
    """Everything a :class:`Schedule` needs to be priced and measured,
    minus tile sizes and the chain's sizes.

    All schedules of one expression whose per-block loops (those of its
    sub-tiling expression, left once the grid is bound) have the same
    extent-1 set share one structure: dead-loop elimination, statement
    homes and unfinished reductions depend on nothing else. They have the
    same validity and Rule-2 outcome, the same on-chip buffers with the same
    double-buffer flags, and work totals that are products of tile sizes and
    extents along the same statement list.
    A template records that structure from one real schedule
    (:meth:`from_schedule`), so :func:`build_schedule` stays its only
    source. It holds no loop size, batch or dtype: the template built at
    one shape is the one of every chain with the same loop names, dtype,
    blocks and tensors, and whoever evaluates it reads those from the chain.
    The pricer (:func:`repro.search.engine.pipeline.price_grid`) totals a
    chain's whole grid from the ``work_masks`` of its templates in one
    array pass, and :func:`launch_arrays` the rest of their kernel
    launches from their ``tables``.
    """

    grid_loops: tuple[str, ...]
    terms: tuple[TemplateTerm, ...]
    #: The on-chip tile buffers, by tensor name (eq. (1) sums their tiles).
    buffers: tuple[TemplateBuffer, ...]
    valid: bool
    single_copy: bool
    #: ``terms`` and ``buffers`` as loop bitmasks (bit ``j`` is
    #: ``loop_names[j]``): ``work_masks[c, t, k]`` is column ``c`` (tile dims
    #: | extent loops, grid, trips and store dims | softmax dims) of the
    #: ``k``-th term, in statement order, of total ``t`` (DRAM reads: loads
    #: | DRAM writes: stores | FLOPs: computes | eq. (1): buffers).
    #: The extent loops of a term are disjoint sets, so their union
    #: multiplies each extent once. ``1 << len(loop_names)`` stands for a
    #: product of 0: it pads the shorter totals and marks a compute with no
    #: softmax. ``grid_mask`` is the grid loops'. Part of the core, like
    #: ``tables``.
    work_masks: np.ndarray = field(compare=False, repr=False)
    grid_mask: int = field(compare=False, repr=False)
    #: ``buffers`` for :func:`launch_arrays`: masks ``(rows | cols |
    #: copies, loop, buffer)`` of the loops whose tiles make a buffer's rows
    #: and columns and whose extents count its copies, flags ``(accumulator
    #: | double-buffered operand, buffer)``, and the schedule's
    #: ``contig_loops()``. Part of the core: every chain of its structure
    #: shares them.
    tables: tuple[np.ndarray, ...] = field(compare=False, repr=False)

    @classmethod
    def from_schedule(cls, schedule: Schedule) -> "ScheduleTemplate":
        chain = schedule.chain
        terms: list[TemplateTerm] = []
        for stmt in schedule.statements():
            trips = schedule.trip_loops(stmt)
            if stmt.kind == "compute":
                block = chain.block(stmt.block)
                softmax = None
                if block.softmax_over is not None:
                    softmax = chain.tensors[block.inputs[0]].dims
                terms.append(TemplateTerm("compute", block.related, trips, softmax_dims=softmax))
            elif stmt.kind == "load":
                terms.append(TemplateTerm("load", stmt.related, trips))
            else:
                terms.append(
                    TemplateTerm("store", stmt.related, trips, store_dims=schedule.store_dims(stmt))
                )
        buffers = tuple(
            TemplateBuffer(
                tensor=buf.tensor,
                dims=chain.tensors[buf.tensor].dims,
                role=buf.role,
                double_buffered=buf.double_buffered,
                copy_loops=schedule.copy_loops(buf.tensor),
            )
            for buf in schedule.tile_buffers()
        )
        parts = zip(*((b.dims[:-1], b.dims[-1:], b.copy_loops) for b in buffers))
        contig = schedule.contig_loops()
        tables = (
            np.array([[[loop in s for s in part] for loop in chain.loop_names] for part in parts]),
            np.array([[b.role == "accumulator" for b in buffers],
                      [b.double_buffered and b.role == "operand" for b in buffers]]),
            np.array([loop in contig for loop in chain.loop_names]),
        )

        bits = {loop: 1 << j for j, loop in enumerate(chain.loop_names)}
        zero = 1 << len(bits)

        def mask(loops) -> int:
            return sum(bits[loop] for loop in loops)

        grid_loops = tuple(loop for loop, _ in schedule.grid_dims[1:])
        grid = mask(grid_loops)
        rows = [
            [
                (mask(t.tile_dims), grid | mask(t.trip_loops) | mask(t.store_dims),
                 zero if t.softmax_dims is None else mask(t.softmax_dims))
                for t in terms if t.kind == kind
            ]
            for kind in ("load", "store", "compute")
        ]
        rows.append([(mask(b.dims), zero, zero) for b in buffers])
        work_masks = np.full((3, len(rows), max(map(len, rows))), zero, dtype=np.int64)
        for t, total in enumerate(rows):
            for k, columns in enumerate(total):
                work_masks[:, t, k] = columns
        return cls(
            grid_loops=grid_loops,
            terms=tuple(terms),
            buffers=buffers,
            valid=schedule.is_valid,
            single_copy=schedule.single_live_copies(),
            work_masks=work_masks,
            grid_mask=grid,
            tables=tables,
        )


def launch_arrays(
    chain: ComputeChain,
    templates: Sequence[ScheduleTemplate],
    template: np.ndarray,
    tiles: np.ndarray,
    gpu: GPUSpec,
) -> tuple[np.ndarray, ...]:
    """``shared_mem_bytes``, ``tile_m``, ``tile_n``, ``tile_k`` and
    ``inner_contig_bytes`` of ``build_schedule(...).kernel_launch(gpu)`` at
    every row of ``tiles`` (columns in ``chain.loop_names`` order), where
    row ``p`` was priced by ``templates[template[p]]``, all of ``chain``.

    A fixed number of array operations for any number of templates: their
    ``tables`` stack (a chain's templates have one buffer per tensor) and
    are gathered per point, with the points on the last, contiguous axis.
    """
    tiles_t = tiles.T
    extents = -(-np.array([chain.loops[loop] for loop in chain.loop_names])[:, None] // tiles_t)
    stacked = zip(*(t.tables for t in templates))
    masks, flags, contig = (np.stack(t, axis=-1).take(template, axis=-1) for t in stacked)
    factors = np.stack([tiles_t, tiles_t, extents])[:, :, None]
    rows, cols, copies = np.where(masks, factors, 1).prod(axis=1)
    shm = measured_bytes(rows, cols, copies, flags[0], flags[1], chain.dtype_bytes, gpu)
    widths = np.where(contig, tiles_t * chain.dtype_bytes, np.iinfo(np.int64).max).min(axis=0)
    mma = (tiles[:, chain.loop_names.index(loop)] for loop in _mma_loops(chain))
    return shm, *mma, np.where(contig.any(axis=0), widths, 128)
