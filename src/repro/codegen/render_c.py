"""Render a lowered :class:`TileProgram` to a self-contained C kernel.

The compiled backend is the reproduction's answer to "emit a real fused
kernel and run it": the same flat program the vectorized executor batches
over grid cells is rendered, cell-structure intact, as plain C — grid
loops outermost (OpenMP-parallel when the compiler supports it), the
residual loop tree inside, per-cell shared-memory tiles and accumulators
in a malloc'd arena. The emission replicates the scalar interpreter's
semantics statement for statement:

* ``load``    — copy the valid (clamped) region of the global tensor row
  by row; only a partial tile (some valid extent short of the tile) is
  zeroed first, since the copy overwrites every element of a full one;
* ``compute`` — accumulator init-on-first-reduction-iteration (the
  ``fresh_sweep``/spatial-key logic of ``_ensure_acc``), producer
  epilogues applied at consumption, and the online-softmax recurrence
  (running row max / denominator / rescaled accumulator, padded columns
  masked, ``exp(-inf - -inf)`` corrections clamped to zero);
* ``store``   — divide by the softmax denominator where present, apply
  the block epilogue, write the valid region only.

Contractions whose output's last dim reads unit-stride run as a
register-resident microkernel: blocks of up to 4 output rows x 64
columns keep their accumulators in ``mcf_v`` vectors (a GCC/Clang vector
extension type of 16 floats) through the whole contracted loop nest, and
the ``inner % 16`` column tail runs the same nest on ``float``
accumulators. An operand that strides the inner dim is first copied
transposed, in 16x16 blocks when its tile allows. The block shapes depend
on tile sizes only, so the rendered source, and its hash, are the same on
every host.

Rendering is *total* over verified programs: :func:`render_program` first
re-runs the interpreter's state-machine checks statically over the flat
ops (every residual index is a compile-time constant, so "consumed before
Load" and "consumed before produced" are decidable at render time) and
raises :class:`RenderError` — a subclass of :class:`InterpreterError`, so
error parity with the scalar backend holds — instead of ever emitting
code with different semantics.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.codegen.interpreter import InterpreterError, softmax_row_dims
from repro.codegen.program import TileProgram
from repro.tiling.schedule import LoopScope, Statement
from repro.utils import LRUCache, process_memo, prod, stable_hash

__all__ = [
    "RenderError",
    "RenderedKernel",
    "render_program",
    "schedule_renderable",
    "MAX_ARENA_BYTES",
]

#: Per-cell working-set cap (bytes). The arena holds every tile buffer of
#: one grid cell; schedules past this would thrash any real shared memory
#: by orders of magnitude anyway, and the cap keeps a pathological tiling
#: from turning into a multi-GiB malloc per OpenMP thread.
MAX_ARENA_BYTES = 1 << 28


class RenderError(InterpreterError):
    """The program cannot be rendered to C with faithful semantics."""


@dataclass(frozen=True)
class RenderedKernel:
    """A rendered C kernel plus the call-signature metadata.

    ``arg_names`` lists the pointer parameters in order: every chain input
    (in :meth:`ComputeChain.input_names` order) followed by every output
    tensor (in chain tensor-dict order). ``source_hash`` is the content
    address the kernel cache keys on.
    """

    source: str
    entry: str
    input_names: tuple[str, ...]
    output_names: tuple[str, ...]
    source_hash: str

    @property
    def arg_names(self) -> tuple[str, ...]:
        return self.input_names + self.output_names


# -- static verification -------------------------------------------------------


def _verify_program(program: TileProgram) -> None:
    """Re-run the scalar interpreter's per-cell state checks over the flat
    ops. Residual indices are static in the flat form, so every dynamic
    ``InterpreterError`` the scalar walker could raise mid-execution is
    decidable here; emitting C only for verified programs means the
    compiled kernel never needs runtime state checks."""
    chain = program.schedule.chain
    smem: set[str] = set()
    acc: dict[str, tuple] = {}  # block name -> spatial key

    def spatial_key(block, idx: dict[str, int]) -> tuple:
        # Grid-bound dims are absent from the flat idx and constant within
        # a cell; `idx.get(d, 0)` matches the scalar interpreter for every
        # residual dim and is harmlessly 0 for grid-bound ones.
        return tuple(idx.get(d, 0) for d in block.spatial)

    for op in program.ops:
        idx = dict(op.idx)
        if op.kind == "load":
            smem.add(op.tensor)
            continue
        block = chain.block(op.block)
        if op.kind == "compute":
            for tensor in block.inputs:
                ref = chain.tensors[tensor]
                if ref.role == "input":
                    if tensor not in smem:
                        raise RenderError(
                            f"tensor {tensor!r} consumed before Load "
                            f"(schedule {program.schedule.describe()})"
                        )
                    continue
                producer = chain.producer_of(tensor)
                assert producer is not None
                key = acc.get(producer.name)
                if key is None or key != spatial_key(producer, idx):
                    raise RenderError(
                        f"intermediate {tensor!r} consumed before it was produced "
                        f"(schedule {program.schedule.describe()})"
                    )
            if block.softmax_over is not None:
                softmax_row_dims(chain, block)  # raises for inexpressible rows
            acc[block.name] = spatial_key(block, idx)
        else:  # store
            if block.name not in acc:
                raise RenderError(
                    f"Store of {op.tensor!r} before any Compute "
                    f"(schedule {program.schedule.describe()})"
                )


# -- emission ------------------------------------------------------------------


#: Floats per ``mcf_v`` microkernel vector (``vector_size(64)``). Fixed,
#: not probed from the host, so rendered source is host-independent.
_LANES = 16

#: Edge of the square blocks a transposed operand copy is done in.
_TR_BLOCK = 16


def _block_factor(extent: int) -> int:
    """The register-block height for a loop: 4, else 2, else 1 — the
    widest that divides ``extent``, so no remainder loop is needed."""
    return next((f for f in (4, 2) if extent % f == 0), 1)


class _Emitter:
    """Walks the schedule's residual loop tree and emits the kernel body.

    All naming is index-based (``sm0``, ``acc1``...) so arbitrary tensor
    and block names from the partitioner (dots, unicode) never reach the C
    identifier space.
    """

    def __init__(self, program: TileProgram) -> None:
        self.program = program
        self.schedule = program.schedule
        self.chain = program.schedule.chain
        self.tiles = program.schedule.tiles
        self.lines: list[str] = []
        self.depth = 0
        # Stable integer ids for tensors and blocks.
        self.tensor_id = {name: i for i, name in enumerate(self.chain.tensors)}
        self.block_id = {b.name: i for i, b in enumerate(self.chain.blocks)}
        # Loop variables: grid loops first, then residual loops get vars as
        # the tree walk encounters them. Values: C variable name or None
        # (meaning a constant 0 in index expressions).
        self.grid_vars: dict[str, str] = {}
        self.loop_vars: dict[str, str] = {}
        self.in_scope: list[str] = []
        self.arena: list[tuple[str, int]] = []  # (buffer c-name, elements)
        self.arena_off: dict[str, int] = {}
        self._next_off = 0

    # -- small helpers ---------------------------------------------------------

    def emit(self, line: str = "") -> None:
        self.lines.append(("    " * self.depth + line) if line else "")

    def tile_shape(self, dims: tuple[str, ...]) -> tuple[int, ...]:
        return tuple(self.tiles[d] for d in dims)

    def alloc(self, name: str, elements: int) -> None:
        self.arena_off[name] = self._next_off
        self.arena.append((name, elements))
        self._next_off += elements

    def idx_val(self, dim: str) -> str:
        """C expression for the scalar interpreter's ``idx.get(dim, 0)`` at
        the current program point."""
        if dim in self.grid_vars:
            return self.grid_vars[dim]
        if dim in self.in_scope:
            return self.loop_vars[dim]
        return "0"

    def tile_index(self, dims: tuple[str, ...], ivars: dict[str, str]) -> str:
        """Row-major flat index into a tile buffer shaped by ``dims``."""
        if not dims:
            return "0"
        terms = []
        stride = 1
        for d in reversed(dims):
            v = ivars[d]
            terms.append(v if stride == 1 else f"{v} * {stride}")
            stride *= self.tiles[d]
        return " + ".join(reversed(terms))

    def global_index(self, tensor: str, offsets: dict[str, str], ivars: dict[str, str]) -> str:
        """Row-major flat index into a global tensor (batch axis included)."""
        dims = self.chain.tensors[tensor].dims
        sizes = [self.chain.loops[d] for d in dims]
        terms = []
        stride = 1
        for d, size in zip(reversed(dims), reversed(sizes)):
            expr = f"({offsets[d]} + {ivars[d]})" if d in ivars else offsets[d]
            terms.append(expr if stride == 1 else f"{expr} * {stride}")
            stride *= size
        terms.append(f"b * {stride}")
        return " + ".join(reversed(terms))

    def epilogue_expr(self, expr: str, epilogue: str | None) -> str:
        if epilogue is None:
            return expr
        if epilogue == "relu":
            return f"mcf_relu({expr})"
        if epilogue == "gelu":
            return f"mcf_gelu({expr})"
        raise RenderError(f"unknown epilogue {epilogue!r}")

    # -- buffer planning -------------------------------------------------------

    def plan_arena(self) -> None:
        loaded = {s.tensor for s in self.schedule.statements() if s.kind == "load"}
        for name in self.chain.tensors:
            if name in loaded:
                self.alloc(
                    f"sm{self.tensor_id[name]}",
                    int(prod(self.tile_shape(self.chain.tensors[name].dims))),
                )
        for block in self.chain.blocks:
            bid = self.block_id[block.name]
            out_elems = int(prod(self.tile_shape(self.chain.tensors[block.output].dims)))
            self.alloc(f"acc{bid}", out_elems)
            consumed_with_epilogue = block.epilogue is not None and any(
                block.output in b.inputs for b in self.chain.blocks
            )
            if consumed_with_epilogue:
                self.alloc(f"epi{bid}", out_elems)
            if block.softmax_over is not None:
                rows = int(prod(self.tile_shape(softmax_row_dims(self.chain, block))))
                first = int(prod(self.tile_shape(self.chain.tensors[block.inputs[0]].dims)))
                self.alloc(f"rmax{bid}", rows)
                self.alloc(f"rden{bid}", rows)
                self.alloc(f"rcor{bid}", rows)
                self.alloc(f"prob{bid}", first)
            _, _, transposed = self.contraction_form(block)
            planned: set[str] = set()
            for base, dims in self.contraction_reads(block):
                if base in transposed and base not in planned:
                    planned.add(base)
                    self.alloc(f"tr{bid}_{base}", int(prod(self.tile_shape(dims))))
        if self._next_off * 4 > MAX_ARENA_BYTES:
            raise RenderError(
                f"per-cell working set of {self._next_off * 4} bytes exceeds the "
                f"{MAX_ARENA_BYTES}-byte arena cap for {self.schedule.describe()}"
            )

    # -- statement emission ----------------------------------------------------

    def emit_load(self, stmt: Statement) -> None:
        tensor = stmt.tensor
        dims = self.chain.tensors[tensor].dims
        buf = f"sm{self.tensor_id[tensor]}"
        elems = int(prod(self.tile_shape(dims)))
        self.emit(f"{{ /* Load tile {tensor} */")
        self.depth += 1
        for j, d in enumerate(dims):
            size = self.chain.loops[d]
            tile = self.tiles[d]
            self.emit(f"long s{j} = (long)({self.idx_val(d)}) * {tile};")
            self.emit(f"long v{j} = {size} - s{j} < {tile} ? {size} - s{j} : {tile};")
        # Only a partial tile needs its zero padding: the copy below
        # overwrites every element of a full one.
        partial = " || ".join(f"v{j} < {self.tiles[d]}" for j, d in enumerate(dims))
        self.emit(f"if ({partial}) memset({buf}, 0, {elems} * sizeof(float));")
        guard = " && ".join(f"v{j} > 0" for j in range(len(dims))) or "1"
        self.emit(f"if ({guard}) {{")
        self.depth += 1
        ivars = {d: f"i{j}" for j, d in enumerate(dims[:-1])}
        for j, d in enumerate(dims[:-1]):
            self.emit(f"for (long i{j} = 0; i{j} < v{j}; i{j}++)")
            self.depth += 1
        last = dims[-1]
        offsets = {d: f"s{j}" for j, d in enumerate(dims)}
        src = self.global_index(tensor, offsets, ivars)
        dst = self.tile_index(dims, {**ivars, last: "0"})
        self.emit(
            f"memcpy({buf} + ({dst}), {self.c_arg(tensor)} + ({src}), "
            f"v{len(dims) - 1} * sizeof(float));"
        )
        self.depth -= len(dims) - 1
        self.depth -= 1
        self.emit("}")
        self.depth -= 1
        self.emit("}")

    def c_arg(self, tensor: str) -> str:
        ref = self.chain.tensors[tensor]
        assert ref.role in ("input", "output")
        return f"g{self.tensor_id[tensor]}"

    def emit_acc_reset(self, block) -> None:
        """The interpreter's ``_ensure_acc``: re-zero on first touch, on a
        spatial-key change, or on a fresh reduction sweep."""
        bid = self.block_id[block.name]
        out_dims = self.chain.tensors[block.output].dims
        elems = int(prod(self.tile_shape(out_dims)))
        fresh_terms = [
            f"{self.loop_vars[r]} == 0"
            for r in block.reduction
            if r in self.in_scope
        ]
        fresh = " && ".join(fresh_terms) if fresh_terms else "1"
        key_dims = [d for d in block.spatial if d in self.in_scope]
        key_terms = [f"key{bid}_{i} != {self.loop_vars[d]}" for i, d in enumerate(key_dims)]
        cond = " || ".join([f"!alive{bid}", *key_terms, f"({fresh})"])
        self.emit(f"if ({cond}) {{")
        self.depth += 1
        self.emit(f"memset(acc{bid}, 0, {elems} * sizeof(float));")
        if block.softmax_over is not None:
            rows = int(prod(self.tile_shape(softmax_row_dims(self.chain, block))))
            self.emit(f"for (long r = 0; r < {rows}; r++) {{ rmax{bid}[r] = -INFINITY; rden{bid}[r] = 0.0f; }}")
        self.emit(f"alive{bid} = 1;")
        for i, d in enumerate(key_dims):
            self.emit(f"key{bid}_{i} = {self.loop_vars[d]};")
        self.depth -= 1
        self.emit("}")

    def operand_base(self, tensor: str) -> str:
        """The tile buffer a compute operand is read from (producer
        epilogues applied at consumption, per the interpreter)."""
        ref = self.chain.tensors[tensor]
        if ref.role == "input":
            return f"sm{self.tensor_id[tensor]}"
        producer = self.chain.producer_of(tensor)
        assert producer is not None
        bid = self.block_id[producer.name]
        if producer.epilogue is not None:
            return f"epi{bid}"
        return f"acc{bid}"

    def operand_read(self, tensor: str, ivars: dict[str, str]) -> str:
        """C expression reading one element of a compute operand."""
        index = self.tile_index(self.chain.tensors[tensor].dims, ivars)
        return f"{self.operand_base(tensor)}[{index}]"

    def contraction_reads(self, block) -> list[tuple[str, tuple[str, ...]]]:
        """(tile buffer, tile dims) for each contraction operand; a softmax
        block contracts its probability tile in place of the first
        operand (the scores were consumed by the softmax stages)."""
        reads: list[tuple[str, tuple[str, ...]]] = []
        inputs = block.inputs
        if block.softmax_over is not None:
            bid = self.block_id[block.name]
            reads.append((f"prob{bid}", self.chain.tensors[inputs[0]].dims))
            inputs = inputs[1:]
        for t in inputs:
            reads.append((self.operand_base(t), self.chain.tensors[t].dims))
        return reads

    def contraction_form(self, block) -> tuple[str, str | None, tuple[str, ...]]:
        """How the block's einsum loop nest iterates, chosen by access
        pattern — shared between arena planning and emission.

        Returns ``(form, inner dim, buffers to transpose)``:

        - ``axpy``: the output's last dim is innermost and every operand
          reads it unit-stride — vector FMAs into the accumulator row.
          Operands that carry the inner dim strided get a transposed
          tile copy (worth it: the copy is one pass over the operand,
          while the dot form pays a horizontal reduction per output
          element — the Q·K^T case).
        - ``dot``: scalar-output blocks reduce a contracted dim that is
          unit-stride in every operand via a SIMD ``+`` reduction.
        - ``naive``: no candidate; the plain nest, compiler's choice.
        """
        out_dims = self.chain.tensors[block.output].dims
        reads = self.contraction_reads(block)
        order, _ = self.contraction_order(block)
        if not order:
            return ("naive", None, ())
        if out_dims:
            inner = out_dims[-1]
            offenders = [b for b, dims in reads if inner in dims and dims[-1] != inner]
            return ("axpy", inner, tuple(dict.fromkeys(offenders)))
        for c in order:
            if not any(c in dims for _, dims in reads):
                continue
            if all(c not in dims or dims[-1] == c for _, dims in reads):
                return ("dot", c, ())
        return ("naive", None, ())

    def materialize_epilogues(self, block) -> None:
        """Producer tiles consumed through an epilogue are materialized once
        per compute execution instead of re-applying gelu per inner-loop
        read. The loop carries ``#pragma omp simd`` so gelu's ``tanhf``
        calls the simd-declared libmvec variant where one exists."""
        for tensor in block.inputs:
            producer = self.chain.producer_of(tensor)
            if producer is None or producer.epilogue is None:
                continue
            bid = self.block_id[producer.name]
            elems = int(prod(self.tile_shape(self.chain.tensors[tensor].dims)))
            body = self.epilogue_expr(f"acc{bid}[e]", producer.epilogue)
            self.emit("#pragma omp simd")
            self.emit(
                f"for (long e = 0; e < {elems}; e++) epi{bid}[e] = {body}; "
                f"/* epilogue({producer.epilogue}) of {tensor} */"
            )

    def contraction_order(self, block) -> tuple[list[str], dict[str, str]]:
        """The einsum loop order and its index vars (no emission).

        Order: output dims except the last, then contracted dims, then the
        output's last dim innermost — unit-stride stores/loads on the
        accumulator for the compiler to vectorize.
        """
        out_dims = self.chain.tensors[block.output].dims
        seen = set(out_dims)
        contracted = []
        for tensor in block.inputs:
            for d in self.chain.tensors[tensor].dims:
                if d not in seen:
                    contracted.append(d)
                    seen.add(d)
        if out_dims:
            order = [*out_dims[:-1], *contracted, out_dims[-1]]
        else:
            order = list(contracted)
        return order, {d: f"t{i}" for i, d in enumerate(order)}

    def emit_contraction(
        self,
        block,
        reads: list[tuple[str, tuple[str, ...]]],
        order: list[str],
        ivars: dict[str, str],
        scale_expr: str | None = None,
    ) -> None:
        """Emit the loop nest around ``acc += product`` in the form chosen
        by :meth:`contraction_form` (``reads`` is ``(buffer, dims)``
        pairs).

        The ``axpy`` form is a register-resident microkernel (see
        :meth:`emit_microkernel`): blocks of R = 4, 2 or 1 output rows x
        ``nv`` = 4, 2 or 1 vectors of 16 columns hold their accumulators
        in ``mcf_v`` locals across the whole contracted loop nest, and
        the ``inner % 16`` column tail runs that nest with ``float``
        accumulators. Operands that stride the inner dim are first copied
        transposed (:meth:`emit_transpose`: 16x16 blocks when both tile
        extents are multiples of 16). The ``dot`` form hoists the factors
        invariant to its reduced dim and reduces that dim in a
        ``#pragma omp simd`` loop — without the pragma the compiler's cost
        model refuses these small tile loops as a "complicated access
        pattern". The ``naive`` form is the plain nest."""
        bid = self.block_id[block.name]
        out_dims = self.chain.tensors[block.output].dims
        target = f"acc{bid}[{self.tile_index(out_dims, ivars)}]"
        form, inner, transposed = self.contraction_form(block)
        resolved: list[tuple[str, tuple[str, ...]]] = []
        copied: set[str] = set()
        for base, dims in reads:
            if base not in transposed:
                resolved.append((base, dims))
                continue
            tdims = (*[d for d in dims if d != inner], inner)
            tr = f"tr{bid}_{base}"
            if base not in copied:
                copied.add(base)
                self.emit(f"/* unit-stride copy of {base} for the {inner} loop */")
                self.emit_transpose(base, dims, tr, tdims)
            resolved.append((tr, tdims))

        def rd(base: str, dims: tuple[str, ...], iv: dict[str, str]) -> str:
            return f"{base}[{self.tile_index(dims, iv)}]"

        scale = [scale_expr] if scale_expr else []
        if not order or form == "naive":  # naive: leave it to the compiler
            for d in order:
                v = ivars[d]
                self.emit(f"for (long {v} = 0; {v} < {self.tiles[d]}; {v}++)")
                self.depth += 1
            factors = scale + [rd(b, d, ivars) for b, d in resolved]
            self.emit(f"{target} += {' * '.join(factors)};")
            self.depth -= len(order)
            return
        invariant = [(b, d) for b, d in resolved if inner not in d]
        variant = [(b, d) for b, d in resolved if inner in d]
        if form == "axpy":
            self.emit_microkernel(
                bid, out_dims, [d for d in order if d not in out_dims],
                scale, invariant, variant, ivars,
            )
            return
        outer = [d for d in order if d != inner]
        for d in outer:
            v = ivars[d]
            self.emit(f"for (long {v} = 0; {v} < {self.tiles[d]}; {v}++) {{")
            self.depth += 1
        iv = ivars[inner]
        hoist = scale + [rd(b, d, ivars) for b, d in invariant]
        self.emit("float s_ = 0.0f;")
        self.emit("#pragma omp simd reduction(+:s_)")
        self.emit(f"for (long {iv} = 0; {iv} < {self.tiles[inner]}; {iv}++)")
        self.depth += 1
        self.emit(f"s_ += {' * '.join(rd(b, d, ivars) for b, d in variant)};")
        self.depth -= 1
        self.emit(f"{target} += {' * '.join([*hoist, 's_'])};")
        for _ in outer:
            self.depth -= 1
            self.emit("}")

    def emit_transpose(
        self, base: str, dims: tuple[str, ...], tr: str, tdims: tuple[str, ...]
    ) -> None:
        """Copy tile ``base`` into ``tr`` laid out as ``tdims``. A 2-D tile
        whose extents are multiples of 16 is copied in 16x16 blocks, so
        each block's source rows and destination rows stay in cache; the
        plain nest walks the whole destination column per source row."""
        cvars = {d: f"c{j}" for j, d in enumerate(dims)}
        assign = (
            f"{tr}[{self.tile_index(tdims, cvars)}] = "
            f"{base}[{self.tile_index(dims, cvars)}];"
        )
        if len(dims) == 2 and all(self.tiles[d] % _TR_BLOCK == 0 for d in dims):
            for j, d in enumerate(dims):
                self.emit(f"for (long k{j} = 0; k{j} < {self.tiles[d]}; k{j} += {_TR_BLOCK})")
                self.depth += 1
            self.emit(f"for (long c0 = k0; c0 < k0 + {_TR_BLOCK}; c0++) {{")
            self.depth += 1
            self.emit("#pragma omp simd")
            self.emit(f"for (long c1 = k1; c1 < k1 + {_TR_BLOCK}; c1++)")
            self.depth += 1
            self.emit(assign)
            self.depth -= 2
            self.emit("}")
            self.depth -= 2
            return
        for j, d in enumerate(dims):
            self.emit(f"for (long c{j} = 0; c{j} < {self.tiles[d]}; c{j}++)")
            self.depth += 1
        self.emit(assign)
        self.depth -= len(dims)

    def emit_microkernel(
        self,
        bid: int,
        out_dims: tuple[str, ...],
        contracted: list[str],
        scale: list[str],
        invariant: list[tuple[str, tuple[str, ...]]],
        variant: list[tuple[str, tuple[str, ...]]],
        ivars: dict[str, str],
    ) -> None:
        """The ``axpy`` contraction as a register-resident microkernel.

        The output tile is walked in blocks of R rows (``_block_factor``
        of the innermost output-row dim, when no unit-stride operand
        depends on it) x W inner columns. W is ``nv`` vectors of
        :data:`_LANES` floats, ``nv`` in 4, 2, 1 — the widest that divides
        the vector part of the inner tile — so a block holds at most 16
        ``mcf_v`` accumulators. Each block loads its accumulators once,
        runs the whole contracted loop nest on them, and stores them
        once::

            mcf_v c0_0 = acc[t0][t2 : t2+16], ..., c3_1 = acc[t0+3][t2+16 : t2+32]
            for t1:  a_r = scale * A[t0 + r][t1]      (r = 0..3)
                     p_j = B[t1][t2 + 16j : t2 + 16j + 16]   (j = 0..1)
                     c_r_j += a_r * p_j
            acc[t0 + r][t2 + 16j : ...] = c_r_j

        The ``inner % 16`` tail columns run one at a time through the
        same nest with ``float`` accumulators. ``scale`` and the
        ``invariant`` operand tiles (those without the inner dim) form
        ``a_r``; the ``variant`` tiles are read unit-stride as ``p_j``.
        The block shape depends only on the tile sizes, never on the
        host, so the source stays portable; every output element
        accumulates in serial contracted order."""
        acc = f"acc{bid}"
        row_dim = out_dims[-2] if len(out_dims) >= 2 else None
        rows = 1
        if row_dim is not None and all(row_dim not in d for _, d in variant):
            rows = _block_factor(self.tiles[row_dim])
        inner = out_dims[-1]
        tile = self.tiles[inner]
        vec_end = tile - tile % _LANES
        nv = next(f for f in (4, 2, 1) if (vec_end // _LANES) % f == 0)
        iv = ivars[inner]

        def at(r: int, col: int) -> dict[str, str]:
            shifted = dict(ivars)
            if r:
                shifted[row_dim] = f"({ivars[row_dim]} + {r})"
            if col:
                shifted[inner] = f"({iv} + {col})"
            return shifted

        def emit_block(vector: bool) -> None:
            width, step = (nv, _LANES) if vector else (1, 1)
            cs = [[f"c{r}_{j}" for j in range(width)] for r in range(rows)]
            for r in range(rows):
                for j in range(width):
                    src = self.tile_index(out_dims, at(r, j * step))
                    if vector:
                        self.emit(f"mcf_v {cs[r][j]}; memcpy(&{cs[r][j]}, {acc} + ({src}), sizeof(mcf_v));")
                    else:
                        self.emit(f"float {cs[r][j]} = {acc}[{src}];")
            for d in contracted:
                v = ivars[d]
                self.emit(f"for (long {v} = 0; {v} < {self.tiles[d]}; {v}++) {{")
                self.depth += 1
            a = []
            if scale or invariant:
                for r in range(rows):
                    a.append(f"a{r}")
                    factors = scale + [
                        f"{b}[{self.tile_index(dims, at(r, 0))}]" for b, dims in invariant
                    ]
                    self.emit(f"float a{r} = {' * '.join(factors)};")
            ps: list[list[str]] = []
            for j in range(width):
                names = []
                for i, (b, dims) in enumerate(variant):
                    name = f"p{j}" if i == 0 else f"p{j}_{i}"
                    names.append(name)
                    src = self.tile_index(dims, at(0, j * step))
                    if vector:
                        self.emit(f"mcf_v {name}; memcpy(&{name}, {b} + ({src}), sizeof(mcf_v));")
                    else:
                        self.emit(f"float {name} = {b}[{src}];")
                ps.append(names)
            for r in range(rows):
                for j in range(width):
                    terms = ([a[r]] if a else []) + ps[j]
                    self.emit(f"{cs[r][j]} += {' * '.join(terms)};")
            for _ in contracted:
                self.depth -= 1
                self.emit("}")
            for r in range(rows):
                for j in range(width):
                    dst = self.tile_index(out_dims, at(r, j * step))
                    if vector:
                        self.emit(f"memcpy({acc} + ({dst}), &{cs[r][j]}, sizeof(mcf_v));")
                    else:
                        self.emit(f"{acc}[{dst}] = {cs[r][j]};")

        for d in out_dims[:-1]:
            v = ivars[d]
            inc = f"{v} += {rows}" if d == row_dim and rows > 1 else f"{v}++"
            self.emit(f"for (long {v} = 0; {v} < {self.tiles[d]}; {inc}) {{")
            self.depth += 1
        for start, end, inc, vector in (
            (0, vec_end, f"{iv} += {nv * _LANES}", True),
            (vec_end, tile, f"{iv}++", False),
        ):
            if start == end:
                continue
            self.emit(f"for (long {iv} = {start}; {iv} < {end}; {inc}) {{")
            self.depth += 1
            emit_block(vector)
            self.depth -= 1
            self.emit("}")
        for _ in out_dims[:-1]:
            self.depth -= 1
            self.emit("}")

    def emit_compute(self, stmt: Statement) -> None:
        block = self.chain.block(stmt.block)
        self.emit(f"{{ /* Compute {block.name} */")
        self.depth += 1
        self.emit_acc_reset(block)
        self.materialize_epilogues(block)
        if block.softmax_over is None:
            order, ivars = self.contraction_order(block)
            scale_expr = f"{block.scale!r}f" if block.scale != 1.0 else None
            self.emit_contraction(
                block, self.contraction_reads(block), order, ivars, scale_expr
            )
        else:
            self.emit_online_softmax(block)
        self.depth -= 1
        self.emit("}")

    def emit_online_softmax(self, block) -> None:
        """The FlashAttention recurrence, staged exactly as the scalar
        interpreter: (1) per-row max/probs/denominator update, (2) rescale
        the accumulator by the correction, (3) add the probs contraction."""
        bid = self.block_id[block.name]
        chain = self.chain
        n = block.softmax_over
        assert n is not None
        first = block.inputs[0]
        first_dims = chain.tensors[first].dims
        row_dims = softmax_row_dims(chain, block)
        out_dims = chain.tensors[block.output].dims
        tile_n = self.tiles[n]
        size_n = chain.loops[n]
        self.emit(f"long sn = (long)({self.idx_val(n)}) * {tile_n};")
        self.emit(f"long vn = {size_n} - sn < {tile_n} ? {size_n} - sn : {tile_n};")
        self.emit("if (vn > 0) {")
        self.depth += 1
        # Stage 1: per-row stats + probs (probs laid out as the first
        # operand's tile so the contraction reads it like any operand).
        rvars = {d: f"r{i}" for i, d in enumerate(row_dims)}
        for i, d in enumerate(row_dims):
            self.emit(f"for (long r{i} = 0; r{i} < {self.tiles[d]}; r{i}++) {{")
            self.depth += 1
        row_index = self.tile_index(row_dims, rvars)
        score = self.operand_read(first, {**rvars, n: "jn"})
        self.emit("float tmax = -INFINITY;")
        self.emit("#pragma omp simd reduction(max:tmax)")
        self.emit(f"for (long jn = 0; jn < vn; jn++) {{ float s = {score}; if (s > tmax) tmax = s; }}")
        self.emit(f"float oldmax = rmax{bid}[{row_index}];")
        self.emit("float newmax = oldmax > tmax ? oldmax : tmax;")
        self.emit("float corr = expf(oldmax - newmax);")
        self.emit("if (!isfinite(corr)) corr = 0.0f;")
        self.emit("float psum = 0.0f;")
        # Three passes: masked arguments, then a bare expf call, then the
        # denominator reduction. The middle pass is the only shape gcc
        # will lower to the simd-declared expf — any ternary around the
        # call (even a pure argument blend) falls back to scalar libm.
        # Masked lanes get -inf, which the vector expf maps to exactly 0.
        prob_at = f"prob{bid}[{self.tile_index(first_dims, {**rvars, n: 'jn'})}]"
        self.emit("#pragma omp simd")
        self.emit(f"for (long jn = 0; jn < {tile_n}; jn++)")
        self.depth += 1
        self.emit(f"{prob_at} = jn < vn ? {score} - newmax : -INFINITY;")
        self.depth -= 1
        self.emit("#pragma omp simd")
        self.emit(f"for (long jn = 0; jn < {tile_n}; jn++)")
        self.depth += 1
        self.emit(f"{prob_at} = expf({prob_at});")
        self.depth -= 1
        self.emit("#pragma omp simd reduction(+:psum)")
        self.emit(f"for (long jn = 0; jn < {tile_n}; jn++)")
        self.depth += 1
        self.emit(f"psum += {prob_at};")
        self.depth -= 1
        self.emit(f"rden{bid}[{row_index}] = rden{bid}[{row_index}] * corr + psum;")
        self.emit(f"rmax{bid}[{row_index}] = newmax;")
        self.emit(f"rcor{bid}[{row_index}] = corr;")
        for _ in row_dims:
            self.depth -= 1
            self.emit("}")
        # Stage 2: rescale the running accumulator by the row correction.
        ovars = {d: f"o{i}" for i, d in enumerate(out_dims)}
        for i, d in enumerate(out_dims):
            if i + 1 == len(out_dims):
                self.emit("#pragma omp simd")
            self.emit(f"for (long o{i} = 0; o{i} < {self.tiles[d]}; o{i}++) {{")
            self.depth += 1
        row_of_out = self.tile_index(row_dims, ovars)
        self.emit(f"acc{bid}[{self.tile_index(out_dims, ovars)}] *= rcor{bid}[{row_of_out}];")
        for _ in out_dims:
            self.depth -= 1
            self.emit("}")
        # Stage 3: contraction with probs as the first operand (no scale —
        # a softmax block's scale belongs to its producer contraction).
        order, ivars = self.contraction_order(block)
        self.emit_contraction(block, self.contraction_reads(block), order, ivars)
        self.depth -= 1
        self.emit("}")

    def emit_store(self, stmt: Statement) -> None:
        block = self.chain.block(stmt.block)
        bid = self.block_id[block.name]
        tensor = stmt.tensor
        dims = self.chain.tensors[tensor].dims
        self.emit(f"{{ /* Store tile {tensor} */")
        self.depth += 1
        for j, d in enumerate(dims):
            size = self.chain.loops[d]
            tile = self.tiles[d]
            self.emit(f"long s{j} = (long)({self.idx_val(d)}) * {tile};")
            self.emit(f"long v{j} = {size} - s{j} < {tile} ? {size} - s{j} : {tile};")
        ivars = {d: f"i{j}" for j, d in enumerate(dims)}
        for j, d in enumerate(dims):
            self.emit(f"for (long i{j} = 0; i{j} < v{j}; i{j}++) {{")
            self.depth += 1
        value = f"acc{bid}[{self.tile_index(dims, ivars)}]"
        if block.softmax_over is not None:
            row_dims = softmax_row_dims(self.chain, block)
            row = self.tile_index(row_dims, ivars)
            self.emit(f"float d_ = rden{bid}[{row}];")
            value = f"{value} / (d_ > 0.0f ? d_ : 1.0f)"
        value = self.epilogue_expr(value, block.epilogue)
        offsets = {d: f"s{j}" for j, d in enumerate(dims)}
        dst = self.global_index(tensor, offsets, ivars)
        self.emit(f"{self.c_arg(tensor)}[{dst}] = {value};")
        for _ in dims:
            self.depth -= 1
            self.emit("}")
        self.depth -= 1
        self.emit("}")

    # -- tree walk -------------------------------------------------------------

    def emit_scope(self, scope: LoopScope) -> None:
        for item in scope.body:
            if isinstance(item, Statement):
                if item.kind == "load":
                    self.emit_load(item)
                elif item.kind == "compute":
                    self.emit_compute(item)
                else:
                    self.emit_store(item)
            else:
                assert item.loop is not None
                var = f"L{len(self.loop_vars)}"
                self.loop_vars[item.loop] = var
                self.in_scope.append(item.loop)
                self.emit(f"for (long {var} = 0; {var} < {item.extent}; {var}++) {{ /* {item.loop} */")
                self.depth += 1
                self.emit_scope(item)
                self.depth -= 1
                self.emit("}")
                self.in_scope.pop()

    # -- whole kernel ----------------------------------------------------------

    def render(self) -> RenderedKernel:
        chain = self.chain
        schedule = self.schedule
        self.plan_arena()
        input_names = chain.input_names()
        output_names = tuple(
            name for name, ref in chain.tensors.items() if ref.role == "output"
        )
        params = [f"const float* restrict g{self.tensor_id[t]}" for t in input_names]
        params += [f"float* restrict g{self.tensor_id[t]}" for t in output_names]
        entry = "mcfuser_kernel"
        head = [
            "/* Generated by the MCFuser reproduction compiled backend.",
            f" * chain: {chain.name}",
            f" * schedule: {schedule.describe()}",
            " */",
            "#include <math.h>",
            "#include <stdlib.h>",
            "#include <string.h>",
            "",
            "/* The contraction microkernel's accumulator vector (GCC/Clang vector",
            " * extension), loaded and stored with memcpy: tiles need no alignment. */",
            "typedef float mcf_v __attribute__((vector_size(64)));",
            "",
            "static inline float mcf_relu(float x) { return x > 0.0f ? x : 0.0f; }",
            "static inline float mcf_gelu(float x) {",
            "    return 0.5f * x * (1.0f + tanhf(0.7978845608f * (x + 0.044715f * x * x * x)));",
            "}",
            "/* glibc ships vectorized expf in libmvec but only declares it simd",
            " * under fast-math, which would break the online-softmax -inf/isfinite",
            " * masking. Declaring it ourselves lets the probability loop call",
            " * _ZGV*_expf without fast-math; elsewhere expf stays scalar libm.",
            " * The same holds for tanhf in the GELU epilogue loop, whose libmvec",
            " * variant first shipped in glibc 2.35. */",
            "#if defined(__x86_64__) && defined(__GLIBC__) && defined(_OPENMP)",
            "#pragma omp declare simd notinbranch",
            "extern float expf(float);",
            "#if __GLIBC_PREREQ(2, 35)",
            "#pragma omp declare simd notinbranch",
            "extern float tanhf(float);",
            "#endif",
            "#endif",
            "",
            f"int {entry}({', '.join(params)}) {{",
            "    int fail = 0;",
        ]
        self.lines = []
        self.depth = 1
        grid = list(self.program.grid_loops)  # ("b", batch) first
        collapse = len(grid)
        self.emit("#pragma omp parallel for "
                  f"collapse({collapse}) schedule(static) reduction(|:fail)")
        for i, (loop, extent) in enumerate(grid):
            var = "b" if loop == "b" else f"g_{i}"
            if loop != "b":
                self.grid_vars[loop] = var
            self.emit(f"for (long {var} = 0; {var} < {extent}; {var}++)")
        self.emit("{")
        self.depth += 1
        arena_elems = self._next_off
        self.emit(f"float* arena = (float*)malloc({max(arena_elems, 1)} * sizeof(float));")
        self.emit("if (!arena) { fail = 1; continue; }")
        for name, _ in self.arena:
            self.emit(f"float* restrict {name} = arena + {self.arena_off[name]};")
        # Per-cell accumulator liveness + spatial keys.
        for block in chain.blocks:
            bid = self.block_id[block.name]
            self.emit(f"int alive{bid} = 0;")
            key_dims = [d for d in block.spatial]
            for i, d in enumerate(key_dims):
                self.emit(f"long key{bid}_{i} = -1; (void)key{bid}_{i};")
        self.emit_scope(schedule.root)
        self.emit("free(arena);")
        self.depth -= 1
        self.emit("}")
        self.emit("return fail;")
        body = head + self.lines + ["}"]
        source = "\n".join(body) + "\n"
        return RenderedKernel(
            source=source,
            entry=entry,
            input_names=input_names,
            output_names=output_names,
            source_hash=f"{stable_hash(source):016x}",
        )


#: (chain name, schedule content key, ops, grid_loops) -> rendered kernel.
#: Rendering is pure in the program content plus the chain name the source
#: header carries, so rebuilt-but-identical programs skip the ~1ms emit
#: pass; a tampered program differs in its ops tuple, misses the memo, and
#: still reaches ``_verify_program``.
_RENDER_MEMO = process_memo(LRUCache(capacity=256))

#: Attribute caching a program object's kernel on the (frozen) program
#: itself: repeat executions of one module's program skip even the memo's
#: content hashing. ``dataclasses.replace`` builds a new object, so a
#: tampered copy never inherits it.
_KERNEL_ATTR = "_rendered_c"


def render_program(program: TileProgram) -> RenderedKernel:
    """Render a lowered program to a compilable C kernel.

    Raises :class:`RenderError` — never emits semantically divergent code —
    for programs whose per-cell state machine the static verifier rejects
    or whose working set exceeds :data:`MAX_ARENA_BYTES`. Any
    ``InterpreterError`` escaping the verifier (e.g. an inexpressible
    softmax row shape) is re-raised as a :class:`RenderError` so callers
    can catch one typed error.
    """
    rendered = getattr(program, _KERNEL_ATTR, None)
    if rendered is not None:
        return rendered
    schedule = program.schedule
    key = (schedule.chain.name, schedule.content_key, program.ops, program.grid_loops)
    rendered = _RENDER_MEMO.get(key)
    if rendered is None:
        try:
            _verify_program(program)
            rendered = _RENDER_MEMO.put(key, _Emitter(program).render())
        except RenderError:
            raise
        except InterpreterError as exc:
            raise RenderError(str(exc)) from exc
    object.__setattr__(program, _KERNEL_ATTR, rendered)
    return rendered


def schedule_renderable(schedule, facts=None) -> bool:
    """Whether ``schedule`` lowers *and* renders to C (memoized by schedule
    content in its :class:`~repro.codegen.program.ScheduleFacts`; pass
    ``facts`` when the caller already holds them)."""
    from repro.codegen.program import lower_schedule, schedule_facts

    if facts is None:
        facts = schedule_facts(schedule)
    if facts.renderable is None:
        renderable = False
        if facts.lowerable:
            try:
                render_program(lower_schedule(schedule))
                renderable = True
            except RenderError:
                pass
        facts.renderable = renderable
    return facts.renderable
