"""NumPy tile interpreter: executes a scheduled fused kernel exactly.

This is the reproduction's stand-in for running generated Triton/PTX code
on a GPU and checking its output. The interpreter walks a
:class:`~repro.tiling.schedule.Schedule` grid cell by grid cell, keeping
"shared memory" tiles in a dictionary, accumulating partial results with
init-on-first-reduction-iteration semantics, applying producer epilogues at
consumption time, realizing ``softmax_over`` blocks with the *online
softmax* recurrence (numerically exact, like FlashAttention), and masking
padded tile regions so non-divisible problem sizes stay correct.

Every schedule that survives the pruning rules must produce bit-for-bit
(up to fp32 associativity) the same result as
:meth:`ComputeChain.reference` — the property-based tests in
``tests/test_interpreter*.py`` enforce this across random chains,
expressions and tile sizes.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from repro.ir.chain import ComputeBlock, ComputeChain
from repro.tiling.schedule import LoopScope, Schedule, Statement
from repro.utils import prod

__all__ = [
    "execute_schedule",
    "resolve_exec_backend",
    "explain_exec_backend",
    "execute_resolved",
    "validate_exec_backend",
    "InterpreterError",
    "EXEC_BACKENDS",
    "COMPILED_MIN_FLOPS",
]

#: Valid values for the ``backend`` argument of :func:`execute_schedule`.
#: ``auto`` prefers the native compiled backend (when a C compiler is
#: available, the schedule renders, and the workload is big enough to
#: amortize a compile — see :data:`COMPILED_MIN_FLOPS`), then the
#: vectorized executor when the schedule lowers to a flat batched program,
#: then this scalar interpreter.
EXEC_BACKENDS = ("auto", "compiled", "vectorized", "scalar")

#: ``auto`` only routes to the compiled backend for schedules at or above
#: this many total FLOPs: a gcc/clang invocation costs ~100ms, so tiny
#: (test-sized) problems would pay more compiling than executing. Pinning
#: ``backend="compiled"`` ignores the threshold.
COMPILED_MIN_FLOPS = 3.2e7

_NEG_INF = np.float32(-np.inf)


def validate_exec_backend(backend: str) -> str:
    """Return ``backend`` if it is a known execution backend, else raise."""
    if backend not in EXEC_BACKENDS:
        raise ValueError(
            f"unknown exec backend {backend!r}; pick from {EXEC_BACKENDS}"
        )
    return backend


class InterpreterError(RuntimeError):
    """The schedule cannot be executed faithfully (invalid or unsupported)."""


def _apply_epilogue(x: np.ndarray, epilogue: str | None) -> np.ndarray:
    if epilogue is None:
        return x
    if epilogue == "relu":
        return np.maximum(x, 0.0)
    if epilogue == "gelu":
        return 0.5 * x * (1.0 + np.tanh(0.7978845608 * (x + 0.044715 * x**3)))
    raise InterpreterError(f"unknown epilogue {epilogue!r}")


def softmax_row_dims(chain: ComputeChain, block: ComputeBlock) -> tuple[str, ...]:
    """Dims of a softmax block's per-row state (max, denominator).

    The online-softmax recurrence keeps one running (max, denom) pair per
    *row* — every element of the first operand that shares a softmax-axis
    slice. Those are the first operand's dims minus the softmax axis, in
    operand order. The row correction rescales the output accumulator, so
    every row dim must also index the output tile; a block violating that
    has no per-row rescaling that is expressible on the accumulator.
    """
    assert block.softmax_over is not None
    first = chain.tensors[block.inputs[0]].dims
    row_dims = tuple(d for d in first if d != block.softmax_over)
    out_dims = chain.tensors[block.output].dims
    missing = [d for d in row_dims if d not in out_dims]
    if missing:
        raise InterpreterError(
            f"block {block.name!r}: softmax row dim(s) {missing} do not index "
            f"the output tile {out_dims}; the online-softmax accumulator "
            "cannot express this block"
        )
    return row_dims


def rows_to_tile(
    arr: np.ndarray,
    row_dims: tuple[str, ...],
    out_dims: tuple[str, ...],
    lead: int = 0,
) -> np.ndarray:
    """Reshape a row-state array so it broadcasts against an output tile.

    ``arr``'s trailing axes are ordered as ``row_dims`` (the natural order
    of the softmax operand); the output tile's trailing axes are ordered as
    ``out_dims``. ``lead`` leading axes (e.g. the vectorized executor's
    cell axis) are preserved as-is. The historical code hardcoded
    ``arr[..., None]``, which silently mis-broadcasts for anything but
    2-D ``(rows, cols)`` output tiles.
    """
    order = sorted(range(len(row_dims)), key=lambda i: out_dims.index(row_dims[i]))
    arr = np.transpose(arr, (*range(lead), *(lead + i for i in order)))
    shape = list(arr.shape[:lead])
    pos = lead
    for d in out_dims:
        if d in row_dims:
            shape.append(arr.shape[pos])
            pos += 1
        else:
            shape.append(1)
    return arr.reshape(shape)


@dataclass
class _AccState:
    """Running accumulator for one output tile of one block."""

    key: tuple
    tile: np.ndarray
    row_max: np.ndarray | None = None  # online-softmax state (per row)
    denom: np.ndarray | None = None


@dataclass
class _Cell:
    """Per-thread-block execution state."""

    smem: dict[str, np.ndarray] = field(default_factory=dict)
    acc: dict[str, _AccState] = field(default_factory=dict)


class _Executor:
    def __init__(self, schedule: Schedule, inputs: dict[str, np.ndarray]) -> None:
        self.s = schedule
        self.chain: ComputeChain = schedule.chain
        schedule.check_valid()
        for name, ref in self.chain.tensors.items():
            if ref.role != "input" and schedule.live_copies(name) > 1:
                raise InterpreterError(
                    f"schedule {schedule.describe()} needs {schedule.live_copies(name)} "
                    f"live tiles of {name!r}; the interpreter models single-copy buffers"
                )
        self.inputs = {
            k: np.asarray(v, dtype=np.float32) for k, v in inputs.items()
        }
        for name in self.chain.input_names():
            if name not in self.inputs:
                raise KeyError(f"missing input {name!r}")
            expect = self.chain.tensor_shape(name)
            if self.inputs[name].shape != expect:
                raise ValueError(f"input {name!r}: shape {self.inputs[name].shape} != {expect}")
        self.outputs = {
            name: np.zeros(self.chain.tensor_shape(name), dtype=np.float32)
            for name, ref in self.chain.tensors.items()
            if ref.role == "output"
        }
        self.tiles = schedule.tiles

    # -- tile addressing -----------------------------------------------------

    def _tile_bounds(self, dim: str, idx: dict[str, int]) -> tuple[int, int, int]:
        """(start, stop, tile) source bounds of dim ``dim`` at loop state idx."""
        tile = self.tiles[dim]
        start = idx.get(dim, 0) * tile
        stop = min(start + tile, self.chain.loops[dim])
        return start, stop, tile

    def _read_tile(self, tensor: str, b: int, idx: dict[str, int]) -> np.ndarray:
        """Zero-padded tile of a global input tensor."""
        dims = self.chain.tensors[tensor].dims
        src = self.inputs[tensor][b]
        shape = tuple(self.tiles[d] for d in dims)
        out = np.zeros(shape, dtype=np.float32)
        src_slices = []
        dst_slices = []
        for d in dims:
            start, stop, tile = self._tile_bounds(d, idx)
            if start >= self.chain.loops[d]:
                return out  # fully out-of-range padded tile
            src_slices.append(slice(start, stop))
            dst_slices.append(slice(0, stop - start))
        out[tuple(dst_slices)] = src[tuple(src_slices)]
        return out

    def _valid_extent(self, dim: str, idx: dict[str, int]) -> int:
        start, stop, _ = self._tile_bounds(dim, idx)
        return max(stop - start, 0)

    # -- statement semantics --------------------------------------------------

    def _spatial_key(self, block: ComputeBlock, b: int, idx: dict[str, int]) -> tuple:
        return (b, *[idx.get(d, 0) for d in block.spatial])

    def _operand_value(self, tensor: str, cell: _Cell, b: int, idx: dict[str, int]) -> np.ndarray:
        ref = self.chain.tensors[tensor]
        if ref.role == "input":
            if tensor not in cell.smem:
                raise InterpreterError(f"tensor {tensor!r} consumed before Load")
            return cell.smem[tensor]
        producer = self.chain.producer_of(tensor)
        assert producer is not None
        state = cell.acc.get(producer.name)
        if state is None or state.key != self._spatial_key(producer, b, idx):
            raise InterpreterError(
                f"intermediate {tensor!r} consumed before it was produced "
                f"(schedule {self.s.describe()})"
            )
        return _apply_epilogue(state.tile, producer.epilogue)

    def _ensure_acc(self, block: ComputeBlock, cell: _Cell, b: int, idx: dict[str, int]) -> _AccState:
        key = self._spatial_key(block, b, idx)
        state = cell.acc.get(block.name)
        # Init-on-first-reduction-iteration: a fresh sweep (every reduction
        # loop of the block back at 0) re-zeroes the accumulator even when
        # the spatial key is unchanged — e.g. a producer recomputed under an
        # unrelated loop of a deep tiling would otherwise accumulate its
        # reduction twice.
        fresh_sweep = all(idx.get(r, 0) == 0 for r in block.reduction)
        if state is None or state.key != key or fresh_sweep:
            shape = tuple(self.tiles[d] for d in self.chain.tensors[block.output].dims)
            state = _AccState(key=key, tile=np.zeros(shape, dtype=np.float32))
            if block.softmax_over is not None:
                row_shape = tuple(
                    self.tiles[d] for d in softmax_row_dims(self.chain, block)
                )
                state.row_max = np.full(row_shape, _NEG_INF, dtype=np.float32)
                state.denom = np.zeros(row_shape, dtype=np.float32)
            cell.acc[block.name] = state
        return state

    def _einsum_tiles(self, block: ComputeBlock, operands: list[np.ndarray]) -> np.ndarray:
        ins = ",".join("".join(self.chain.tensors[t].dims) for t in block.inputs)
        out = "".join(self.chain.tensors[block.output].dims)
        return np.einsum(f"{ins}->{out}", *operands)

    def _compute(self, stmt: Statement, cell: _Cell, b: int, idx: dict[str, int]) -> None:
        block = self.chain.block(stmt.block)
        state = self._ensure_acc(block, cell, b, idx)
        operands = [self._operand_value(t, cell, b, idx) for t in block.inputs]
        if block.softmax_over is None:
            contrib = self._einsum_tiles(block, operands)
            if block.scale != 1.0:
                contrib = contrib * block.scale
            state.tile += contrib.astype(np.float32)
            return
        self._compute_online_softmax(block, state, operands, idx)

    def _compute_online_softmax(
        self,
        block: ComputeBlock,
        state: _AccState,
        operands: list[np.ndarray],
        idx: dict[str, int],
    ) -> None:
        """FlashAttention-style update: incorporate one tile of the softmax
        axis into the running (max, denominator, accumulator) triple."""
        assert state.row_max is not None and state.denom is not None
        n = block.softmax_over
        assert n is not None
        scores = operands[0]
        first_dims = self.chain.tensors[block.inputs[0]].dims
        n_axis = first_dims.index(n)
        if n_axis != len(first_dims) - 1:
            scores = np.moveaxis(scores, n_axis, -1)
        scores = np.array(scores, dtype=np.float32)
        valid_n = self._valid_extent(n, idx)
        if valid_n < scores.shape[-1]:
            scores[..., valid_n:] = _NEG_INF
        if valid_n == 0:
            return
        tile_max = scores.max(axis=-1)
        new_max = np.maximum(state.row_max, tile_max)
        correction = np.exp(state.row_max - new_max)
        correction = np.where(np.isfinite(correction), correction, 0.0).astype(np.float32)
        probs = np.exp(scores - new_max[..., None]).astype(np.float32)
        state.denom = state.denom * correction + probs.sum(axis=-1)
        if n_axis != len(first_dims) - 1:
            probs = np.moveaxis(probs, -1, n_axis)
        contrib = self._einsum_tiles(block, [probs, *operands[1:]])
        out_dims = self.chain.tensors[block.output].dims
        row_dims = softmax_row_dims(self.chain, block)
        state.tile = (
            state.tile * rows_to_tile(correction, row_dims, out_dims)
            + contrib.astype(np.float32)
        )
        state.row_max = new_max

    def _store(self, stmt: Statement, cell: _Cell, b: int, idx: dict[str, int]) -> None:
        block = self.chain.block(stmt.block)
        state = cell.acc.get(block.name)
        if state is None:
            raise InterpreterError(f"Store of {stmt.tensor!r} before any Compute")
        value = state.tile
        if block.softmax_over is not None:
            assert state.denom is not None
            denom = np.where(state.denom > 0.0, state.denom, 1.0)
            value = value / rows_to_tile(
                denom,
                softmax_row_dims(self.chain, block),
                self.chain.tensors[block.output].dims,
            )
        value = _apply_epilogue(value, block.epilogue)
        if block.scale != 1.0 and block.softmax_over is not None:
            pass  # scale belongs to the producer contraction, already applied
        dims = self.chain.tensors[stmt.tensor].dims
        dst = self.outputs[stmt.tensor][b]
        dst_slices = []
        src_slices = []
        for d in dims:
            start, stop, _ = self._tile_bounds(d, idx)
            if stop <= start:
                return
            dst_slices.append(slice(start, stop))
            src_slices.append(slice(0, stop - start))
        dst[tuple(dst_slices)] = value[tuple(src_slices)]

    # -- tree walk --------------------------------------------------------------

    def _run_scope(self, scope: LoopScope, cell: _Cell, b: int, idx: dict[str, int]) -> None:
        for item in scope.body:
            if isinstance(item, Statement):
                if item.kind == "load":
                    cell.smem[item.tensor] = self._read_tile(item.tensor, b, idx)
                elif item.kind == "compute":
                    self._compute(item, cell, b, idx)
                else:
                    self._store(item, cell, b, idx)
            else:
                assert item.loop is not None
                for i in range(item.extent):
                    idx[item.loop] = i
                    self._run_scope(item, cell, b, idx)
                del idx[item.loop]

    def run(self) -> dict[str, np.ndarray]:
        grid_loops = [(l, e) for l, e in self.s.grid_dims if l != "b"]
        for b in range(self.chain.batch):
            self._run_grid(grid_loops, {}, b)
        return self.outputs

    def _run_grid(self, remaining: list[tuple[str, int]], idx: dict[str, int], b: int) -> None:
        if not remaining:
            cell = _Cell()
            self._run_scope(self.s.root, cell, b, dict(idx))
            return
        loop, extent = remaining[0]
        for i in range(extent):
            idx[loop] = i
            self._run_grid(remaining[1:], idx, b)
        del idx[loop]


def execute_schedule(
    schedule: Schedule,
    inputs: dict[str, np.ndarray],
    backend: str = "auto",
) -> dict[str, np.ndarray]:
    """Execute a fused schedule on concrete inputs.

    ``backend`` picks the execution engine:

    * ``"scalar"``     — this module's recursive per-cell tree walker;
    * ``"vectorized"`` — the flat batched executor
      (:mod:`repro.codegen.vectorized`): one gather/einsum/scatter per
      unrolled statement, batched over all grid cells. Raises
      :class:`~repro.codegen.program.LoweringError` for programs it cannot
      express;
    * ``"compiled"``   — the native C backend
      (:mod:`repro.codegen.render_c` / :mod:`repro.codegen.clang_runtime`):
      the lowered program is rendered to C, compiled once (cached by
      source hash) and executed in-process. Raises
      :class:`~repro.codegen.program.LoweringError` when the schedule does
      not lower and :class:`~repro.codegen.render_c.RenderError` (including
      its compile-failure subclasses) when no native kernel can be built;
    * ``"auto"``       — compiled when a C compiler is present, the
      schedule renders, and the workload clears
      :data:`COMPILED_MIN_FLOPS`; else vectorized when the schedule
      lowers; else scalar (the default; all backends are differentially
      tested to agree within fp32 tolerance).

    Returns a dict with every chain *output* tensor (normally one). Raises
    :class:`InterpreterError` for schedules the pruning rules should have
    rejected (invalid orders, multi-copy buffers).
    """
    from repro.obs import get_tracer

    tracer = get_tracer()
    if not tracer.enabled:
        return _execute(schedule, inputs, backend)
    with tracer.span("exec", backend=backend) as span:
        out = _execute(schedule, inputs, backend)
        span.set(resolved=_LAST_RESOLVED.value or backend)
        return out


class _LastResolved(threading.local):
    value: str | None = None


#: Per-thread breadcrumb so the traced `exec` span can report the backend
#: that actually ran, without re-deriving the (memoized but not free)
#: resolution a second time.
_LAST_RESOLVED = _LastResolved()


def _execute(
    schedule: Schedule, inputs: dict[str, np.ndarray], backend: str
) -> dict[str, np.ndarray]:
    _LAST_RESOLVED.value = None
    decision = explain_exec_backend(schedule, backend)
    resolved = decision["resolved"]
    if resolved is None:
        _raise_unrunnable(schedule, decision)
    if decision["fallbacks"]:
        # One count per execution: the last step ``auto`` stepped down.
        last = decision["fallbacks"][-1]
        _record_fallback(last["from"], last["to"], last["reason"])
    program = None
    if resolved != "scalar":
        from repro.codegen.program import lower_schedule

        program = lower_schedule(schedule)
    return execute_resolved(schedule, program, resolved, backend, inputs)


def execute_resolved(
    schedule: Schedule,
    program,
    resolved: str,
    requested: str,
    inputs: dict[str, np.ndarray],
) -> dict[str, np.ndarray]:
    """Run an already-resolved backend on ``schedule``'s lowered ``program``.

    The shared tail of :func:`execute_schedule` and
    :meth:`~repro.codegen.runtime.OperatorModule.run` (which passes its
    cached program and resolution). It owns the one runtime fallback the
    static decision cannot foresee: a compiled kernel that fails to build
    (:class:`~repro.codegen.render_c.RenderError`, including
    :class:`~repro.codegen.clang_runtime.CompileError`) falls back to the
    vectorized executor under ``requested="auto"`` — counted as
    ``exec.fallback.compiled.render-error`` — and re-raises when the
    caller pinned ``"compiled"``.
    """
    if resolved == "scalar":
        _LAST_RESOLVED.value = "scalar"
        return _Executor(schedule, inputs).run()
    if resolved == "compiled":
        from repro.codegen.clang_runtime import execute_program_compiled
        from repro.codegen.render_c import RenderError

        try:
            _LAST_RESOLVED.value = "compiled"
            return execute_program_compiled(program, inputs)
        except RenderError as exc:
            if requested == "compiled":
                raise
            _record_fallback(
                "compiled", "vectorized", "render-error", detail=str(exc)
            )
    from repro.codegen.vectorized import execute_program

    _LAST_RESOLVED.value = "vectorized"
    return execute_program(program, inputs)


def _record_fallback(frm: str, to: str, reason: str, detail: str = "") -> None:
    """Count a backend fallback and attach it to the live span (if any).

    The counters land in the process-global obs registry:
    ``exec.fallback`` totals every fallback, and
    ``exec.fallback.<from>.<reason>`` breaks them down per skipped backend
    and reason token (``no-compiler`` / ``flops-threshold`` /
    ``not-renderable`` / ``not-lowerable`` / ``render-error``).
    """
    from repro.obs import get_metrics, get_tracer
    from repro.serving.telemetry import labeled

    registry = get_metrics()
    registry.counter(
        "exec.fallback", "executions that fell back to a slower backend"
    ).inc()
    registry.counter(labeled("exec.fallback", frm, reason)).inc()
    tracer = get_tracer()
    if tracer.enabled:
        attrs = {"from": frm, "to": to, "reason": reason}
        if detail:
            attrs["detail"] = detail
        tracer.event("exec.fallback", **attrs)


def _compiled_reason(schedule: Schedule, pinned: bool) -> str | None:
    """Why the compiled backend cannot (or, under ``auto``, should not) run
    a lowerable schedule — ``None`` when it runs, else the reason token.
    A pinned ``"compiled"`` ignores the FLOPs amortization threshold; only
    a missing toolchain or an unrenderable program actually stops it."""
    from repro.codegen.clang_runtime import compiler_available
    from repro.codegen.render_c import schedule_renderable

    if not compiler_available():
        return "no-compiler"
    if not pinned and schedule.total_flops() < COMPILED_MIN_FLOPS:
        return "flops-threshold"
    if not schedule_renderable(schedule):
        return "not-renderable"
    return None


def explain_exec_backend(schedule: Schedule, backend: str = "auto") -> dict:
    """The exec-backend decision for ``schedule``, with *why*.

    This is the single home of the compiled → vectorized → scalar policy:
    ``"auto"`` resolves to ``"compiled"`` when the schedule lowers,
    renders, a C compiler is present and the workload clears
    :data:`COMPILED_MIN_FLOPS`; to ``"vectorized"`` when the schedule
    merely lowers; and to ``"scalar"`` otherwise. Pinned backends resolve
    to themselves when they can run.

    Returns ``{"requested", "resolved", "fallbacks"}`` where ``fallbacks``
    is the ordered list of backends ``auto`` stepped past, each as
    ``{"from", "to", "reason"}`` with the same reason tokens the
    ``exec.fallback.*`` counters use (``no-compiler``,
    ``flops-threshold``, ``not-renderable``, ``not-lowerable``). It never
    raises for an explicitly pinned backend that cannot run — the failure
    becomes the resolution's ``reason`` with ``resolved`` set to ``None``
    — so callers building diagnostics (``compile_model`` detail, span
    attributes) can always get an answer; :func:`resolve_exec_backend`
    turns that case into the real error.
    """
    validate_exec_backend(backend)
    out: dict = {"requested": backend, "resolved": None, "fallbacks": []}

    def fall(frm: str, to: str, reason: str) -> None:
        out["fallbacks"].append({"from": frm, "to": to, "reason": reason})

    if backend == "scalar":
        out["resolved"] = "scalar"
        return out
    from repro.codegen.program import schedule_lowerable

    if not schedule_lowerable(schedule):
        if backend == "auto":
            fall("compiled", "vectorized", "not-lowerable")
            fall("vectorized", "scalar", "not-lowerable")
            out["resolved"] = "scalar"
        else:
            fall(backend, "none", "not-lowerable")
        return out
    if backend == "vectorized":
        out["resolved"] = "vectorized"
        return out
    reason = _compiled_reason(schedule, pinned=backend == "compiled")
    if reason is None:
        out["resolved"] = "compiled"
    elif backend == "compiled":
        fall("compiled", "none", reason)
    else:
        fall("compiled", "vectorized", reason)
        out["resolved"] = "vectorized"
    return out


def _raise_unrunnable(schedule: Schedule, decision: dict) -> None:
    """Raise the real error behind a pinned backend that cannot run."""
    from repro.codegen.clang_runtime import require_compiler
    from repro.codegen.program import lower_schedule
    from repro.codegen.render_c import render_program

    program = lower_schedule(schedule)  # LoweringError
    require_compiler()  # CompilerNotFoundError
    render_program(program)  # RenderError
    raise AssertionError(f"exec-backend decision disagreed with execution: {decision}")


def resolve_exec_backend(schedule: Schedule, backend: str = "auto") -> str:
    """The concrete backend :func:`execute_schedule` runs for ``schedule``.

    The decision is :func:`explain_exec_backend`'s. A pinned backend that
    cannot run raises exactly what execution would
    (:class:`~repro.codegen.program.LoweringError` for an unlowerable
    schedule on ``"vectorized"``/``"compiled"``,
    :class:`~repro.codegen.render_c.RenderError` /
    :class:`~repro.codegen.clang_runtime.CompilerNotFoundError` for an
    unrenderable program or missing toolchain on ``"compiled"``).
    """
    decision = explain_exec_backend(schedule, backend)
    if decision["resolved"] is None:
        _raise_unrunnable(schedule, decision)
    return decision["resolved"]
