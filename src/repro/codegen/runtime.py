"""Runtime modules: compiled-kernel objects the front-end executes (§V-B).

``OperatorModule`` is the TVM-runtime-module equivalent: one fused MBCI
kernel, runnable on concrete tensors (via the NumPy interpreter) and
timeable on a GPU (via the simulator), with its generated Triton source
and pseudo-PTX attached. ``GraphExecutorFactoryModule`` assembles operator
modules plus library kernels into an executable whole-model artifact.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.cache.signature import schedule_signature
from repro.codegen.interpreter import (
    _raise_unrunnable,
    execute_resolved,
    execute_schedule,
    explain_exec_backend,
    validate_exec_backend,
)
from repro.codegen.program import TileProgram, lower_schedule
from repro.codegen.ptx import emit_ptx, emit_ptx_from_program
from repro.codegen.triton_ir import (
    TritonProgram,
    triton_from_program,
    triton_from_schedule,
)
from repro.gpu.kernel import KernelLaunch
from repro.gpu.simulator import GPUSimulator
from repro.gpu.specs import GPUSpec
from repro.tiling.schedule import Schedule
from repro.utils import LRUCache

__all__ = [
    "OperatorModule",
    "GraphExecutorFactoryModule",
    "compile_schedule",
    "defer_native_build",
    "KernelCacheStats",
    "kernel_cache_stats",
    "clear_kernel_cache",
]


@dataclass
class OperatorModule:
    """A compiled fused MBCI kernel bound to one GPU.

    ``exec_backend`` selects how :meth:`run` executes the schedule
    numerically (``"auto"``/``"compiled"``/``"vectorized"``/``"scalar"`` —
    see :func:`~repro.codegen.interpreter.execute_schedule`);
    :attr:`resolved_exec_backend` reports the concrete engine ``auto``
    picks for this schedule.
    """

    schedule: Schedule
    gpu: GPUSpec
    codegen: str = "triton"
    exec_backend: str = "auto"

    def __post_init__(self) -> None:
        validate_exec_backend(self.exec_backend)

    @cached_property
    def kernel(self) -> KernelLaunch:
        return self.schedule.kernel_launch(self.gpu, codegen=self.codegen)

    @cached_property
    def program(self) -> "TileProgram | None":
        """The lowered batched tile program, cached for the life of the
        module (``None`` when the backend resolves to scalar)."""
        if self.resolved_exec_backend == "scalar":
            return None
        return lower_schedule(self.schedule)

    @cached_property
    def decision(self) -> dict:
        """The :func:`~repro.codegen.interpreter.explain_exec_backend`
        decision ``run`` executes: the backend ``auto`` resolved to and
        why it stepped down, derived once per module."""
        return explain_exec_backend(self.schedule, self.exec_backend)

    @property
    def resolved_exec_backend(self) -> str:
        """The concrete executor ``run`` uses (``auto`` resolved); a pinned
        backend that cannot run raises what execution would."""
        resolved = self.decision["resolved"]
        if resolved is None:
            _raise_unrunnable(self.schedule, self.decision)
        return resolved

    @cached_property
    def triton(self) -> TritonProgram:
        """The tile-level Triton program this module was generated from
        (emitted from the lowered flat program when one exists, so the
        source is validated against what actually executes)."""
        if self.program is not None:
            return triton_from_program(self.program)
        return triton_from_schedule(self.schedule)

    @cached_property
    def ptx(self) -> str:
        """Pseudo-PTX listing (what ``loadfile_ptx`` would ingest)."""
        if self.program is not None:
            return emit_ptx_from_program(self.program, self.gpu)
        return emit_ptx(self.schedule, self.gpu)

    def run(
        self, inputs: dict[str, np.ndarray], backend: str | None = None
    ) -> dict[str, np.ndarray]:
        """Execute on concrete tensors under :attr:`resolved_exec_backend`.

        Repeated runs reuse the module's cached lowered program and backend
        decision instead of re-deriving them every call; an explicit
        ``backend`` override bypasses the cache. The first run in the
        process starts every deferred native build
        (:func:`defer_native_build`), this module's first.
        """
        if _DEFERRED:
            _start_deferred_builds(self)
        if backend is not None and backend != self.exec_backend:
            return execute_schedule(self.schedule, inputs, backend=backend)
        program = self.program  # raises first when the backend cannot run
        return execute_resolved(self.schedule, program, self.decision, inputs)

    def time(self, simulator: GPUSimulator | None = None) -> float:
        """Simulated execution time in seconds."""
        sim = simulator or GPUSimulator(self.gpu)
        return sim.run(self.kernel)

    @property
    def name(self) -> str:
        return self.kernel.name


#: Compiled-backend modules whose native build waits for the first run in
#: the process: ``id(module) -> (weak ref, trace span that deferred it)``.
#: An entry leaves when its module dies or the builds start.
_DEFERRED: dict[int, tuple[weakref.ref, object]] = {}
_DEFERRED_LOCK = threading.Lock()


def defer_native_build(module: OperatorModule) -> None:
    """Build ``module``'s native kernel once anything in this process runs.

    A no-op unless the module resolves to the ``compiled`` backend. The
    first :meth:`OperatorModule.run` in the process hands every deferred
    kernel to :meth:`~repro.codegen.clang_runtime.ClangRuntime.prefetch`,
    so the ``cc`` builds of all the kernels compiled so far run in
    parallel instead of one per first run; a process that compiles but
    never runs (an experiment that only reports simulated time) starts no
    ``cc`` at all. Each build's trace span is parented to the span live
    here, e.g. the ``compile.model`` that deferred it.
    """
    if module.resolved_exec_backend != "compiled":
        return
    from repro.obs import get_tracer

    key = id(module)
    # The callback takes no lock: GC may run it while the lock is held.
    ref = weakref.ref(module, lambda _, key=key: _DEFERRED.pop(key, None))
    with _DEFERRED_LOCK:
        _DEFERRED.setdefault(key, (ref, get_tracer().current()))


def _start_deferred_builds(first: OperatorModule) -> None:
    from repro.codegen.clang_runtime import get_runtime
    from repro.codegen.render_c import render_program

    with _DEFERRED_LOCK:
        entries = dict(_DEFERRED)
        _DEFERRED.clear()
    head = entries.pop(id(first), None)
    runtime = get_runtime()
    for ref, parent in ([head] if head else []) + list(entries.values()):
        module = ref()
        if module is not None:
            runtime.prefetch(render_program(module.program), parent=parent)


@dataclass
class KernelCacheStats:
    """Counters of the in-process compiled-kernel memo."""

    hits: int = 0
    misses: int = 0
    entries: int = 0


#: Process-wide memo of compiled modules, keyed by the same content
#: signature the schedule cache uses (chain structure + GPU + tiling
#: decision). Compiling the "same" fused kernel twice — e.g. every
#: attention layer of a model, or a model recompiled from a cache-hit
#: schedule — returns one shared OperatorModule, so its lazily generated
#: Triton program and PTX are produced once. Bounded LRU: long-lived
#: processes compiling many shapes must not grow without limit.
KERNEL_MEMO_CAPACITY = 256
_KERNEL_MEMO = LRUCache(capacity=KERNEL_MEMO_CAPACITY)
_KERNEL_STATS = KernelCacheStats()


def compile_schedule(
    schedule: Schedule,
    gpu: GPUSpec,
    exec_backend: str = "auto",
) -> OperatorModule:
    """Compile a tuned schedule into a runnable operator module.

    Consults the process-wide kernel memo: a schedule whose content
    signature (chain + GPU + expression + tiles) was compiled before
    returns the existing module instead of a fresh one. Modules are
    immutable-by-convention, so sharing is safe. ``exec_backend``
    configures how the module executes numerically (memo entries are keyed
    per backend so a scalar-pinned module is never served to an ``auto``
    caller).
    """
    from repro.obs import get_tracer

    with get_tracer().span("compile.schedule", backend=exec_backend) as span:
        key = (schedule_signature(schedule, gpu), exec_backend)
        module = _KERNEL_MEMO.get(key)
        if module is None:
            _KERNEL_STATS.misses += 1
            span.set(memo="miss")
            module = OperatorModule(
                schedule=schedule, gpu=gpu, exec_backend=exec_backend
            )
            _KERNEL_MEMO.put(key, module)
        else:
            _KERNEL_STATS.hits += 1
            span.set(memo="hit")
        return module


def kernel_cache_stats() -> KernelCacheStats:
    """Snapshot of the kernel-memo counters (entries reflects current size)."""
    return KernelCacheStats(
        hits=_KERNEL_STATS.hits,
        misses=_KERNEL_STATS.misses,
        entries=len(_KERNEL_MEMO),
    )


def clear_kernel_cache() -> None:
    """Drop all memoized modules and their deferred native builds, and
    reset the counters."""
    with _DEFERRED_LOCK:
        _DEFERRED.clear()
    _KERNEL_MEMO.clear()
    _KERNEL_STATS.hits = 0
    _KERNEL_STATS.misses = 0


@dataclass
class GraphExecutorFactoryModule:
    """Whole-model executable: an ordered plan of kernel launches.

    ``plan`` entries are (description, KernelLaunch) pairs; MBCI sub-graphs
    contribute their fused kernels, everything else contributes library or
    compiler-generated kernels. ``time`` runs the plan on a simulator.
    """

    name: str
    gpu: GPUSpec
    plan: list[tuple[str, KernelLaunch]] = field(default_factory=list)
    operator_modules: list[OperatorModule] = field(default_factory=list)

    def add(self, description: str, kernel: KernelLaunch) -> None:
        self.plan.append((description, kernel))

    def add_module(self, module: OperatorModule) -> None:
        self.operator_modules.append(module)
        self.plan.append((f"mcfuser:{module.name}", module.kernel))

    def time(self, simulator: GPUSimulator | None = None) -> float:
        sim = simulator or GPUSimulator(self.gpu)
        return sim.run_sequence(k for _, k in self.plan)

    def kernel_count(self) -> int:
        return len(self.plan)

    def breakdown(self, simulator: GPUSimulator | None = None) -> list[tuple[str, float]]:
        """Per-launch timing, for profiling-style reports."""
        sim = simulator or GPUSimulator(self.gpu)
        return [(desc, sim.run(k)) for desc, k in self.plan]
