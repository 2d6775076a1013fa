"""Code generation: tile-program lowering, Triton-style tile IR, pseudo-PTX
emission, runtime modules, and the execution backends — the scalar tile interpreter,
the vectorized batched tile executor, and the native compiled C backend —
that verify numerical correctness of every fused schedule."""

from repro.codegen.clang_runtime import (
    ClangRuntime,
    CompileError,
    CompilerNotFoundError,
    compiler_available,
    execute_program_compiled,
    get_runtime,
)
from repro.codegen.interpreter import (
    COMPILED_MIN_FLOPS,
    EXEC_BACKENDS,
    InterpreterError,
    execute_schedule,
    resolve_exec_backend,
)
from repro.codegen.program import LoweringError, TileOp, TileProgram, lower_schedule
from repro.codegen.render_c import (
    RenderedKernel,
    RenderError,
    render_program,
    schedule_renderable,
)
from repro.codegen.ptx import emit_ptx, emit_ptx_from_program, mma_count_for_tile
from repro.codegen.runtime import (
    GraphExecutorFactoryModule,
    KernelCacheStats,
    OperatorModule,
    clear_kernel_cache,
    compile_schedule,
    kernel_cache_stats,
)
from repro.codegen.triton_ir import (
    TritonLoop,
    TritonOp,
    TritonProgram,
    triton_from_program,
    triton_from_schedule,
)

__all__ = [
    "execute_schedule",
    "resolve_exec_backend",
    "EXEC_BACKENDS",
    "COMPILED_MIN_FLOPS",
    "InterpreterError",
    "LoweringError",
    "RenderError",
    "RenderedKernel",
    "render_program",
    "schedule_renderable",
    "CompileError",
    "CompilerNotFoundError",
    "ClangRuntime",
    "compiler_available",
    "execute_program_compiled",
    "get_runtime",
    "lower_schedule",
    "TileProgram",
    "TileOp",
    "triton_from_schedule",
    "triton_from_program",
    "TritonProgram",
    "TritonLoop",
    "TritonOp",
    "emit_ptx",
    "emit_ptx_from_program",
    "mma_count_for_tile",
    "OperatorModule",
    "GraphExecutorFactoryModule",
    "compile_schedule",
    "KernelCacheStats",
    "kernel_cache_stats",
    "clear_kernel_cache",
]
