"""MCFuser reproduction: high-performance and rapid fusion of memory-bound
compute-intensive (MBCI) operator chains — SC'24.

Quick start::

    from repro import A100, attention_chain, MCFuserTuner

    chain = attention_chain(heads=12, m=512, n=512, k=64, h=64)
    report = MCFuserTuner(A100).tune(chain)
    print(report.best_schedule.pretty())
    print(f"{report.best_time * 1e6:.1f} us, tuned in {report.tuning_seconds:.0f} simulated s")

Layers (see docs/architecture.md):

* :mod:`repro.gpu`        — the simulated hardware (A100 / RTX 3080)
* :mod:`repro.ir`         — tensor IR: graphs, operators, ComputeChain
* :mod:`repro.tiling`     — tiling expressions, schedules, DAG analysis
* :mod:`repro.search`     — pruning rules, perf model, search engine, tuner
* :mod:`repro.cache`      — persistent schedule cache + batch tuning
* :mod:`repro.codegen`    — Triton-IR / PTX / C emission + interpreter
* :mod:`repro.baselines`  — PyTorch, Relay, Ansor, BOLT, FlashAttention, Chimera
* :mod:`repro.frontend`   — model builders, partitioner, end-to-end executor
* :mod:`repro.serving`    — compile service: coalescing, cache reads, telemetry
* :mod:`repro.workloads`  — Tables II and III
* :mod:`repro.experiments`— one driver per paper figure/table
"""

from repro.cache import ScheduleCache, default_cache, workload_signature
from repro.codegen import (
    EXEC_BACKENDS,
    OperatorModule,
    compile_schedule,
    execute_schedule,
    lower_schedule,
    resolve_exec_backend,
)
from repro.config import (
    CacheConfig,
    ExecConfig,
    ObsConfig,
    SearchConfig,
    ServeConfig,
    SessionConfig,
)
from repro.frontend import bert_encoder, compile_model, partition_graph
from repro.gpu import A100, RTX3080, GPUSimulator, GPUSpec, KernelLaunch
from repro.ir import ComputeChain, Graph, attention_chain, gemm3_chain, gemm_chain
from repro.search import (
    LearnedCostModel,
    MCFuserTuner,
    MeasurementDataset,
    SearchStrategy,
    TuneReport,
    generate_space,
    make_strategy,
    register_strategy,
    schedule_features,
    strategy_names,
)
from repro.serving import CompileService, MetricsRegistry, TieredCache
from repro.session import Session
from repro.tiling import Schedule, TilingExpr, build_schedule
from repro.workloads import (
    attention_workload,
    build_workload,
    gemm_workload,
    get_workload,
    register_workload,
    workload_names,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "SessionConfig",
    "SearchConfig",
    "ExecConfig",
    "CacheConfig",
    "ServeConfig",
    "ObsConfig",
    "Session",
    "A100",
    "RTX3080",
    "GPUSpec",
    "GPUSimulator",
    "KernelLaunch",
    "ComputeChain",
    "Graph",
    "gemm_chain",
    "gemm3_chain",
    "attention_chain",
    "TilingExpr",
    "Schedule",
    "build_schedule",
    "MCFuserTuner",
    "TuneReport",
    "generate_space",
    "LearnedCostModel",
    "MeasurementDataset",
    "schedule_features",
    "SearchStrategy",
    "register_strategy",
    "make_strategy",
    "strategy_names",
    "ScheduleCache",
    "default_cache",
    "workload_signature",
    "CompileService",
    "TieredCache",
    "MetricsRegistry",
    "OperatorModule",
    "compile_schedule",
    "execute_schedule",
    "resolve_exec_backend",
    "lower_schedule",
    "EXEC_BACKENDS",
    "bert_encoder",
    "compile_model",
    "partition_graph",
    "gemm_workload",
    "attention_workload",
    "build_workload",
    "get_workload",
    "register_workload",
    "workload_names",
]
