"""End-to-end compilation and execution of whole models (§V-B, Fig. 9).

``compile_model`` lowers a :class:`Graph` to a
:class:`GraphExecutorFactoryModule` under one of the paper's strategies:

* ``pytorch``       — eager per-op library kernels (+ dispatch overhead);
* ``relay``         — template kernels with epilogue fusion;
* ``ansor``         — per-op auto-tuned kernels (hours of tuning);
* ``bolt``          — Relay + CUTLASS epilogue-fused GEMMs;
* ``mcfuser+relay`` — MBCI sub-graphs fused by MCFuser, rest on Relay;
* ``mcfuser+ansor`` — MBCI sub-graphs fused by MCFuser, rest on Ansor.

Each strategy also charges a simulated tuning clock, reproducing the
Table IV end-to-end columns. Identical MBCI sub-graphs (all L attention
layers of a BERT share one shape) are tuned once and the kernel reused.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.baselines.library import (
    elementwise_kernel,
    gemm_kernel,
    normalization_kernel,
    softmax_kernel,
    transpose_kernel,
)
from repro.codegen.runtime import GraphExecutorFactoryModule, OperatorModule, compile_schedule
from repro.config import SessionConfig
from repro.frontend.partition import Partition, partition_graph
from repro.gpu.kernel import KernelLaunch
from repro.gpu.simulator import GPUSimulator
from repro.gpu.specs import GPUSpec, by_name
from repro.ir.graph import Graph, GraphNode
from repro.ir.ops import (
    Activation,
    Add,
    BatchMatmul,
    BiasAdd,
    Dense,
    LayerNorm,
    Reshape,
    Scale,
    Softmax,
    Transpose,
)
from repro.search.tuner import MCFuserTuner
from repro.search.tuning_cost import TuningClock
from repro.utils import prod

if TYPE_CHECKING:  # pragma: no cover
    from repro.cache.cache import ScheduleCache
    from repro.serving.service import CompileService

__all__ = ["E2EResult", "compile_model", "STRATEGIES"]

STRATEGIES = ("pytorch", "relay", "ansor", "bolt", "mcfuser+relay", "mcfuser+ansor")

#: Eager-mode dispatch overhead (matches the subgraph PyTorch baseline).
_EAGER_OVERHEAD = 7.0e-6

#: Per-operator compile charge of the Relay build (seconds).
_RELAY_PER_OP = 0.3

#: Ansor end-to-end: measurement trials per distinct tuning task.
_ANSOR_TRIALS_PER_TASK = 240


@dataclass
class E2EResult:
    """Compiled model + accounting for one strategy."""

    strategy: str
    module: GraphExecutorFactoryModule
    time: float
    tuning_seconds: float
    kernel_count: int
    mbci_subgraphs: int = 0
    detail: dict = field(default_factory=dict)


def _epilogue_groups(nodes: list[GraphNode]) -> dict[str, list[GraphNode]]:
    """Group BiasAdd/Activation/Scale nodes onto their producing GEMM
    (epilogue fusion for the compiled strategies)."""
    by_output = {n.output: n for n in nodes}
    groups: dict[str, list[GraphNode]] = {}
    absorbed: set[str] = set()
    for node in nodes:
        if not isinstance(node.op, (Dense, BatchMatmul)):
            continue
        chain: list[GraphNode] = []
        cur = node
        while True:
            consumers = [n for n in nodes if cur.output in n.inputs]
            if len(consumers) != 1:
                break
            nxt = consumers[0]
            if isinstance(nxt.op, (BiasAdd, Activation, Scale)) and nxt.inputs[0] == cur.output:
                chain.append(nxt)
                cur = nxt
            else:
                break
        groups[node.output] = chain
        absorbed.update(n.output for n in chain)
    return groups


def _op_kernel(
    graph: Graph, node: GraphNode, gpu: GPUSpec, codegen: str, seed: int
) -> KernelLaunch | None:
    """Lower one residual operator to a library-style kernel launch."""
    op = node.op
    shapes = graph.shapes
    out_shape = shapes[node.output]
    if isinstance(op, Dense):
        x, w = shapes[op.inputs[0]], shapes[op.inputs[1]]
        m = int(prod(x[:-1]))
        return gemm_kernel(node.output, 1, m, w[1], w[0], gpu, codegen, seed)
    if isinstance(op, BatchMatmul):
        b, m, n = out_shape
        a_shape = shapes[op.inputs[0]]
        k = a_shape[1] if op.transpose_a else a_shape[2]
        return gemm_kernel(node.output, b, m, n, k, gpu, codegen, seed)
    if isinstance(op, Softmax):
        lead = int(prod(out_shape[:-1]))
        return softmax_kernel(node.output, 1, lead, out_shape[-1], gpu, codegen)
    if isinstance(op, LayerNorm):
        rows = int(prod(out_shape[:-1]))
        return normalization_kernel(node.output, rows, out_shape[-1], gpu, codegen)
    if isinstance(op, (Add, BiasAdd, Scale)):
        return elementwise_kernel(
            node.output, int(prod(out_shape)), gpu, 1.0, len(op.inputs), codegen
        )
    if isinstance(op, Activation):
        cost = 8.0 if op.fn == "gelu" else 1.0
        return elementwise_kernel(node.output, int(prod(out_shape)), gpu, cost, 1, codegen)
    if isinstance(op, Transpose):
        if op.axes[-1] == len(op.axes) - 1:
            return None  # batch permute: a strided view, consumed by batched GEMM
        return transpose_kernel(node.output, int(prod(out_shape)), gpu, codegen)
    if isinstance(op, Reshape):
        producer = graph.producer(op.inputs[0])
        if (
            producer is not None
            and isinstance(producer.op, Transpose)
            and producer.op.axes != tuple(range(len(producer.op.axes)))
        ):
            # reshape of a permuted view forces a contiguous copy
            return transpose_kernel(node.output, int(prod(out_shape)), gpu, codegen)
        return None  # pure view: no kernel
    raise NotImplementedError(f"no kernel lowering for {op.kind}")


def _distinct_tuning_tasks(nodes: list[GraphNode], graph: Graph) -> int:
    """Number of distinct (op kind, shape) tuning tasks Ansor would create."""
    tasks = set()
    for node in nodes:
        if isinstance(node.op, (Reshape,)):
            continue
        sig = (node.op.kind, tuple(graph.shape(t) for t in node.inputs))
        tasks.add(sig)
    return len(tasks)


def compile_model(
    graph: Graph | str,
    gpu: "GPUSpec | None" = None,
    strategy: str = "mcfuser+relay",
    *,
    config: "SessionConfig | None" = None,
    cache: "ScheduleCache | None" = None,
    service: "CompileService | None" = None,
    cost_model=None,
) -> E2EResult:
    """Compile (and price the tuning of) a whole model under a strategy.

    ``graph`` may be a :class:`Graph` or the name of a model-level workload
    from the registry (``"ffn-base"``, ``"gqa-32x8"``, ``"bert-small"``,
    ...; see :mod:`repro.workloads.zoo`). ``gpu=None`` resolves the
    registered spec named by ``config.gpu``.

    ``config`` (a validated :class:`~repro.config.SessionConfig`;
    ``None`` means ``SessionConfig()``) sets every tuning/execution knob.
    The compilation *strategy* argument is not a config knob: it selects
    which compiler stack handles which part of the graph.

    ``cache`` (a :class:`~repro.cache.cache.ScheduleCache`) makes MBCI
    sub-graph tuning persistent: a model recompiled in a later process pays
    zero tuning time for every shape the cache already holds. Within one
    call, identically shaped sub-graphs are deduplicated by workload
    signature regardless of caching. ``detail["cache_hits"]`` counts the
    distinct shapes served from the cache; for MCFuser strategies,
    ``detail["rejections"]`` histograms why unfused anchors stayed residual.

    ``config.search.strategy``/``config.search.workers`` select how each
    MBCI sub-graph is tuned (the engine's registered search strategies and
    the per-round measurement pool width).

    ``config.exec.backend`` picks the numeric execution engine compiled
    MBCI modules run under (``"auto"``/``"compiled"``/``"vectorized"``/
    ``"scalar"``; see
    :func:`repro.codegen.interpreter.execute_schedule`);
    ``detail["exec_backend"]`` histograms the backend ``auto`` resolved for
    each fused module (e.g. ``{"vectorized": 12}``).

    ``service`` (a :class:`~repro.serving.service.CompileService`) routes
    MBCI sub-graph tuning through the compile service instead of a private
    tuner: every fusion group is submitted with ``config`` as its
    per-request config, requests coalesce with other callers of the same
    service, hit its tiered cache, and show up in its telemetry. The
    service owns the cache and cost model in that mode (the ``cache`` and
    ``cost_model`` arguments are ignored) and must target the same
    ``gpu``. ``detail["served"]`` histograms the per-sub-graph outcome
    sources (``tuned``/``coalesced``/``hot``/...), and
    ``detail["cache_hits"]`` counts sub-graph *requests* served from a
    cache tier. To inherit the service's own knobs, pass
    ``config=service.config`` (or an ``evolve`` of it).

    ``cost_model``/``config.search.measure_topk`` enable
    learned-cost-model-guided tuning of the MBCI sub-graphs (measure only
    the model's predicted top-k per search round; see
    :class:`~repro.search.cost_model.LearnedCostModel`). One model is
    shared across all of a model's sub-graphs, so learning compounds
    shape-to-shape within the compile.

    ``config.exec.dynamic="buckets"`` makes MBCI sub-graph tuning
    shape-generic over power-of-two sequence-length buckets
    (``config.exec.dynamic_loops``, default ``("m", "n")``): in-bucket
    sub-graphs of *different* lengths dedupe to one ceiling tune, and each
    compiled module runs the ceiling schedule at its own shape with tail
    tiles masked. Through a ``service`` the service itself must have been
    built with the same ``dynamic`` mode (bucketing changes its cache keys
    and coalescing).
    """
    if isinstance(graph, str):
        from repro.workloads.registry import get_workload

        spec = get_workload(graph)
        if spec.level != "model":
            raise ValueError(
                f"workload {spec.name!r} is a {spec.level}-level workload; "
                "compile_model needs a model (tune chains with MCFuserTuner)"
            )
        graph = spec.build()
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; pick from {STRATEGIES}")
    config = config if config is not None else SessionConfig()
    if gpu is None:
        gpu = by_name(config.gpu)
    from repro.obs import get_tracer

    with get_tracer().span(
        "compile.model", model=graph.name, strategy=strategy
    ) as span:
        return _compile_model(
            graph, gpu, strategy, cache, service, cost_model, config, span
        )


def _compile_model(graph, gpu, strategy, cache, service, cost_model, config, span):
    """The validated body of :func:`compile_model`, running inside its
    ``compile.model`` root span (``span`` — the no-op singleton when
    tracing is disabled)."""
    from repro.obs import get_tracer

    search = config.search
    seed = search.seed
    exec_backend = config.exec.backend
    dynamic = config.exec.dynamic
    tracer = get_tracer()
    clock = TuningClock()
    module = GraphExecutorFactoryModule(name=f"{graph.name}:{strategy}", gpu=gpu)
    sim = GPUSimulator(gpu, seed=seed)

    use_mcfuser = strategy.startswith("mcfuser")
    backend = strategy.split("+")[-1] if use_mcfuser else strategy
    codegen = {
        "pytorch": "cublas",
        "relay": "relay",
        "ansor": "ansor_op",
        "bolt": "relay",
    }[backend]
    fuse_epilogues = backend in ("relay", "ansor", "bolt")

    # 1. Partition: MBCI sub-graphs go to MCFuser (deduplicated by workload
    #    signature in-process; persistent across processes with a cache).
    mbci_nodes: set[str] = set()
    n_subgraphs = 0
    cache_hits = 0
    rejections: dict[str, int] = {}
    served: dict[str, int] = {}
    if use_mcfuser and service is not None:
        if service.gpu != gpu:
            raise ValueError(
                f"service targets {service.gpu.name}, compile_model asked for "
                f"{gpu.name}; one service serves one GPU"
            )
        if dynamic != "off" and service.dynamic != dynamic:
            raise ValueError(
                f"compile_model asked for dynamic={dynamic!r} but the service "
                f"was built with dynamic={service.dynamic!r}; bucketing changes "
                "the service's cache keys and coalescing, so configure it there"
            )
        with tracer.span("partition", clock=clock, model=graph.name) as psp:
            clock.charge("graph_partition")
            partition = partition_graph(graph, gpu)
            psp.set(subgraphs=len(partition.subgraphs))
        rejections = partition.rejection_reasons()
        # Submit every group up front (identical shapes coalesce or hit the
        # service's tiered cache), then collect in partition order.
        tickets = [
            service.submit(sg.chain, config=config) for sg in partition.subgraphs
        ]
        for sg, ticket in zip(partition.subgraphs, tickets):
            result = ticket.result()
            served[result.source] = served.get(result.source, 0) + 1
            if result.source == "tuned":
                # coalesced riders share the tune; bill its cost once.
                clock.seconds += result.report.tuning_seconds
            cache_hits += result.source in ("hot", "memory", "disk", "bucket")
            module.add_module(
                compile_schedule(
                    result.report.best_schedule, gpu, exec_backend=exec_backend
                )
            )
            mbci_nodes.update(sg.nodes)
            n_subgraphs += 1
        residual_nodes = [n for n in graph.nodes if n.output not in mbci_nodes]
    elif use_mcfuser:
        with tracer.span("partition", clock=clock, model=graph.name) as psp:
            clock.charge("graph_partition")
            partition: Partition = partition_graph(graph, gpu)
            psp.set(subgraphs=len(partition.subgraphs))
        rejections = partition.rejection_reasons()
        tuned: dict[str, OperatorModule] = {}
        if cost_model is None and (search.measure_topk > 0 or search.cost_model):
            from repro.search.cost_model import LearnedCostModel

            # one shared model: sub-graph tunes feed one dataset.
            cost_model = LearnedCostModel(seed=seed)
        if dynamic == "buckets" and cache is None:
            from repro.cache.cache import ScheduleCache

            # In-process bucket store: in-bucket sub-graphs of different
            # lengths dedupe to one ceiling tune even without a user cache.
            cache = ScheduleCache(path=None)
        for sg in partition.subgraphs:
            # Compiled modules are memoized by the *exact* signature even
            # under bucketing — a module is bound to its output shapes; the
            # tuner's bucketed cache ladder dedupes the tuning instead.
            key = sg.signature(gpu, config.variant_key)
            if key not in tuned:
                tuner = MCFuserTuner(
                    gpu, cache=cache, cost_model=cost_model, config=config
                )
                report = tuner.tune(sg.chain)
                clock.seconds += report.tuning_seconds
                cache_hits += int(report.cache_hit)
                if getattr(report, "bucket_hit", False):
                    served["bucket"] = served.get("bucket", 0) + 1
                # compile through the kernel memo: a model recompiled (or a
                # second model sharing this shape) reuses the same module.
                tuned[key] = compile_schedule(
                    report.best_schedule, gpu, exec_backend=exec_backend
                )
            module.add_module(tuned[key])
            mbci_nodes.update(sg.nodes)
            n_subgraphs += 1
        residual_nodes = [n for n in graph.nodes if n.output not in mbci_nodes]
    else:
        residual_nodes = list(graph.nodes)

    # 2. Residual operators on the backend compiler/library.
    eager_ops = 0
    groups = _epilogue_groups(residual_nodes) if fuse_epilogues else {}
    absorbed: set[str] = set()
    for anchor, eps in groups.items():
        absorbed.update(n.output for n in eps)
    for node in residual_nodes:
        if node.output in absorbed:
            continue
        node_codegen = codegen
        if backend == "bolt" and isinstance(node.op, (Dense, BatchMatmul)) and groups.get(node.output):
            node_codegen = "cutlass"  # BOLT's epilogue-fused CUTLASS GEMMs
        kernel = _op_kernel(graph, node, gpu, node_codegen, seed)
        if kernel is None:
            continue
        module.add(f"{backend}:{node.output}", kernel)
        eager_ops += 1

    # 3. Timing.
    with tracer.span("execute.model", kernels=module.kernel_count()) as esp:
        time = module.time(sim)
        if backend == "pytorch":
            time += _EAGER_OVERHEAD * eager_ops
        esp.set(model_time=time)

    # 4. Tuning-cost accounting for the backend.
    n_ops = len([n for n in residual_nodes if not isinstance(n.op, Reshape)])
    if backend in ("relay", "bolt"):
        clock.charge("relay_compile")
        clock.seconds += _RELAY_PER_OP * n_ops
        if backend == "bolt":
            fusable = sum(1 for eps in groups.values() if eps)
            clock.charge("bolt_template", count=12 * max(1, fusable // 4))
    elif backend == "ansor":
        tasks = _distinct_tuning_tasks(residual_nodes, graph)
        clock.charge("ansor_trial", count=tasks * _ANSOR_TRIALS_PER_TASK)
        clock.charge("ansor_train_round", count=tasks * _ANSOR_TRIALS_PER_TASK / 64)

    # Per-module exec-backend breadcrumb: which engine `auto` resolved to
    # for each fused kernel (resolution is memoized on the module), plus
    # why any module fell back down the compiled → vectorized → scalar
    # chain (reason histogram, e.g. {"no-compiler": 12}).
    from repro.codegen.interpreter import explain_exec_backend

    exec_backends: dict[str, int] = {}
    fallbacks: dict[str, int] = {}
    for op_module in module.operator_modules:
        resolved = op_module.resolved_exec_backend
        exec_backends[resolved] = exec_backends.get(resolved, 0) + 1
        for fb in explain_exec_backend(
            op_module.schedule, op_module.exec_backend
        )["fallbacks"]:
            fallbacks[fb["reason"]] = fallbacks.get(fb["reason"], 0) + 1

    span.set(
        subgraphs=n_subgraphs,
        kernels=module.kernel_count(),
        model_time=time,
        sim_tuning_seconds=clock.seconds,
    )
    return E2EResult(
        strategy=strategy,
        module=module,
        time=time,
        tuning_seconds=clock.seconds,
        kernel_count=module.kernel_count(),
        mbci_subgraphs=n_subgraphs,
        detail={
            "residual_ops": n_ops,
            "eager_ops": eager_ops,
            "cache_hits": cache_hits,
            "rejections": rejections,
            "served": served,
            "exec_backend": exec_backends,
            "fallbacks": fallbacks,
        },
    )
