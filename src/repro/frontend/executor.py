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

from contextlib import ExitStack
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.baselines.library import (
    elementwise_kernel,
    gemm_kernel,
    normalization_kernel,
    softmax_kernel,
    transpose_kernel,
)
from repro.codegen.runtime import (
    GraphExecutorFactoryModule,
    compile_schedule,
    defer_native_build,
)
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
from repro.search.tuning_cost import TuningClock
from repro.serving.service import CompileService
from repro.utils import prod

if TYPE_CHECKING:  # pragma: no cover
    from repro.cache.cache import ScheduleCache

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
    graph: Graph, node: GraphNode, gpu: GPUSpec, codegen: str
) -> KernelLaunch | None:
    """Lower one residual operator to a library-style kernel launch."""
    op = node.op
    shapes = graph.shapes
    out_shape = shapes[node.output]
    if isinstance(op, Dense):
        x, w = shapes[op.inputs[0]], shapes[op.inputs[1]]
        m = int(prod(x[:-1]))
        return gemm_kernel(node.output, 1, m, w[1], w[0], gpu, codegen)
    if isinstance(op, BatchMatmul):
        b, m, n = out_shape
        a_shape = shapes[op.inputs[0]]
        k = a_shape[1] if op.transpose_a else a_shape[2]
        return gemm_kernel(node.output, b, m, n, k, gpu, codegen)
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

    ``config.search.strategy``/``config.search.workers`` select how each
    MBCI sub-graph is tuned (the engine's registered search strategies and
    the per-round measurement pool width).

    ``config.exec.backend`` picks the numeric execution engine compiled
    MBCI modules run under (``"auto"``/``"compiled"``/``"vectorized"``/
    ``"scalar"``; see
    :func:`repro.codegen.interpreter.execute_schedule`);
    ``detail["exec_backend"]`` histograms the backend ``auto`` resolved for
    each fused module (e.g. ``{"vectorized": 12}``). The native ``cc``
    builds of modules that resolve to ``"compiled"`` are deferred
    (:func:`~repro.codegen.runtime.defer_native_build`): compiling alone
    runs no ``cc``, and the first module run in the process starts all of
    them in parallel.

    MBCI sub-graphs are tuned through a compile service: every fusion
    group is submitted with ``config`` as its per-request config, so
    identical shapes coalesce onto one tune or hit the schedule cache, and
    distinct shapes tune on ``config.serve.workers`` threads. ``service``
    (a :class:`~repro.serving.service.CompileService` on the same ``gpu``)
    shares a long-lived service, which then owns the cache and cost model
    (``cache`` is ignored; pass ``config=service.config`` to inherit its
    knobs). Without one, a service is opened over ``cache`` (a
    :class:`~repro.cache.cache.ScheduleCache`; ``None`` means an in-memory
    store) for the call and closed when it returns or raises. A persistent
    cache makes a recompile in a later process pay zero tuning time for
    every shape it holds; the service reads it without recording hits or
    misses. ``config.search.cost_model`` or ``config.search.measure_topk``
    enables learned-cost-model-guided tuning (see
    :class:`~repro.search.cost_model.LearnedCostModel`): the service's one
    model learns from every sub-graph tune, in completion order when
    ``config.serve.workers > 1``; :meth:`repro.session.Session.compile`
    shares the session's persistent model.

    For MCFuser strategies, ``detail["served"]`` histograms the
    per-sub-graph request outcomes
    (``tuned``/``coalesced``/``hot``/``bucket``), ``detail["cache_hits"]``
    counts the sub-graph *requests* served from the cache (``hot`` plus
    ``bucket``), and ``detail["rejections"]`` histograms why unfused
    anchors stayed residual.

    ``config.exec.dynamic="buckets"`` makes MBCI sub-graph tuning
    shape-generic over power-of-two sequence-length buckets
    (``config.exec.dynamic_loops``, default ``("m", "n")``): in-bucket
    sub-graphs of *different* lengths dedupe to one ceiling tune, and each
    compiled module runs the ceiling schedule at its own shape with tail
    tiles masked. A caller's ``service`` must have been built with the
    same ``dynamic`` mode (bucketing changes its cache keys and
    coalescing).
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
            graph, gpu, strategy, cache, service, config, span
        )


def _compile_model(graph, gpu, strategy, cache, service, config, span):
    """The validated body of :func:`compile_model`, running inside its
    ``compile.model`` root span (``span`` — the no-op singleton when
    tracing is disabled)."""
    from repro.obs import get_tracer

    seed = config.search.seed
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

    # 1. Partition: MBCI sub-graphs go to MCFuser through a compile service
    #    (identical shapes coalesce or hit its schedule cache, so each is
    #    tuned once; persistent across processes with a cache).
    mbci_nodes: set[str] = set()
    n_subgraphs = 0
    cache_hits = 0
    rejections: dict[str, int] = {}
    served: dict[str, int] = {}
    if use_mcfuser:
        if service is not None:
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
            partition: Partition = partition_graph(graph, gpu)
            psp.set(subgraphs=len(partition.subgraphs))
        rejections = partition.rejection_reasons()
        # Submit every group up front (identical shapes coalesce or hit the
        # service's schedule cache), then collect in partition order. The
        # wait is spanned so compile.model's children cover its wall-clock;
        # a service opened here lives only for this call.
        with ExitStack() as stack:
            stack.enter_context(
                tracer.span(
                    "compile.subgraphs", clock=clock, subgraphs=len(partition.subgraphs)
                )
            )
            if service is None:
                service = stack.enter_context(
                    CompileService(gpu, cache, config=config)
                )
            tickets = [
                service.submit(sg.chain, config=config) for sg in partition.subgraphs
            ]
            results = [ticket.result() for ticket in tickets]
        for sg, result in zip(partition.subgraphs, results):
            served[result.source] = served.get(result.source, 0) + 1
            if result.source == "tuned":
                # coalesced riders share the tune; bill its cost once.
                clock.seconds += result.report.tuning_seconds
            cache_hits += result.source in ("hot", "bucket")
            # compile through the kernel memo: a repeated shape (or a
            # second model sharing it) reuses the same module.
            op_module = compile_schedule(
                result.report.best_schedule, gpu, exec_backend=exec_backend
            )
            defer_native_build(op_module)
            module.add_module(op_module)
            mbci_nodes.update(sg.nodes)
            n_subgraphs += 1
    residual_nodes = [n for n in graph.nodes if n.output not in mbci_nodes]

    # 2. Residual operators on the backend compiler/library.
    eager_ops = 0
    with tracer.span("compile.residual", backend=backend) as rsp:
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
            kernel = _op_kernel(graph, node, gpu, node_codegen)
            if kernel is None:
                continue
            module.add(f"{backend}:{node.output}", kernel)
            eager_ops += 1
        rsp.set(kernels=eager_ops)

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
    # for each fused kernel (the decision is cached on the module), plus
    # why any module fell back down the compiled → vectorized → scalar
    # chain (reason histogram, e.g. {"no-compiler": 12}).
    exec_backends: dict[str, int] = {}
    fallbacks: dict[str, int] = {}
    for op_module in module.operator_modules:
        resolved = op_module.resolved_exec_backend
        exec_backends[resolved] = exec_backends.get(resolved, 0) + 1
        for fb in op_module.decision["fallbacks"]:
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
