"""Graph partitioner: lift MBCI sub-graphs out of an operator graph (§V-B).

The partitioner is a general-DAG fusion-group builder, replacing the two
hard-coded patterns the paper evaluated with a four-stage pipeline:

1. **classify** (:mod:`repro.frontend.grouping`) — every node is an anchor
   (tensor contraction), fusable elementwise, or opaque, and gets a
   per-op roofline intensity against the target GPU;
2. **grow** — from each unclaimed anchor, in topological order, extend
   along single-consumer dataflow, folding ``Scale``/``Softmax``/
   ``relu``/``gelu`` into contraction blocks and absorbing further
   contractions;
3. **legalize** — each extension must linearize to chain IR (rank/batch/
   layout compatibility), stay within the loop budget, keep a minimal
   tile footprint inside the shared-memory bound
   (:mod:`repro.gpu.memory`, the same eq. (1) estimate search Rule 4
   prunes with), and the contracted graph must remain acyclic;
4. **linearize** (:mod:`repro.frontend.linearize`) — the group lowers to a
   :class:`ComputeChain` via topological linearization, so the existing
   tiling/search/codegen stack consumes it unchanged.

Sub-graphs that pass the chain-level MBCI test (``phi < P/W``) go to
MCFuser; everything else stays with the Relay/Ansor-style library path.
Anchors that fail to fuse are *diagnosed*, not dropped: ``Partition.
rejected`` carries a structured :class:`Rejection` per failed anchor.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from repro.cache.signature import workload_signature
from repro.frontend.grouping import Rejection, Segment, grow_group, is_contraction
from repro.frontend.linearize import LinearizeError, LinearizedGroup, linearize_group
from repro.gpu.memory import TileBuffer, estimate_shared_memory
from repro.gpu.specs import GPUSpec

from repro.ir.chain import ComputeChain
from repro.ir.graph import Graph, GraphNode

__all__ = [
    "MBCISubgraph",
    "Partition",
    "Rejection",
    "partition_graph",
    "MAX_GROUP_BLOCKS",
    "MAX_GROUP_LOOPS",
]

#: Default cap on contractions per fusion group: 3 keeps the enumeration
#: space (loops! tiling expressions) tractable for the search-space builder.
MAX_GROUP_BLOCKS = 3

#: Default cap on distinct cross-tile loops per group, for the same reason.
MAX_GROUP_LOOPS = 5

#: Rule 4's empirical slack over the hardware shared-memory bound (the
#: search prunes candidates whose eq. (1) estimate exceeds this multiple;
#: a group whose *minimal* tiles already exceed it has no legal schedule).
FOOTPRINT_SLACK = 1.2

#: Minimal tile extent used by the footprint lower bound (the tensor-core
#: multiple search Rule 3 enforces as the smallest tile size).
MIN_TILE = 16


@dataclass(frozen=True)
class MBCISubgraph:
    """One fusable sub-graph: the nodes it absorbs and its chain IR.

    ``inputs`` are graph tensor names positionally aligned with
    ``chain.input_names()``; ``batched`` records whether graph tensors
    already carry the chain's batch axis (rank-3 groups) or need a leading
    length-1 axis when binding (rank-2 Dense groups).
    """

    kind: str  # "attention" | "gemm_chain" | "chain<N>"
    nodes: tuple[str, ...]  # outputs of the absorbed graph nodes
    chain: ComputeChain
    inputs: tuple[str, ...]
    output: str
    batched: bool = True

    def signature(self, gpu: GPUSpec, variant: str = "mcfuser") -> str:
        """Cache key of this sub-graph's chain on ``gpu``.

        All identically shaped sub-graphs of a model (every attention layer
        of a BERT) share one signature, so the executor tunes each shape
        once and the schedule cache carries it across models and processes.
        """
        return workload_signature(self.chain, gpu, variant)

    def bind_inputs(self, env: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        """Map a graph tensor environment to this chain's input arrays."""
        return {
            cname: np.asarray(env[gname]).reshape(self.chain.tensor_shape(cname))
            for cname, gname in zip(self.chain.input_names(), self.inputs)
        }

    def extract_output(self, result: np.ndarray, graph: Graph) -> np.ndarray:
        """Reshape the chain's output array to the graph tensor's shape."""
        return np.asarray(result).reshape(graph.shape(self.output))


@dataclass
class Partition:
    """Result of partitioning: MBCI sub-graphs, residual operators, and a
    structured diagnostic per anchor that failed to fuse."""

    graph: Graph
    subgraphs: list[MBCISubgraph]
    rest: list[GraphNode]
    rejected: list[Rejection] = field(default_factory=list)

    @property
    def absorbed(self) -> set[str]:
        out: set[str] = set()
        for sg in self.subgraphs:
            out.update(sg.nodes)
        return out

    def rejection_reasons(self) -> dict[str, int]:
        """Histogram of rejection reasons (diagnostic reporting)."""
        return dict(Counter(r.reason for r in self.rejected))


def min_footprint_fits(chain: ComputeChain, gpu: GPUSpec) -> bool:
    """Lower-bound legality: do *minimal* tiles of every chain tensor fit?

    Uses the paper's eq. (1) analytic estimate with the smallest tile the
    search would ever pick (the Rule 3 tensor-core multiple) per loop.
    If even this floor exceeds Rule 4's ``1.2 x Shm_max`` slack, no
    schedule of the group can survive pruning — the group is illegal.
    """
    buffers = []
    role_map = {"input": "operand", "intermediate": "stage", "output": "accumulator"}
    for name, ref in chain.tensors.items():
        rows, cols = (min(chain.loops[d], MIN_TILE) for d in ref.dims)
        buffers.append(
            TileBuffer(
                tensor=name,
                rows=rows,
                cols=cols,
                dtype_bytes=chain.dtype_bytes,
                role=role_map[ref.role],
            )
        )
    return estimate_shared_memory(buffers) <= FOOTPRINT_SLACK * gpu.shared_mem_per_block


def _contraction_acyclic(
    graph: Graph,
    nodes: list[GraphNode],
    consumers: dict[str, list[GraphNode]],
) -> bool:
    """Whether contracting ``nodes`` into one super-node keeps the DAG acyclic.

    A cycle appears iff some external input of the group transitively
    depends on a tensor the group produces. Linear single-consumer growth
    cannot create one, but the check is cheap and keeps the invariant
    explicit (the property-based harness exercises it directly).
    """
    produced = {n.output for n in nodes}
    externals = {t for n in nodes for t in n.inputs if t not in produced}
    return not any(graph.reaches(out, externals, consumers) for out in produced)


def _subgraph_kind(chain: ComputeChain) -> str:
    if any(b.softmax_over is not None for b in chain.blocks):
        return "attention"
    if len(chain.blocks) == 2:
        return "gemm_chain"
    return f"chain{len(chain.blocks)}"


def partition_graph(
    graph: Graph,
    gpu: GPUSpec,
    mbci_only: bool = True,
    *,
    max_blocks: int = MAX_GROUP_BLOCKS,
    max_loops: int = MAX_GROUP_LOOPS,
) -> Partition:
    """Split a graph into MBCI fusion groups and residual operators.

    ``mbci_only=True`` (default) keeps only sub-graphs that are actually
    memory-bound on ``gpu`` — compute-bound chains stay with the library,
    mirroring the paper's partitioner. Groups are grown greedily from every
    contraction anchor (see the module docstring for the pipeline); each
    anchor that fails to form a group contributes a :class:`Rejection` to
    ``Partition.rejected``.
    """
    consumers = graph.consumer_map()
    claimed: set[str] = set()
    diagnosed: set[str] = set()  # members of group-level rejections
    subgraphs: list[MBCISubgraph] = []
    rejected: list[Rejection] = []
    lin_memo: dict[tuple, LinearizedGroup] = {}

    def _segment_key(segments: list[Segment]) -> tuple:
        return tuple(
            (
                seg.node.output,
                seg.scale,
                seg.epilogue,
                seg.softmax_node.output if seg.softmax_node is not None else None,
                tuple(n.output for n in seg.absorbed),
            )
            for seg in segments
        )

    def feasible(segments: list[Segment]) -> str | None:
        if len(segments) > max_blocks:
            return "block-budget"
        try:
            lin = linearize_group(graph, segments, name=f"mbci@{segments[0].node.output}")
        except LinearizeError as err:
            return err.reason
        if len(lin.chain.loops) > max_loops:
            return "loop-budget"
        if not min_footprint_fits(lin.chain, gpu):
            return "footprint"
        lin_memo[_segment_key(segments)] = lin
        return None

    def _linearized(segments: list[Segment], anchor: GraphNode) -> LinearizedGroup:
        # Usually served by the last successful probe; elementwise ops
        # folded after that probe (a trailing Scale/Activation) miss.
        key = _segment_key(segments)
        if key not in lin_memo:
            lin_memo[key] = linearize_group(graph, segments, name=f"mbci@{anchor.output}")
        return lin_memo[key]

    for node in graph.nodes:
        if node.output in claimed or not is_contraction(node.op):
            continue
        growth = grow_group(
            graph, node, feasible=feasible, claimed=claimed, consumers=consumers
        )
        if growth.segments is None:
            assert growth.rejection is not None
            # Anchors inside an already-rejected group retry their own
            # growth (a legal suffix group may exist); if they fail too,
            # the group-level diagnostic already covers them — don't
            # duplicate it.
            if node.output not in diagnosed:
                rejected.append(growth.rejection)
            continue
        group_nodes = [n for seg in growth.segments for n in seg.nodes()]
        lin = _linearized(growth.segments, node)
        if not _contraction_acyclic(graph, group_nodes, consumers):
            rejected.append(
                Rejection(
                    node.output,
                    "cycle",
                    "contracting the group would create a dataflow cycle",
                    nodes=tuple(n.output for n in group_nodes),
                )
            )
            diagnosed.update(n.output for n in group_nodes)
            continue
        if mbci_only and not lin.chain.is_mbci(gpu):
            rejected.append(
                Rejection(
                    node.output,
                    "compute-bound",
                    "the fused chain is compute-bound on "
                    f"{gpu.name} (phi above the P/W ridge); fusion has no headroom",
                    nodes=tuple(n.output for n in group_nodes),
                )
            )
            diagnosed.update(n.output for n in group_nodes)
            continue
        subgraphs.append(
            MBCISubgraph(
                kind=_subgraph_kind(lin.chain),
                nodes=tuple(n.output for n in group_nodes),
                chain=lin.chain,
                inputs=lin.inputs,
                output=lin.output,
                batched=lin.batched,
            )
        )
        claimed.update(n.output for n in group_nodes)

    rest = [n for n in graph.nodes if n.output not in claimed]
    return Partition(graph=graph, subgraphs=subgraphs, rest=rest, rejected=rejected)
