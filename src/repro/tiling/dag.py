"""DAG view of a scheduled tiling expression (§III-B, Fig. 5).

Loops and primitive statements form a directed acyclic graph with two edge
kinds:

* ``scope`` — from a loop to a statement (or inner loop) that must execute
  within its scope, because the loop variable indexes the operand;
* ``order`` — between statements that must execute in sequence (loads
  before their compute, producer computes before consumer computes,
  computes before their store) without requiring a common scope.

When a loop's extent drops to 1 its variable is the constant 0: the loop
node is *dead*, removable along with its edges, which lets memory
statements migrate to shallower scopes (Fig. 4(b) / Fig. 5(b)). The
removal itself happens in :func:`repro.tiling.schedule.build_schedule`
(``optimize=True``); this module exposes the graph for analysis,
validation and reporting as a small immutable :class:`ScheduleDAG`.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Hashable, Iterator, Mapping

from repro.tiling.schedule import Schedule, Statement

__all__ = [
    "ScheduleDAG",
    "schedule_dag",
    "dead_loops",
    "dag_summary",
    "MemoryOptReport",
    "memory_opt_report",
]


@dataclass(frozen=True)
class ScheduleDAG:
    """A directed graph of loop and statement nodes with kinded edges.

    ``node_attrs`` maps each node to its read-only attributes; ``edge_deps``
    maps each ``(source, target)`` pair to its dependence kind (``"scope"``
    or ``"order"``). A pair appears at most once.
    """

    node_attrs: Mapping[Hashable, Mapping[str, object]]
    edge_deps: Mapping[tuple[Hashable, Hashable], str]

    def nodes(self, data: bool = False) -> Iterator:
        """Nodes, or ``(node, attrs)`` pairs with ``data=True``."""
        return iter(self.node_attrs.items() if data else self.node_attrs)

    def edges(self, data: bool = False) -> Iterator:
        """``(source, target)`` pairs, or ``(source, target, {"dep": kind})``
        triples with ``data=True``."""
        if not data:
            return iter(self.edge_deps)
        return ((u, v, {"dep": dep}) for (u, v), dep in self.edge_deps.items())

    def has_edge(self, source: Hashable, target: Hashable) -> bool:
        return (source, target) in self.edge_deps

    def is_acyclic(self) -> bool:
        """Kahn's algorithm: every node can be removed in topological order."""
        indegree = dict.fromkeys(self.node_attrs, 0)
        successors: dict[Hashable, list] = {node: [] for node in self.node_attrs}
        for u, v in self.edge_deps:
            successors[u].append(v)
            indegree[v] += 1
        ready = [node for node, degree in indegree.items() if degree == 0]
        removed = 0
        while ready:
            node = ready.pop()
            removed += 1
            for v in successors[node]:
                indegree[v] -= 1
                if indegree[v] == 0:
                    ready.append(v)
        return removed == len(indegree)


def _stmt_node(stmt: Statement) -> tuple:
    return ("stmt", stmt.kind, stmt.tensor, stmt.block)


def schedule_dag(schedule: Schedule) -> ScheduleDAG:
    """Build the loop/statement DAG of a schedule.

    Node attributes: ``kind`` (``"loop"`` or ``"stmt"``), plus ``extent``
    for loops and ``label`` (``LA``, ``CC``, ``SE``, ...) for statements.
    Edge kind ``dep`` is ``"scope"`` or ``"order"``.
    """
    nodes: dict[Hashable, dict[str, object]] = {}
    edges: dict[tuple[Hashable, Hashable], str] = {}

    def add_edge(u: Hashable, v: Hashable, dep: str) -> None:
        nodes.setdefault(u, {})
        nodes.setdefault(v, {})
        edges[(u, v)] = dep

    for loop, extent in schedule.grid_dims:
        nodes[("loop", loop)] = {"kind": "loop", "extent": extent, "grid": True}
    for loop in schedule.residual.loops():
        nodes[("loop", loop)] = {"kind": "loop", "extent": schedule.extents[loop], "grid": False}
        parent = schedule.residual.parent(loop)
        if parent is not None:
            add_edge(("loop", parent), ("loop", loop), "scope")

    for stmt in schedule.statements():
        node = _stmt_node(stmt)
        nodes[node] = {"kind": "stmt", "label": stmt.label(), "home": stmt.home}
        if stmt.home is not None:
            add_edge(("loop", stmt.home), node, "scope")
        else:
            for loop, _ in schedule.grid_dims:
                if loop in stmt.related or loop == "b":
                    add_edge(("loop", loop), node, "scope")

    # Order edges: load -> compute (same block), producer compute ->
    # consumer compute, compute -> store (same block).
    computes = {
        s.block: s for s in schedule.statements() if s.kind == "compute"
    }
    for stmt in schedule.statements():
        if stmt.kind == "load" and stmt.block in computes:
            add_edge(_stmt_node(stmt), _stmt_node(computes[stmt.block]), "order")
        if stmt.kind == "store" and stmt.block in computes:
            add_edge(_stmt_node(computes[stmt.block]), _stmt_node(stmt), "order")
    for block in schedule.chain.blocks:
        for tensor in block.inputs:
            producer = schedule.chain.producer_of(tensor)
            if producer is not None and producer.name in computes and block.name in computes:
                add_edge(
                    _stmt_node(computes[producer.name]),
                    _stmt_node(computes[block.name]),
                    "order",
                )
    dag = ScheduleDAG(
        node_attrs=MappingProxyType(
            {node: MappingProxyType(attrs) for node, attrs in nodes.items()}
        ),
        edge_deps=MappingProxyType(edges),
    )
    if not dag.is_acyclic():  # pragma: no cover - defensive
        raise AssertionError("schedule dependence graph has a cycle")
    return dag


def dead_loops(schedule: Schedule) -> tuple[str, ...]:
    """Residual loops whose extent is 1 — removable DAG nodes."""
    return tuple(l for l in schedule.residual.loops() if schedule.extents[l] == 1)


def dag_summary(schedule: Schedule) -> dict[str, int]:
    """Node/edge counts by kind (used in reports and tests)."""
    g = schedule_dag(schedule)
    loops = sum(1 for _, d in g.nodes(data=True) if d["kind"] == "loop")
    stmts = sum(1 for _, d in g.nodes(data=True) if d["kind"] == "stmt")
    scope = sum(1 for *_, d in g.edges(data=True) if d["dep"] == "scope")
    order = sum(1 for *_, d in g.edges(data=True) if d["dep"] == "order")
    return {"loops": loops, "stmts": stmts, "scope_edges": scope, "order_edges": order}


@dataclass(frozen=True)
class MemoryOptReport:
    """Before/after DRAM traffic of the DAG dead-loop optimization."""

    baseline_bytes: float
    optimized_bytes: float
    removed_loops: tuple[str, ...]

    @property
    def reduction_factor(self) -> float:
        if self.optimized_bytes == 0:
            return float("inf")
        return self.baseline_bytes / self.optimized_bytes


def memory_opt_report(chain, expr, tiles) -> MemoryOptReport:
    """Quantify what the extent-1 DAG optimization saves for one candidate."""
    from repro.tiling.schedule import build_schedule  # local: avoid cycle at import

    base = build_schedule(chain, expr, tiles, optimize=False)
    opt = build_schedule(chain, expr, tiles, optimize=True)
    return MemoryOptReport(
        baseline_bytes=base.dram_read_bytes() + base.dram_write_bytes(),
        optimized_bytes=opt.dram_read_bytes() + opt.dram_write_bytes(),
        removed_loops=dead_loops(base),
    )
