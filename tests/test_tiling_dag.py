"""Unit tests for the schedule DAG view (Fig. 5)."""

from repro.tiling.dag import ScheduleDAG, dag_summary, dead_loops, memory_opt_report, schedule_dag
from repro.tiling.expr import TilingExpr
from repro.tiling.schedule import build_schedule

TILES = {"m": 32, "n": 16, "k": 16, "h": 16}


def sched(chain, expr, tiles=None, optimize=False):
    return build_schedule(chain, TilingExpr.parse(expr), tiles or TILES, optimize=optimize)


class TestDagStructure:
    def test_acyclic(self, small_gemm):
        g = schedule_dag(sched(small_gemm, "mhnk"))
        assert g.is_acyclic()

    def test_cycle_detected(self):
        a, b, c = ("loop", "a"), ("loop", "b"), ("stmt", "c")
        nodes = {a: {"kind": "loop"}, b: {"kind": "loop"}, c: {"kind": "stmt"}}
        chain = {(a, b): "scope", (b, c): "scope"}
        assert ScheduleDAG(nodes, chain).is_acyclic()
        assert not ScheduleDAG(nodes, {**chain, (c, a): "order"}).is_acyclic()

    def test_fig5_nodes(self, small_gemm):
        g = schedule_dag(sched(small_gemm, "mhnk"))
        labels = {d.get("label") for _, d in g.nodes(data=True) if d["kind"] == "stmt"}
        assert labels == {"LA", "LB", "CC", "LD", "CE", "SE"}

    def test_scope_edges_follow_homes(self, small_gemm):
        g = schedule_dag(sched(small_gemm, "mhnk"))
        assert g.has_edge(("loop", "k"), ("stmt", "load", "A", "C"))
        assert g.has_edge(("loop", "n"), ("stmt", "compute", "E", "E"))

    def test_order_edges(self, small_gemm):
        g = schedule_dag(sched(small_gemm, "mhnk"))
        assert g.has_edge(("stmt", "load", "A", "C"), ("stmt", "compute", "C", "C"))
        assert g.has_edge(("stmt", "compute", "C", "C"), ("stmt", "compute", "E", "E"))
        assert g.has_edge(("stmt", "compute", "E", "E"), ("stmt", "store", "E", "E"))

    def test_loop_nesting_edges(self, small_gemm):
        g = schedule_dag(sched(small_gemm, "mhnk"))
        assert g.has_edge(("loop", "n"), ("loop", "k"))

    def test_summary_counts(self, small_gemm):
        summary = dag_summary(sched(small_gemm, "mhnk"))
        assert summary["stmts"] == 6
        assert summary["loops"] == 5  # grid b, m, h + residual n, k
        assert summary["order_edges"] == 5


class TestDeadLoops:
    def test_no_dead_loops_generic(self, small_gemm):
        assert dead_loops(sched(small_gemm, "mhnk")) == ()

    def test_k_dead_with_full_tile(self, small_gemm):
        tiles = {"m": 32, "n": 16, "k": 64, "h": 16}
        assert dead_loops(sched(small_gemm, "mhnk", tiles)) == ("k",)


class TestMemoryOptReport:
    def test_reduction_factor(self, small_gemm):
        tiles = {"m": 32, "n": 16, "k": 64, "h": 16}
        report = memory_opt_report(small_gemm, TilingExpr.parse("mhnk"), tiles)
        assert report.removed_loops == ("k",)
        assert report.reduction_factor > 1.5

    def test_noop_when_no_dead_loops(self, small_gemm):
        report = memory_opt_report(small_gemm, TilingExpr.parse("mhnk"), TILES)
        assert report.reduction_factor == 1.0
