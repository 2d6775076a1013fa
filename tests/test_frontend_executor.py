"""Tests for the end-to-end executor (Fig. 9 machinery)."""

import threading

import pytest

from conftest import QUICK
from repro.frontend.executor import STRATEGIES, compile_model
from repro.frontend.models import bert_encoder
from repro.gpu.specs import A100
from repro.ir.graph import Graph
from repro.ir.ops import BatchMatmul, Softmax
from repro.search.tuner import MCFuserTuner

FAST_TUNER = QUICK.evolve(population_size=96, top_n=6, max_rounds=4, min_rounds=2)


@pytest.fixture(scope="module")
def graph():
    return bert_encoder("Bert-Small", 256)


@pytest.fixture(scope="module")
def results(graph):
    return {
        s: compile_model(graph, A100, s, config=FAST_TUNER)
        for s in STRATEGIES
    }


class TestStrategies:
    def test_all_strategies_produce_time(self, results):
        for s, r in results.items():
            assert r.time > 0, s
            assert r.kernel_count > 0, s

    def test_unknown_strategy_rejected(self, graph):
        with pytest.raises(ValueError):
            compile_model(graph, A100, "tvm")

    def test_mcfuser_fuses_subgraphs(self, results):
        assert results["mcfuser+relay"].mbci_subgraphs == 4
        assert results["relay"].mbci_subgraphs == 0

    def test_mcfuser_fewer_kernels(self, results):
        assert results["mcfuser+relay"].kernel_count < results["relay"].kernel_count

    def test_epilogue_fusion_reduces_kernels(self, results):
        assert results["relay"].kernel_count < results["pytorch"].kernel_count


class TestHeadlineOrdering:
    def test_mcfuser_relay_beats_relay(self, results):
        assert results["relay"].time / results["mcfuser+relay"].time > 1.1

    def test_mcfuser_ansor_beats_ansor(self, results):
        assert results["ansor"].time / results["mcfuser+ansor"].time > 1.1

    def test_tuning_time_ordering(self, results):
        assert (
            results["relay"].tuning_seconds
            < results["bolt"].tuning_seconds
            < results["ansor"].tuning_seconds
        )

    def test_mcfuser_relay_tuning_near_relay(self, results):
        """Table IV: MCFuser adds well under Ansor-scale tuning to Relay."""
        extra = results["mcfuser+relay"].tuning_seconds - results["relay"].tuning_seconds
        assert 0 < extra < 300

    def test_mcfuser_ansor_tunes_faster_than_ansor(self, results):
        assert results["mcfuser+ansor"].tuning_seconds < results["ansor"].tuning_seconds


class TestSubgraphCaching:
    def test_identical_layers_tuned_once(self, graph):
        r = compile_model(graph, A100, "mcfuser+relay", config=FAST_TUNER)
        # 4 identical attention layers: tuning cost ~ one MCFuser run, not four.
        single = compile_model(
            bert_encoder("Bert-Small", 256), A100, "relay"
        ).tuning_seconds
        assert r.tuning_seconds - single < 120


def _multi_shape_graph() -> Graph:
    """Four independent attention blocks over three distinct shapes."""
    g = Graph("multi-shape")
    for i, (b, s, d) in enumerate([(4, 64, 32), (4, 128, 32), (2, 64, 64), (4, 64, 32)]):
        for t in "qkv":
            g.add_input(f"{t}{i}", (b, s, d))
        g.add(BatchMatmul((f"q{i}", f"k{i}"), f"s{i}", transpose_b=True))
        g.add(Softmax((f"s{i}",), f"p{i}"))
        g.add(BatchMatmul((f"p{i}", f"v{i}"), f"o{i}"))
        g.mark_output(f"o{i}")
    return g


def _compile_workers():
    return {t for t in threading.enumerate() if t.name.startswith("compile-worker-")}


class TestServicePath:
    """``compile_model`` tunes through a compile service it opens per call."""

    @pytest.mark.parametrize("fails", [True, False], ids=["tune-raises", "succeeds"])
    def test_per_call_service_is_closed(self, fails, monkeypatch):
        before = _compile_workers()
        if fails:
            def boom(self, chain):
                raise RuntimeError("tune exploded")

            monkeypatch.setattr(MCFuserTuner, "tune", boom)
            with pytest.raises(RuntimeError, match="tune exploded"):
                compile_model(_multi_shape_graph(), A100, config=QUICK)
        else:
            result = compile_model(_multi_shape_graph(), A100, config=QUICK)
            assert result.mbci_subgraphs == 4
        assert not _compile_workers() - before

    @pytest.mark.parametrize("model", ["bert-small", "multi-shape"])
    def test_results_independent_of_serve_workers(self, model):
        def compile_with(workers):
            graph = _multi_shape_graph() if model == "multi-shape" else model
            return compile_model(graph, A100, config=QUICK.evolve(serve_workers=workers))

        one, three = compile_with(1), compile_with(3)
        assert one.tuning_seconds == three.tuning_seconds
        assert one.time == three.time
        assert one.detail["served"] == three.detail["served"]
        assert sum(one.detail["served"].values()) == one.mbci_subgraphs
        assert [dict(m.schedule.tiles) for m in one.module.operator_modules] == [
            dict(m.schedule.tiles) for m in three.module.operator_modules
        ]
