"""Tests for the end-to-end executor (Fig. 9 machinery)."""

import pytest

from conftest import QUICK
from repro.frontend.executor import STRATEGIES, compile_model
from repro.frontend.models import bert_encoder
from repro.gpu.specs import A100

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
