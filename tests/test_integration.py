"""Full-pipeline integration tests: tune -> compile -> execute -> verify."""

import numpy as np
import pytest

from conftest import QUICK
from repro import (
    A100,
    MCFuserTuner,
    attention_chain,
    compile_schedule,
    gemm_chain,
)
from repro.codegen.runtime import OperatorModule
from repro.frontend.models import bert_encoder
from repro.frontend.partition import partition_graph

BUDGET = QUICK.evolve(population_size=96, top_n=6, max_rounds=3, min_rounds=2)


class TestTuneCompileRun:
    def test_gemm_chain_pipeline(self):
        chain = gemm_chain(2, 128, 128, 64, 64, name="int-g")
        report = MCFuserTuner(A100, config=BUDGET).tune(chain)
        module = compile_schedule(report.best_schedule, A100)
        inputs = chain.random_inputs(0)
        out = module.run(inputs)["E"]
        ref = chain.reference(inputs)["E"]
        np.testing.assert_allclose(out, ref, rtol=1e-4, atol=1e-5)
        assert module.time() == pytest.approx(report.best_time, rel=0.05)

    def test_attention_pipeline(self):
        chain = attention_chain(4, 128, 128, 32, 32, name="int-a")
        report = MCFuserTuner(A100, config=BUDGET).tune(chain)
        module = compile_schedule(report.best_schedule, A100)
        inputs = chain.random_inputs(0)
        out = module.run(inputs)["O"]
        ref = chain.reference(inputs)["O"]
        np.testing.assert_allclose(out, ref, rtol=1e-4, atol=1e-5)

    def test_artifact_bundle(self):
        """Every tuned kernel ships with TIR, Triton source and PTX."""
        from repro.codegen import extract_tiling_expr, tir_from_schedule

        chain = gemm_chain(1, 128, 128, 64, 64, name="int-art")
        report = MCFuserTuner(A100, config=QUICK).tune(chain)
        module = OperatorModule(schedule=report.best_schedule, gpu=A100)
        tir = tir_from_schedule(report.best_schedule)
        assert extract_tiling_expr(tir).render() == report.best_schedule.residual.render()
        assert "mma.sync" in module.ptx
        assert "@triton.jit" in module.triton.render()


class TestFusedSubgraphMatchesGraphExecution:
    def test_partitioned_attention_numerics(self):
        """The MBCI sub-graph lifted out of BERT computes what the original
        graph ops computed."""
        graph = bert_encoder("Bert-Small", 64)
        partition = partition_graph(graph, A100)
        sg = partition.subgraphs[0]
        feed = graph.random_feed(seed=0, scale=0.05)
        env = graph.execute(feed)

        chain = sg.chain
        inputs = {
            "Q": env[sg.inputs[0]],
            "K": env[sg.inputs[1]],
            "V": env[sg.inputs[2]],
        }
        fused_ref = chain.reference(inputs)[chain.output]
        np.testing.assert_allclose(fused_ref, env[sg.output], rtol=1e-4, atol=1e-5)

        report = MCFuserTuner(A100, config=QUICK).tune(chain)
        fused_out = compile_schedule(report.best_schedule, A100).run(inputs)[chain.output]
        np.testing.assert_allclose(fused_out, env[sg.output], rtol=1e-3, atol=1e-5)
