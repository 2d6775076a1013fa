"""The documented public API (README quickstart) must keep working."""

import numpy as np

import repro


class TestTopLevelExports:
    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    def test_version(self):
        assert repro.__version__ == "1.0.0"


class TestReadmeQuickstart:
    def test_quickstart_flow(self):
        chain = repro.attention_chain(heads=4, m=128, n=128, k=32, h=32)
        assert chain.is_mbci(repro.A100)

        config = repro.SessionConfig.make(
            population_size=64, top_n=4, max_rounds=2, min_rounds=1
        )
        tuner = repro.MCFuserTuner(repro.A100, config=config)
        report = tuner.tune(chain)
        assert report.best_time > 0
        assert "T" in report.best_candidate.describe()
        assert "for" in report.best_schedule.pretty()

        module = repro.compile_schedule(report.best_schedule, repro.A100)
        inputs = chain.random_inputs(seed=0)
        out = module.run(inputs)["O"]
        ref = chain.reference(inputs)["O"]
        np.testing.assert_allclose(out, ref, rtol=1e-4, atol=1e-5)
        assert ".entry" in module.ptx

    def test_workload_lookups(self):
        assert repro.gemm_workload("G7").loops["m"] == 512
        assert repro.attention_workload("S3").batch == 16

    def test_e2e_entry_points(self):
        graph = repro.bert_encoder("Bert-Small", 64)
        partition = repro.partition_graph(graph, repro.A100)
        assert len(partition.subgraphs) == 4
