"""Workload zoo: registry behavior and end-to-end fusion per family.

The acceptance bar for the general-DAG partitioner: each new workload
family (FFN/MLP, LoRA, GQA, cross-attention, residual branch) flows
through partition -> tune -> codegen -> interpreter and matches the
unfused graph execution.
"""

import numpy as np
import pytest

from conftest import QUICK
from repro.codegen.runtime import compile_schedule
from repro.frontend.executor import compile_model
from repro.frontend.partition import partition_graph
from repro.gpu.specs import A100
from repro.ir.chain import ComputeChain
from repro.ir.graph import Graph
from repro.search.tuner import MCFuserTuner
from repro.workloads import (
    MODEL_ZOO_FAMILIES,
    WorkloadSpec,
    build_workload,
    get_workload,
    iter_workloads,
    register_workload,
    workload_families,
    workload_names,
)


class TestRegistry:
    def test_chain_workloads_registered(self):
        names = workload_names(level="chain")
        assert "G1" in names and "S9" in names
        assert isinstance(build_workload("G4"), ComputeChain)

    def test_model_workloads_registered(self):
        names = workload_names(level="model")
        for family in MODEL_ZOO_FAMILIES:
            assert workload_names(level="model", family=family), f"no {family} workload"
        assert isinstance(build_workload(names[0]), Graph)

    def test_lookup_is_case_insensitive(self):
        assert get_workload("g4").name == "G4"
        assert get_workload("FFN-BASE").name == "ffn-base"

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError, match="unknown workload"):
            get_workload("nope")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_workload(
                WorkloadSpec("G1", "chain", "gemm_chain", "dup", "test", lambda: None)
            )

    def test_bad_level_rejected(self):
        with pytest.raises(ValueError, match="bad level"):
            WorkloadSpec("x", "kernel", "f", "d", "s", lambda: None)

    def test_families_enumerate(self):
        fams = workload_families(level="model")
        for family in MODEL_ZOO_FAMILIES:
            assert family in fams


def _fused_groups(name):
    graph = build_workload(name)
    partition = partition_graph(graph, A100)
    assert partition.subgraphs, f"{name}: nothing fused"
    return graph, partition


class TestZooFusesEndToEnd:
    """partition -> tune -> codegen -> interpreter == graph execution."""

    @pytest.mark.parametrize(
        "name,expected_kind",
        [
            ("ffn-base", "gemm_chain"),
            ("lora-base", "gemm_chain"),
            ("gqa-32x8", "attention"),
            ("xattn-enc-dec", "attention"),
            ("resbranch", "gemm_chain"),
        ],
    )
    def test_family_end_to_end(self, name, expected_kind):
        graph, partition = _fused_groups(name)
        sg = partition.subgraphs[0]
        assert sg.kind == expected_kind

        env = graph.execute(graph.random_feed(seed=0, scale=0.05))
        report = MCFuserTuner(A100, config=QUICK).tune(sg.chain)
        module = compile_schedule(report.best_schedule, A100)
        fused = module.run(sg.bind_inputs(env))[sg.chain.output]
        np.testing.assert_allclose(
            sg.extract_output(fused, graph),
            env[sg.output],
            rtol=1e-3,
            atol=1e-4,
            err_msg=f"{name}: fused kernel diverges from graph execution",
        )

    def test_ffn_absorbs_activation_epilogue(self):
        _, partition = _fused_groups("ffn-base")
        chain = partition.subgraphs[0].chain
        assert chain.blocks[0].epilogue == "gelu"
        assert "act" in partition.subgraphs[0].nodes

    def test_lora_folds_scale_and_leaves_base(self):
        graph, partition = _fused_groups("lora-base")
        sg = partition.subgraphs[0]
        assert set(sg.nodes) == {"lora.down", "lora.up", "lora.scaled"}
        assert sg.chain.blocks[-1].scale == pytest.approx(32.0 / 16)
        rest = {n.output for n in partition.rest}
        assert "base" in rest and "merged" in rest

    def test_gqa_folds_query_groups_into_batch(self):
        _, partition = _fused_groups("gqa-32x8")
        chain = partition.subgraphs[0].chain
        assert chain.batch == 8  # kv heads
        assert chain.loops["m"] == 4 * 256  # query group folded into rows
        assert chain.loops["n"] == 256

    def test_cross_attention_has_asymmetric_seq(self):
        _, partition = _fused_groups("xattn-enc-dec")
        chain = partition.subgraphs[0].chain
        assert chain.loops["m"] == 256 and chain.loops["n"] == 1024

    def test_resbranch_fuses_clean_branch_and_diagnoses_fanout(self):
        _, partition = _fused_groups("resbranch")
        assert {sg.output for sg in partition.subgraphs} == {"br1.e"}
        reasons = {r.anchor: r.reason for r in partition.rejected}
        assert reasons["br2.c"] == "multi-consumer"
        assert all(r.detail for r in partition.rejected)

    def test_compile_model_by_registry_name(self):
        result = compile_model("lora-base", A100, "mcfuser+relay", config=QUICK)
        assert result.mbci_subgraphs == 1
        assert result.detail["rejections"] == {"unsupported-op": 1}

    def test_compile_model_rejects_chain_level_names(self):
        with pytest.raises(ValueError, match="chain-level"):
            compile_model("G4", A100)


class TestZooBeatsLibraryPath:
    # the FFN shapes need a few search rounds before the fused kernel wins,
    # so this test uses the zoo experiment driver's budget, not QUICK
    TUNER = QUICK.evolve(population_size=96, top_n=6, max_rounds=3, min_rounds=2)

    @pytest.mark.parametrize("name", ["ffn-base", "gqa-32x8", "xattn-enc-dec"])
    def test_fusion_speeds_up_model(self, name):
        relay = compile_model(name, A100, "relay")
        fused = compile_model(name, A100, "mcfuser+relay", config=self.TUNER)
        assert fused.time < relay.time
        assert fused.kernel_count < relay.kernel_count
