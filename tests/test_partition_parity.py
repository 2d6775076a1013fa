"""Differential parity: general partitioner vs the frozen legacy groups.

On every graph composed of the paper's two patterns — the real encoder
models and a seeded random pattern generator — the general-DAG partitioner
must produce exactly the fusion groups the retired two-pattern matchers
produced: same absorbed node sets, same group order, same residual set.
Those groups are frozen in ``golden/partition_groups.json`` (the header
names the commit they were taken at). End-to-end, the chains the
partitioner emits must match the graph-interpreter baseline within the
existing tolerances.
"""

import json
import os

import numpy as np
import pytest

from dag_gen import pattern_graph
from repro.frontend.models import bert_encoder, vit_encoder
from repro.frontend.partition import partition_graph
from repro.gpu.specs import A100, RTX3080
from repro.ir.graph import Graph
from repro.ir.ops import BatchMatmul

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "partition_groups.json")

with open(GOLDEN) as f:
    LEGACY = json.load(f)["graphs"]


def assert_same_groups(key, graph, gpu=A100):
    """``partition_graph(graph, gpu)`` against the frozen groups of ``key``."""
    new = partition_graph(graph, gpu)
    old = LEGACY[key]
    assert old["gpu"] == gpu.name
    assert [sorted(sg.nodes) for sg in new.subgraphs] == [
        g["nodes"] for g in old["groups"]
    ], f"{graph.name}: absorbed node sets diverge"
    assert [sg.kind for sg in new.subgraphs] == [g["kind"] for g in old["groups"]]
    assert [sg.output for sg in new.subgraphs] == [g["output"] for g in old["groups"]]
    assert [list(sg.inputs) for sg in new.subgraphs] == [
        g["inputs"] for g in old["groups"]
    ]
    assert sorted(n.output for n in new.rest) == old["rest"]
    return new, old


class TestModelParity:
    @pytest.mark.parametrize("model,seq", [("Bert-Small", 128), ("Bert-Base", 64)])
    def test_bert(self, model, seq):
        new, old = assert_same_groups(f"{model.lower()}-{seq}/a100", bert_encoder(model, seq))
        assert len(new.subgraphs) > 0

    def test_vit(self):
        assert_same_groups("vit-base-64/a100", vit_encoder("ViT-Base", tokens=64))

    def test_both_gpus(self):
        graph = bert_encoder("Bert-Small", 128)
        for key, gpu in (("bert-small-128/a100", A100), ("bert-small-128/rtx3080", RTX3080)):
            assert_same_groups(key, graph, gpu)

    def test_signatures_match_legacy(self):
        """Canonical attention groups keep the legacy workload signature,
        so schedule caches warmed before the general partitioner keep
        hitting."""
        new, old = assert_same_groups("bert-small-512/a100", bert_encoder("Bert-Small", 512))
        assert [sg.signature(A100) for sg in new.subgraphs] == [
            g["signature"] for g in old["groups"]
        ]


class TestSuffixRecovery:
    def test_rejected_overgrowth_still_fuses_legal_suffix(self):
        """A greedy over-grown group that fails the MBCI gate must not
        forfeit the legal suffix group the legacy matchers fused."""
        g = Graph("suffix")
        g.add_input("a", (1, 4096, 4096))
        g.add_input("b", (1, 4096, 4096))
        g.add_input("d", (1, 4096, 64))
        g.add_input("f", (1, 64, 64))
        g.add(BatchMatmul(("a", "b"), "c"))  # huge: any group with c is compute-bound
        g.add(BatchMatmul(("c", "d"), "e"))
        g.add(BatchMatmul(("e", "f"), "h"))
        g.mark_output("h")
        new, old = assert_same_groups("suffix/a100", g)
        assert [set(sg.nodes) for sg in new.subgraphs] == [{"e", "h"}]
        # one diagnostic for the over-grown attempt, no duplicates for members
        assert new.rejection_reasons() == {"compute-bound": 1}


class TestRandomPatternParity:
    @pytest.mark.parametrize("seed", range(60))
    def test_groups_identical(self, seed):
        assert_same_groups(f"pattern-{seed}/a100", pattern_graph(seed))

    @pytest.mark.parametrize("seed", range(10))
    def test_chain_outputs_match_interpreter_baseline(self, seed):
        """The general partitioner's chains reproduce the unfused graph
        execution on every absorbed sub-graph (existing tolerances)."""
        graph = pattern_graph(seed)
        if any(s > 1024 for shape in graph.shapes.values() for s in shape):
            pytest.skip("compute-bound-scale pattern; numerics too heavy")
        partition = partition_graph(graph, A100)
        env = graph.execute(graph.random_feed(seed=0, scale=0.05))
        for sg in partition.subgraphs:
            got = sg.chain.reference(sg.bind_inputs(env))[sg.chain.output]
            np.testing.assert_allclose(
                sg.extract_output(got, graph), env[sg.output], rtol=1e-4, atol=1e-5
            )
