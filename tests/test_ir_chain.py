"""Unit tests for the ComputeChain fusion IR."""

import numpy as np
import pytest

from repro.gpu.specs import A100
from repro.ir.chain import ComputeBlock, ComputeChain, TensorRef, attention_chain, gemm_chain


class TestGemmChainStructure:
    def test_loops(self, small_gemm):
        assert small_gemm.loops == {"m": 96, "n": 80, "k": 64, "h": 48}

    def test_blocks(self, small_gemm):
        assert [b.name for b in small_gemm.blocks] == ["C", "E"]
        assert small_gemm.block("C").related == ("m", "n", "k")
        assert small_gemm.block("E").related == ("m", "h", "n")

    def test_output(self, small_gemm):
        assert small_gemm.output == "E"
        assert small_gemm.output_spatial == ("m", "h")

    def test_shared_private_loops(self, small_gemm):
        assert set(small_gemm.shared_loops()) == {"m", "n"}
        assert small_gemm.private_loops(small_gemm.block("C")) == ("k",)
        assert small_gemm.private_loops(small_gemm.block("E")) == ("h",)

    def test_tensor_shapes_include_batch(self, small_gemm):
        assert small_gemm.tensor_shape("A") == (2, 96, 64)
        assert small_gemm.tensor_shape("E") == (2, 96, 48)

    def test_producers_consumers(self, small_gemm):
        assert small_gemm.producer_of("C").name == "C"
        assert small_gemm.producer_of("A") is None
        assert [b.name for b in small_gemm.consumers_of("C")] == ["E"]

    def test_input_names(self, small_gemm):
        assert set(small_gemm.input_names()) == {"A", "B", "D"}


class TestStoredKeys:
    """A chain is immutable, so it builds its memo keys once."""

    def test_loops_and_tensors_are_read_only(self, small_gemm):
        with pytest.raises(TypeError):
            small_gemm.loops["m"] = 128
        with pytest.raises(TypeError):
            small_gemm.tensors["A"] = small_gemm.tensors["B"]
        assert small_gemm.loops["m"] == 96

    def test_structure_key_is_built_once(self, small_gemm):
        assert small_gemm.structure_key() is small_gemm.structure_key()
        assert small_gemm.size_free_key() is small_gemm.size_free_key()

    def test_keys_equal_and_hash_like_plain_tuples(self, small_gemm):
        chain = small_gemm
        plain = (
            tuple(chain.loops.items()),
            chain.batch,
            chain.dtype,
            chain.blocks,
            tuple(chain.tensors.items()),
        )
        size_free = (chain.loop_names, chain.dtype, chain.blocks, tuple(chain.tensors.items()))
        for key, expected in ((chain.structure_key(), plain), (chain.size_free_key(), size_free)):
            assert key == expected and hash(key) == hash(expected)
            # A memo keyed either way finds the entry.
            assert {key: 1}[expected] == 1 and {expected: 1}[key] == 1

    def test_with_loops_gets_fresh_keys(self, small_gemm):
        bigger = small_gemm.with_loops({"m": 192})
        assert bigger.structure_key() != small_gemm.structure_key()
        assert bigger.structure_key()[0] == (("m", 192), ("n", 80), ("k", 64), ("h", 48))
        assert bigger.size_free_key() == small_gemm.size_free_key()
        renamed = small_gemm.with_loops({}, name="twin")
        assert renamed.structure_key() == small_gemm.structure_key()
        assert renamed.structure_key() is not small_gemm.structure_key()


class TestWorkAccounting:
    def test_block_flops(self, small_gemm):
        c = small_gemm.block("C")
        assert small_gemm.block_flops(c) == 2.0 * 2 * 96 * 80 * 64

    def test_total_flops(self, small_gemm):
        expect = 2.0 * 2 * 96 * 80 * 64 + 2.0 * 2 * 96 * 80 * 48
        assert small_gemm.total_flops() == expect

    def test_min_dram_bytes(self, small_gemm):
        # inputs A,B,D + output E, once each, fp16
        expect = 2 * (96 * 64 + 64 * 80 + 80 * 48 + 96 * 48) * 2
        assert small_gemm.min_dram_bytes() == expect

    def test_unfused_exceeds_min(self, small_gemm):
        assert small_gemm.unfused_dram_bytes() > small_gemm.min_dram_bytes()

    def test_attention_softmax_flops(self, small_attention):
        o = small_attention.block("O")
        base = 2.0 * 3 * 96 * 96 * 32
        assert small_attention.block_flops(o) == base + 5.0 * 3 * 96 * 96

    def test_mbci_classification(self):
        memory_bound = gemm_chain(1, 512, 256, 64, 64)
        compute_bound = gemm_chain(1, 4096, 4096, 4096, 4096)
        assert memory_bound.is_mbci(A100)
        assert not compute_bound.is_mbci(A100)


class TestReference:
    def test_gemm_reference_matches_einsum(self, small_gemm):
        inputs = small_gemm.random_inputs(0)
        env = small_gemm.reference(inputs)
        c = np.einsum("zmk,zkn->zmn", inputs["A"], inputs["B"])
        e = np.einsum("zmn,znh->zmh", c, inputs["D"])
        np.testing.assert_allclose(env["E"], e, rtol=1e-5)

    def test_attention_reference_matches_manual(self, small_attention):
        inputs = small_attention.random_inputs(0)
        env = small_attention.reference(inputs)
        s = np.einsum("zmk,znk->zmn", inputs["Q"], inputs["K"]) / np.sqrt(32.0)
        p = np.exp(s - s.max(-1, keepdims=True))
        p /= p.sum(-1, keepdims=True)
        o = np.einsum("zmn,znh->zmh", p, inputs["V"])
        np.testing.assert_allclose(env["O"], o, rtol=1e-4, atol=1e-6)

    def test_epilogue_applied(self):
        chain = gemm_chain(1, 32, 32, 16, 16, epilogue="relu")
        env = chain.reference(chain.random_inputs(0))
        c_raw = np.einsum("zmk,zkn->zmn", *[chain.random_inputs(0)[t] for t in ("A", "B")])
        np.testing.assert_allclose(env["C"], np.maximum(c_raw, 0.0), rtol=1e-5)

    def test_missing_input_rejected(self, small_gemm):
        with pytest.raises(KeyError):
            small_gemm.reference({"A": np.zeros((2, 96, 64))})

    def test_wrong_shape_rejected(self, small_gemm):
        inputs = small_gemm.random_inputs(0)
        inputs["A"] = inputs["A"][:, :10]
        with pytest.raises(ValueError):
            small_gemm.reference(inputs)

    def test_random_inputs_deterministic(self, small_gemm):
        a = small_gemm.random_inputs(5)
        b = small_gemm.random_inputs(5)
        np.testing.assert_array_equal(a["A"], b["A"])


class TestValidation:
    def test_rejects_unknown_loop_in_block(self):
        with pytest.raises(ValueError):
            ComputeChain(
                "bad",
                {"m": 16, "n": 16},
                (ComputeBlock("C", ("A",), "C", ("m",), ("z",)),),
                {
                    "A": TensorRef("A", ("m",), "input"),
                    "C": TensorRef("C", ("m",), "output"),
                },
            )

    def test_rejects_consume_before_produce(self):
        with pytest.raises(ValueError):
            ComputeChain(
                "bad",
                {"m": 16, "n": 16, "k": 16},
                (
                    ComputeBlock("E", ("C",), "E", ("m",), ("n",)),
                    ComputeBlock("C", ("A",), "C", ("m", "n"), ("k",)),
                ),
                {
                    "A": TensorRef("A", ("m", "k"), "input"),
                    "C": TensorRef("C", ("m", "n"), "intermediate"),
                    "E": TensorRef("E", ("m",), "output"),
                },
            )

    def test_rejects_spatial_reduction_overlap(self):
        with pytest.raises(ValueError):
            ComputeBlock("C", ("A",), "C", ("m",), ("m",))

    def test_rejects_bad_batch(self):
        with pytest.raises(ValueError):
            gemm_chain(0, 16, 16, 16, 16)

    def test_rejects_output_dims_mismatch(self):
        with pytest.raises(ValueError):
            ComputeChain(
                "bad",
                {"m": 16, "n": 16, "k": 16},
                (ComputeBlock("C", ("A",), "C", ("m", "n"), ("k",)),),
                {
                    "A": TensorRef("A", ("m", "k"), "input"),
                    "C": TensorRef("C", ("m",), "output"),
                },
            )

    def test_rejects_softmax_on_non_reduction(self):
        with pytest.raises(ValueError):
            ComputeBlock("O", ("S", "V"), "O", ("m", "h"), ("n",), softmax_over="k")

    def test_attention_heads_fold_into_batch(self):
        chain = attention_chain(4, 64, 64, 32, 32, batch=2)
        assert chain.batch == 8
