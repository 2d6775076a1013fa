"""Differential harness for the vectorized batched executor.

Every schedule both backends can run must produce the same result — the
scalar interpreter, the vectorized executor, and ``ComputeChain.reference``
agree within fp32 tolerance across random chains x tiling expressions x
tile sizes (non-divisible shapes included). Schedules only one backend can
express must degrade identically: the ``auto`` backend falls back to the
scalar interpreter, explicit ``vectorized`` raises ``LoweringError``, and
genuinely invalid schedules raise the same error everywhere.
"""

import numpy as np
import pytest

from repro.codegen.interpreter import (
    EXEC_BACKENDS,
    InterpreterError,
    execute_schedule,
    resolve_exec_backend,
)
from repro.codegen.program import LoweringError, lower_schedule
from repro.codegen.runtime import compile_schedule
from repro.gpu.specs import A100
from repro.ir.chain import (
    ComputeBlock,
    ComputeChain,
    TensorRef,
    attention_chain,
    gemm3_chain,
    gemm_chain,
)
from repro.tiling.enumeration import all_tilings
from repro.tiling.expr import TilingExpr
from repro.tiling.schedule import InvalidScheduleError, build_schedule
from repro.utils import clear_memos, rng_for

#: fp32 tolerance. scalar-vs-vectorized differ only by BLAS contraction
#: reassociation (batched vs per-tile GEMM); either-vs-reference adds the
#: usual fused-vs-unfused accumulation-order gap.
BACKEND_RTOL, BACKEND_ATOL = 1e-4, 1e-5
REF_RTOL, REF_ATOL = 1e-4, 1e-5


def both_backends(schedule, inputs):
    """(scalar result | error, vectorized result | error) for one schedule."""
    results = []
    for backend in ("scalar", "vectorized"):
        try:
            results.append(execute_schedule(schedule, inputs, backend=backend))
        except (InterpreterError, InvalidScheduleError) as exc:
            results.append(exc)
    return results


def assert_parity(chain, schedule, inputs, ref):
    scalar, vectorized = both_backends(schedule, inputs)
    if isinstance(scalar, Exception):
        # the vectorized path must fail too — either because lowering
        # rejected the program (LoweringError) or at execution time with
        # the same error class.
        assert isinstance(vectorized, Exception), (
            f"{schedule.describe()}: scalar raised {scalar!r} but "
            f"vectorized succeeded"
        )
        return False
    assert not isinstance(vectorized, Exception), (
        f"{schedule.describe()}: vectorized raised {vectorized!r} but "
        f"scalar succeeded"
    )
    out = chain.output
    np.testing.assert_allclose(
        vectorized[out], scalar[out],
        rtol=BACKEND_RTOL, atol=BACKEND_ATOL,
        err_msg=f"backend divergence on {schedule.describe()}",
    )
    np.testing.assert_allclose(
        vectorized[out], ref,
        rtol=REF_RTOL, atol=REF_ATOL,
        err_msg=f"reference divergence on {schedule.describe()}",
    )
    return True


# -- random differential sweep --------------------------------------------------


def _random_tiles(rng, chain):
    """Random tile sizes: mostly pow2-ish, sometimes odd, sometimes full."""
    tiles = {}
    for loop, size in chain.loops.items():
        choice = rng.choice(["pow2", "odd", "full"], p=[0.6, 0.2, 0.2])
        if choice == "full":
            tiles[loop] = size
        elif choice == "pow2":
            tiles[loop] = int(rng.choice([8, 16, 32, 48]))
        else:
            tiles[loop] = int(rng.integers(5, max(6, size // 2 + 1)))
    return tiles


def _random_chain(rng, i):
    kind = ["gemm", "attention", "gemm3"][i % 3]
    def dim():
        return int(rng.integers(17, 97))
    batch = int(rng.integers(1, 4))
    epilogue = [None, "relu", "gelu"][int(rng.integers(0, 3))]
    if kind == "gemm":
        return gemm_chain(batch, dim(), dim(), dim(), dim(),
                          name=f"rand-g{i}", epilogue=epilogue)
    if kind == "attention":
        return attention_chain(batch, dim(), dim(), dim(), dim(), name=f"rand-a{i}")
    return gemm3_chain(batch, dim(), dim(), dim(), dim(), dim(),
                       name=f"rand-3g{i}", epilogue=epilogue)


class TestRandomDifferential:
    @pytest.mark.parametrize("case", range(9))
    def test_random_chain_expr_tiles(self, case):
        """Random chains x sampled expressions x random tile sizes."""
        rng = rng_for("vec-parity", case)
        chain = _random_chain(rng, case)
        inputs = chain.random_inputs(case)
        ref = chain.reference(inputs)[chain.output]
        exprs = list(all_tilings(chain))
        picks = rng.choice(len(exprs), size=min(6, len(exprs)), replace=False)
        ran = 0
        for pick in picks:
            tiles = _random_tiles(rng, chain)
            schedule = build_schedule(chain, exprs[int(pick)], tiles)
            ran += assert_parity(chain, schedule, inputs, ref)
        # at least one sampled schedule must actually execute, otherwise
        # the sweep silently degrades into error-parity only.
        assert ran >= 1

    def test_exhaustive_small_gemm(self, small_gemm):
        """Every enumerated expression: run-parity and error-parity."""
        tiles = {"m": 16, "n": 16, "k": 16, "h": 16}
        inputs = small_gemm.random_inputs(1)
        ref = small_gemm.reference(inputs)[small_gemm.output]
        ran = sum(
            assert_parity(small_gemm, build_schedule(small_gemm, expr, tiles),
                          inputs, ref)
            for expr in all_tilings(small_gemm)
        )
        assert ran >= 1


# -- non-divisible shapes --------------------------------------------------------


class TestRaggedShapes:
    @pytest.mark.parametrize("expr,tiles", [
        ("mhnk", {"m": 32, "n": 32, "k": 32, "h": 32}),
        ("mhnk", {"m": 48, "n": 16, "k": 64, "h": 48}),
        ("mn(k,h)", {"m": 48, "n": 16, "k": 32, "h": 64}),
    ])
    def test_ragged_gemm(self, ragged_gemm, expr, tiles):
        inputs = ragged_gemm.random_inputs(0)
        ref = ragged_gemm.reference(inputs)[ragged_gemm.output]
        schedule = build_schedule(ragged_gemm, TilingExpr.parse(expr), tiles)
        assert_parity(ragged_gemm, schedule, inputs, ref)

    def test_ragged_attention_padded_softmax(self):
        """The online-softmax padding mask under a non-divisible n."""
        chain = attention_chain(2, 100, 84, 24, 40, name="vp-rag-attn")
        inputs = chain.random_inputs(3)
        ref = chain.reference(inputs)[chain.output]
        for expr, tiles in [
            ("mhnk", {"m": 32, "n": 32, "k": 32, "h": 48}),
            ("mn(k,h)", {"m": 48, "n": 16, "k": 32, "h": 48}),
        ]:
            schedule = build_schedule(chain, TilingExpr.parse(expr), tiles)
            assert assert_parity(chain, schedule, inputs, ref)


class TestBucketCeilingSchedules:
    """Dynamic-shape bucketing (issue 8): schedules tuned at a power-of-two
    bucket ceiling execute on any shorter in-bucket length with tail tiles
    masked. Scalar and vectorized must agree with the reference at every
    ragged length — non-pow2, prime, and just-below-ceiling — for every
    ceiling-legal (divisor) tile size."""

    # prime, just-below-ceiling, non-pow2, just-above-half-bucket
    LENGTHS = (97, 127, 96, 65)

    @pytest.mark.parametrize("m", LENGTHS)
    def test_gemm_ceiling_tiles_at_in_bucket_length(self, m):
        from repro.cache.signature import bucket_of
        from repro.search.pruning import rule3_tile_options

        ceiling = bucket_of(m)
        chain = gemm_chain(1, m, 64, 32, 48, name=f"vp-bucket-{m}")
        inputs = chain.random_inputs(m)
        ref = chain.reference(inputs)[chain.output]
        ran = 0
        for tm in rule3_tile_options(ceiling):
            schedule = build_schedule(
                chain, TilingExpr.parse("mhnk"),
                {"m": tm, "n": 32, "k": 32, "h": 48},
            )
            ran += assert_parity(chain, schedule, inputs, ref)
        assert ran >= 1

    def test_attention_ceiling_tiles_both_seq_dims(self):
        from repro.search.pruning import rule3_tile_options

        # m=101 (prime) and n=75 (non-pow2) in buckets 128 / 128
        chain = attention_chain(2, 101, 75, 24, 40, name="vp-bucket-attn")
        inputs = chain.random_inputs(5)
        ref = chain.reference(inputs)[chain.output]
        ran = 0
        for tm in rule3_tile_options(128):
            schedule = build_schedule(
                chain, TilingExpr.parse("mn(k,h)"),
                {"m": tm, "n": 32, "k": 24, "h": 40},
            )
            ran += assert_parity(chain, schedule, inputs, ref)
        assert ran >= 1


# -- softmax accumulator rank fix (satellite bugfix) -----------------------------


def _rank1_softmax_chain():
    """O[m] = softmax_n(S[m,n]) x V[n] — rank-1 output tiles."""
    loops = {"m": 64, "n": 48, "k": 32}
    tensors = {
        "Q": TensorRef("Q", ("m", "k"), "input"),
        "K": TensorRef("K", ("n", "k"), "input"),
        "S": TensorRef("S", ("m", "n"), "intermediate"),
        "V": TensorRef("V", ("n",), "input"),
        "O": TensorRef("O", ("m",), "output"),
    }
    blocks = (
        ComputeBlock("S", ("Q", "K"), "S", ("m", "n"), ("k",)),
        ComputeBlock("O", ("S", "V"), "O", ("m",), ("n",), softmax_over="n"),
    )
    return ComputeChain("rank1-softmax", loops, blocks, tensors, batch=2)


def _rank3_softmax_chain():
    """O[m,g,h] = softmax_n(S[m,g,n]) x V[n,h] — rank-3 output tiles."""
    loops = {"m": 32, "g": 24, "n": 40, "k": 16, "h": 24}
    tensors = {
        "Q": TensorRef("Q", ("m", "g", "k"), "input"),
        "K": TensorRef("K", ("n", "k"), "input"),
        "S": TensorRef("S", ("m", "g", "n"), "intermediate"),
        "V": TensorRef("V", ("n", "h"), "input"),
        "O": TensorRef("O", ("m", "g", "h"), "output"),
    }
    blocks = (
        ComputeBlock("S", ("Q", "K"), "S", ("m", "g", "n"), ("k",)),
        ComputeBlock("O", ("S", "V"), "O", ("m", "g", "h"), ("n",), softmax_over="n"),
    )
    return ComputeChain("rank3-softmax", loops, blocks, tensors, batch=2)


class TestSoftmaxRankGenerality:
    """The historical accumulator hardcoded 2-D (rows, cols) tiles; the row
    state must follow the actual non-softmax dims for any rank."""

    @pytest.mark.parametrize("backend", ["scalar", "vectorized"])
    def test_rank1_output(self, backend):
        chain = _rank1_softmax_chain()
        inputs = chain.random_inputs(0)
        ref = chain.reference(inputs)[chain.output]
        schedule = build_schedule(
            chain, TilingExpr.parse("mnk"), {"m": 16, "n": 16, "k": 32}
        )
        out = execute_schedule(schedule, inputs, backend=backend)[chain.output]
        np.testing.assert_allclose(out, ref, rtol=REF_RTOL, atol=REF_ATOL)

    @pytest.mark.parametrize("backend", ["scalar", "vectorized"])
    def test_rank3_output(self, backend):
        chain = _rank3_softmax_chain()
        inputs = chain.random_inputs(0)
        ref = chain.reference(inputs)[chain.output]
        schedule = build_schedule(
            chain,
            TilingExpr.parse("mgn(k,h)"),
            {"m": 16, "g": 8, "n": 16, "k": 16, "h": 24},
        )
        out = execute_schedule(schedule, inputs, backend=backend)[chain.output]
        np.testing.assert_allclose(out, ref, rtol=REF_RTOL, atol=REF_ATOL)

    def test_rank3_ragged_parity(self):
        chain = _rank3_softmax_chain()
        inputs = chain.random_inputs(1)
        ref = chain.reference(inputs)[chain.output]
        schedule = build_schedule(
            chain,
            TilingExpr.parse("mgnkh"),
            {"m": 16, "g": 16, "n": 16, "k": 16, "h": 16},
        )
        assert assert_parity(chain, schedule, inputs, ref)


class TestRecomputeAccumulatorReset:
    """Regression: a producer recomputed under an unrelated loop must
    re-zero its accumulator on every fresh reduction sweep.

    In ``npmhk`` on a 3-GEMM chain, block C (reduction ``k``) sits inside
    the unrelated loop ``h``; C's spatial key does not change when ``h``
    advances, so the historical interpreter kept accumulating k-sweeps on
    top of each other — both backends now honor init-on-first-reduction-
    iteration semantics instead.
    """

    @pytest.mark.parametrize("backend", ["scalar", "vectorized"])
    def test_producer_under_unrelated_loop(self, backend):
        chain = gemm3_chain(2, 40, 25, 70, 66, 42, name="recompute-reset")
        inputs = chain.random_inputs(0)
        ref = chain.reference(inputs)[chain.output]
        schedule = build_schedule(
            chain,
            TilingExpr.parse("npmhk"),
            {"m": 8, "n": 32, "k": 8, "h": 16, "p": 19},
        )
        out = execute_schedule(schedule, inputs, backend=backend)[chain.output]
        np.testing.assert_allclose(out, ref, rtol=REF_RTOL, atol=REF_ATOL)


# -- backend selection and fallback ---------------------------------------------


class TestBackendSelection:
    def test_backend_names(self):
        assert EXEC_BACKENDS == ("auto", "compiled", "vectorized", "scalar")

    def test_unknown_backend_rejected(self, small_gemm):
        schedule = build_schedule(
            small_gemm, TilingExpr.parse("mhnk"), {"m": 32, "n": 16, "k": 16, "h": 16}
        )
        with pytest.raises(ValueError):
            execute_schedule(schedule, small_gemm.random_inputs(0), backend="cuda")
        with pytest.raises(ValueError):
            resolve_exec_backend(schedule, "cuda")

    def test_auto_picks_vectorized_for_plain_gemm(self, small_gemm):
        schedule = build_schedule(
            small_gemm, TilingExpr.parse("mhnk"), {"m": 32, "n": 16, "k": 16, "h": 16}
        )
        assert resolve_exec_backend(schedule) == "vectorized"
        assert resolve_exec_backend(schedule, "scalar") == "scalar"

    def test_multicopy_lowering_rejected_and_auto_falls_back(self, small_gemm):
        # mn(k,h) with small tiles needs multiple live copies of C: the
        # scalar interpreter rejects it, so auto must surface the same
        # InterpreterError (LoweringError is a subclass).
        schedule = build_schedule(
            small_gemm, TilingExpr.parse("mn(k,h)"), {"m": 32, "n": 16, "k": 16, "h": 16}
        )
        with pytest.raises(LoweringError):
            lower_schedule(schedule)
        with pytest.raises(InterpreterError):
            execute_schedule(schedule, small_gemm.random_inputs(0), backend="vectorized")
        with pytest.raises(InterpreterError):
            execute_schedule(schedule, small_gemm.random_inputs(0), backend="auto")
        assert resolve_exec_backend(schedule, "auto") == "scalar"

    def test_invalid_order_raises_everywhere(self, small_gemm):
        schedule = build_schedule(
            small_gemm, TilingExpr.parse("mhkn"), {"m": 32, "n": 16, "k": 16, "h": 16}
        )
        for backend in EXEC_BACKENDS:
            with pytest.raises(InvalidScheduleError):
                execute_schedule(schedule, small_gemm.random_inputs(0), backend=backend)

    def test_oversized_program_falls_back(self, small_gemm, monkeypatch):
        from repro.codegen import program

        schedule = build_schedule(
            small_gemm, TilingExpr.parse("mhnk"), {"m": 16, "n": 16, "k": 16, "h": 16}
        )
        for cap, value in (("MAX_PROGRAM_OPS", 2), ("MAX_GATHER_BYTES", 16)):
            with monkeypatch.context() as patch:
                patch.setattr(program, cap, value)
                clear_memos()
                with pytest.raises(LoweringError):
                    lower_schedule(schedule)

    def test_missing_input_and_bad_shape(self, small_gemm):
        schedule = build_schedule(
            small_gemm, TilingExpr.parse("mhnk"), {"m": 32, "n": 16, "k": 16, "h": 16}
        )
        with pytest.raises(KeyError):
            execute_schedule(schedule, {}, backend="vectorized")
        inputs = small_gemm.random_inputs(0)
        inputs["A"] = inputs["A"][:1]
        with pytest.raises(ValueError):
            execute_schedule(schedule, inputs, backend="vectorized")

    def test_vectorized_deterministic(self, small_attention):
        schedule = build_schedule(
            small_attention, TilingExpr.parse("mhnk"),
            {"m": 32, "n": 32, "k": 16, "h": 32},
        )
        inputs = small_attention.random_inputs(0)
        a = execute_schedule(schedule, inputs, backend="vectorized")["O"]
        b = execute_schedule(schedule, inputs, backend="vectorized")["O"]
        np.testing.assert_array_equal(a, b)


class TestZooBackendSelection:
    """End-to-end: zoo models compile to lowered-backend modules (compiled
    when a C compiler is present and the chain is big enough, vectorized
    otherwise) and the modules agree with the reference on every backend
    (the CI exec-smoke job runs this class in quick mode)."""

    @pytest.mark.parametrize("model", ["ffn-base", "gqa-32x8"])
    def test_zoo_model_vectorized_and_parity(self, model):
        from repro.config import SessionConfig
        from repro.frontend.executor import compile_model

        result = compile_model(
            model,
            A100,
            config=SessionConfig.make(population_size=64, max_rounds=2, min_rounds=1),
        )
        backends = result.detail["exec_backend"]
        lowered = backends.get("vectorized", 0) + backends.get("compiled", 0)
        assert lowered >= 1, backends
        seen = set()
        for module in result.module.operator_modules:
            if id(module) in seen:  # shape-deduplicated modules
                continue
            seen.add(id(module))
            chain = module.schedule.chain
            inputs = chain.random_inputs(0)
            ref = chain.reference(inputs)[chain.output]
            out = module.run(inputs)[chain.output]
            np.testing.assert_allclose(out, ref, rtol=1e-3, atol=1e-4)
            scalar = module.run(inputs, backend="scalar")[chain.output]
            # zoo FFN chains contract over thousands of elements, so the
            # backends' BLAS reassociation gap grows with the reduction.
            np.testing.assert_allclose(out, scalar, rtol=1e-3, atol=1e-4)


class TestProgramLowering:
    def test_program_shape(self, small_gemm):
        schedule = build_schedule(
            small_gemm, TilingExpr.parse("mhnk"), {"m": 32, "n": 16, "k": 16, "h": 16}
        )
        program = lower_schedule(schedule)
        assert program.grid_loops[0] == ("b", small_gemm.batch)
        assert program.n_cells == schedule.grid_size  # grid includes batch
        kinds = {op.kind for op in program.ops}
        assert kinds == {"load", "compute", "store"}
        # one op per statement execution of one grid cell
        per_cell = sum(
            schedule.trip_count(s) // schedule.grid_size for s in schedule.statements()
        )
        assert len(program.ops) == per_cell
        assert "cells=" in program.describe()
        assert program.ops[0].label().startswith(("L", "C", "S"))

    def test_operator_module_backend(self, small_gemm):
        schedule = build_schedule(
            small_gemm, TilingExpr.parse("mhnk"), {"m": 32, "n": 16, "k": 16, "h": 16}
        )
        module = compile_schedule(schedule, A100, exec_backend="auto")
        assert module.resolved_exec_backend == "vectorized"
        pinned = compile_schedule(schedule, A100, exec_backend="scalar")
        assert pinned.resolved_exec_backend == "scalar"
        assert pinned is not module  # memo keyed per backend
        inputs = small_gemm.random_inputs(0)
        np.testing.assert_allclose(
            module.run(inputs)["E"], pinned.run(inputs)["E"],
            rtol=BACKEND_RTOL, atol=BACKEND_ATOL,
        )
        with pytest.raises(ValueError):
            compile_schedule(schedule, A100, exec_backend="cuda")
