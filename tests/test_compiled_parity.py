"""Three-way differential harness for the native compiled C backend.

Every schedule the backends can run must produce the same result — the
scalar interpreter, the vectorized executor, the compiled C kernel, and
``ComputeChain.reference`` agree within fp32 tolerance across random
chains x tiling expressions x tile sizes (non-divisible shapes included).
Schedules only some backends can express must degrade identically: the
``auto`` backend falls back gracefully, explicit ``"compiled"`` raises a
typed error (``LoweringError`` / ``RenderError`` / ``CompileError`` /
``CompilerNotFoundError``), and genuinely invalid schedules raise the
same error everywhere. The whole suite skips with an explicit marker
when the container has no C compiler.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import QUICK
from dag_gen import pattern_graph
from repro.codegen.clang_runtime import (
    CompileError,
    CompilerNotFoundError,
    compiler_available,
    execute_program_compiled,
)
from repro.codegen import interpreter
from repro.codegen.interpreter import (
    COMPILED_MIN_FLOPS,
    EXEC_BACKENDS,
    InterpreterError,
    execute_schedule,
    resolve_exec_backend,
)
from repro.codegen.program import LoweringError, lower_schedule
from repro.codegen.render_c import RenderError, render_program, schedule_renderable
from repro.codegen.runtime import compile_schedule
from repro.frontend.partition import partition_graph
from repro.gpu.specs import A100
from repro.ir.chain import attention_chain, gemm3_chain, gemm_chain
from repro.tiling.enumeration import all_tilings
from repro.tiling.expr import TilingExpr
from repro.tiling.schedule import InvalidScheduleError, build_schedule
from repro.utils import rng_for
from repro.workloads.registry import get_workload, workload_names
from test_vectorized_parity import _rank1_softmax_chain, _rank3_softmax_chain

#: fp32 tolerances: backend-vs-backend differ only by contraction
#: reassociation; either-vs-reference adds the fused-vs-unfused gap. The C
#: kernel accumulates each output element serially in contracted order
#: (as the scalar interpreter does, but with FMAs where the compiler
#: contracts) while NumPy blocks its dot products, so the gap is a shade
#: wider than scalar-vs-vectorized (near-zero outputs of gelu-epilogue
#: 3-GEMM chains show ~1e-5 absolute noise).
BACKEND_RTOL, BACKEND_ATOL = 2e-4, 5e-5
REF_RTOL, REF_ATOL = 2e-4, 5e-5
#: zoo chains contract over up to ~1k elements; the reassociation gap
#: grows with the reduction extent (near-zero outputs of k=1024 chains
#: show ~2e-4 absolute noise against blocked BLAS accumulation).
ZOO_RTOL, ZOO_ATOL = 1e-3, 1e-3

needs_cc = pytest.mark.skipif(
    not compiler_available(), reason="no C compiler (clang/cc/gcc) on PATH"
)

#: every error a backend may raise for a schedule it cannot express.
BACKEND_ERRORS = (InterpreterError, InvalidScheduleError)


def all_backends(schedule, inputs):
    """(scalar, vectorized, compiled) results — or the exception each raised."""
    results = []
    for backend in ("scalar", "vectorized", "compiled"):
        try:
            results.append(execute_schedule(schedule, inputs, backend=backend))
        except BACKEND_ERRORS as exc:
            results.append(exc)
    return results


def assert_three_way(chain, schedule, inputs, ref):
    """Run all three backends; demand run-parity or error-parity.

    Returns True when the schedule actually executed (so sweeps can assert
    they did not silently degrade into error-parity only).
    """
    scalar, vectorized, compiled = all_backends(schedule, inputs)
    if isinstance(scalar, Exception):
        for name, res in (("vectorized", vectorized), ("compiled", compiled)):
            assert isinstance(res, Exception), (
                f"{schedule.describe()}: scalar raised {scalar!r} but "
                f"{name} succeeded"
            )
        return False
    for name, res in (("vectorized", vectorized), ("compiled", compiled)):
        assert not isinstance(res, Exception), (
            f"{schedule.describe()}: {name} raised {res!r} but scalar succeeded"
        )
    out = chain.output
    for name, res in (("vectorized", vectorized), ("compiled", compiled)):
        np.testing.assert_allclose(
            res[out], scalar[out],
            rtol=BACKEND_RTOL, atol=BACKEND_ATOL,
            err_msg=f"{name} diverges from scalar on {schedule.describe()}",
        )
    np.testing.assert_allclose(
        compiled[out], ref,
        rtol=REF_RTOL, atol=REF_ATOL,
        err_msg=f"compiled diverges from reference on {schedule.describe()}",
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
                          name=f"crand-g{i}", epilogue=epilogue)
    if kind == "attention":
        return attention_chain(batch, dim(), dim(), dim(), dim(), name=f"crand-a{i}")
    return gemm3_chain(batch, dim(), dim(), dim(), dim(), dim(),
                       name=f"crand-3g{i}", epilogue=epilogue)


@needs_cc
class TestRandomDifferential:
    """The acceptance sweep: >= 60 seeded random schedules, three-way."""

    CASES = 12
    EXPRS_PER_CASE = 6

    @pytest.mark.parametrize("case", range(CASES))
    def test_random_chain_expr_tiles(self, case):
        """Random chains x sampled expressions x random tile sizes."""
        rng = rng_for("compiled-parity", case)
        chain = _random_chain(rng, case)
        inputs = chain.random_inputs(case)
        ref = chain.reference(inputs)[chain.output]
        exprs = list(all_tilings(chain))
        picks = rng.choice(
            len(exprs), size=min(self.EXPRS_PER_CASE, len(exprs)), replace=False
        )
        ran = 0
        for pick in picks:
            tiles = _random_tiles(rng, chain)
            schedule = build_schedule(chain, exprs[int(pick)], tiles)
            ran += assert_three_way(chain, schedule, inputs, ref)
        # at least one sampled schedule must actually execute, otherwise
        # the sweep silently degrades into error-parity only.
        assert ran >= 1

    def test_exhaustive_small_gemm(self, small_gemm):
        """Every enumerated expression: run-parity and error-parity."""
        tiles = {"m": 16, "n": 16, "k": 16, "h": 16}
        inputs = small_gemm.random_inputs(1)
        ref = small_gemm.reference(inputs)[small_gemm.output]
        ran = sum(
            assert_three_way(small_gemm, build_schedule(small_gemm, expr, tiles),
                             inputs, ref)
            for expr in all_tilings(small_gemm)
        )
        assert ran >= 1


# -- non-divisible shapes --------------------------------------------------------


@needs_cc
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
        assert assert_three_way(ragged_gemm, schedule, inputs, ref)

    def test_ragged_attention_padded_softmax(self):
        """The online-softmax padding mask under a non-divisible n."""
        chain = attention_chain(2, 100, 84, 24, 40, name="cp-rag-attn")
        inputs = chain.random_inputs(3)
        ref = chain.reference(inputs)[chain.output]
        for expr, tiles in [
            ("mhnk", {"m": 32, "n": 32, "k": 32, "h": 48}),
            ("mn(k,h)", {"m": 48, "n": 16, "k": 32, "h": 48}),
        ]:
            schedule = build_schedule(chain, TilingExpr.parse(expr), tiles)
            assert assert_three_way(chain, schedule, inputs, ref)


@needs_cc
class TestBucketCeilingSchedules:
    """Dynamic-shape bucketing (issue 8): ceiling-tuned schedules replayed
    at shorter in-bucket lengths — non-pow2, prime, just-below-ceiling —
    must run three-way identical (tail tiles masked in all backends)."""

    # prime, just-below-ceiling, non-pow2
    LENGTHS = (97, 127, 96)

    @pytest.mark.parametrize("m", LENGTHS)
    def test_gemm_ceiling_tiles_at_in_bucket_length(self, m):
        from repro.cache.signature import bucket_of
        from repro.search.pruning import rule3_tile_options

        ceiling = bucket_of(m)
        chain = gemm_chain(1, m, 64, 32, 48, name=f"cp-bucket-{m}")
        inputs = chain.random_inputs(m)
        ref = chain.reference(inputs)[chain.output]
        ran = 0
        for tm in rule3_tile_options(ceiling):
            schedule = build_schedule(
                chain, TilingExpr.parse("mhnk"),
                {"m": tm, "n": 32, "k": 32, "h": 48},
            )
            ran += assert_three_way(chain, schedule, inputs, ref)
        assert ran >= 1

    def test_tuned_at_ceiling_rebound_to_prime_length(self):
        """End-to-end: an actual ceiling tune rebound to a prime in-bucket
        length stays three-way identical."""
        from repro.cache import ScheduleCache
        from repro.search.tuner import MCFuserTuner

        tuner = MCFuserTuner(
            A100,
            cache=ScheduleCache(path=None),
            config=QUICK.evolve(dynamic="buckets"),
        )
        report = tuner.tune(gemm_chain(1, 101, 64, 32, 48, name="cp-ceil-tune"))
        schedule = report.best_schedule
        chain = schedule.chain
        assert chain.loops["m"] == 101  # rebound to the request shape
        inputs = chain.random_inputs(7)
        ref = chain.reference(inputs)[chain.output]
        assert assert_three_way(chain, schedule, inputs, ref)


# -- softmax rank generality and accumulator-reset regressions -------------------


@needs_cc
class TestSemanticEdgeCases:
    """The interpreter's trickiest state machines, replayed in C."""

    def test_rank1_softmax_output(self):
        chain = _rank1_softmax_chain()
        inputs = chain.random_inputs(0)
        ref = chain.reference(inputs)[chain.output]
        schedule = build_schedule(
            chain, TilingExpr.parse("mnk"), {"m": 16, "n": 16, "k": 32}
        )
        out = execute_schedule(schedule, inputs, backend="compiled")[chain.output]
        np.testing.assert_allclose(out, ref, rtol=REF_RTOL, atol=REF_ATOL)

    def test_rank3_softmax_output(self):
        chain = _rank3_softmax_chain()
        inputs = chain.random_inputs(0)
        ref = chain.reference(inputs)[chain.output]
        schedule = build_schedule(
            chain,
            TilingExpr.parse("mgn(k,h)"),
            {"m": 16, "g": 8, "n": 16, "k": 16, "h": 24},
        )
        out = execute_schedule(schedule, inputs, backend="compiled")[chain.output]
        np.testing.assert_allclose(out, ref, rtol=REF_RTOL, atol=REF_ATOL)

    def test_recompute_accumulator_reset(self):
        """A producer recomputed under an unrelated loop must re-zero its
        accumulator on every fresh reduction sweep (npmhk places block C
        inside the unrelated loop h)."""
        chain = gemm3_chain(2, 40, 25, 70, 66, 42, name="c-recompute")
        inputs = chain.random_inputs(0)
        ref = chain.reference(inputs)[chain.output]
        schedule = build_schedule(
            chain,
            TilingExpr.parse("npmhk"),
            {"m": 8, "n": 32, "k": 8, "h": 16, "p": 19},
        )
        out = execute_schedule(schedule, inputs, backend="compiled")[chain.output]
        np.testing.assert_allclose(out, ref, rtol=REF_RTOL, atol=REF_ATOL)

    def test_partial_tile_zero_fill_after_full_tile(self):
        """Loads zero a tile only when it is partial. The last k tile here
        holds 8 of 16 columns; the full tile before it leaves large values
        in the same arena buffer, so a partial tile loaded without its
        zero-fill would contract that stale data into C."""
        chain = gemm_chain(2, 32, 32, 40, 32, name="c-zero-fill")
        inputs = chain.random_inputs(0)
        inputs["A"][:, :, 16:32] = 1e3
        inputs["B"][:, 16:32, :] = 1e3
        ref = chain.reference(inputs)[chain.output]
        schedule = build_schedule(
            chain, TilingExpr.parse("mn(k,h)"), {"m": 32, "n": 32, "k": 16, "h": 32}
        )
        out = execute_schedule(schedule, inputs, backend="compiled")[chain.output]
        scalar = execute_schedule(schedule, inputs, backend="scalar")[chain.output]
        np.testing.assert_allclose(out, scalar, rtol=BACKEND_RTOL, atol=BACKEND_ATOL)
        np.testing.assert_allclose(out, ref, rtol=REF_RTOL, atol=REF_ATOL)

    def test_repeated_compiled_runs_deterministic(self, small_attention):
        schedule = build_schedule(
            small_attention,
            TilingExpr.parse("mn(k,h)"),
            {"m": 32, "n": 32, "k": 32, "h": 32},
        )
        inputs = small_attention.random_inputs(0)
        a = execute_schedule(schedule, inputs, backend="compiled")["O"]
        b = execute_schedule(schedule, inputs, backend="compiled")["O"]
        np.testing.assert_array_equal(a, b)


# -- register blocking and the SIMD gelu epilogue --------------------------------


@needs_cc
class TestRegisterBlocking:
    """The emitter blocks axpy contractions over 4 output rows, falling back
    to 2 and then 1 row when the row tile does not divide, and vectorizes
    the gelu epilogue through a SIMD ``tanhf``."""

    @pytest.mark.parametrize("tm,step", [(6, "t0 += 2"), (7, None)])
    @pytest.mark.parametrize("epilogue", [None, "relu"])
    def test_row_tile_not_multiple_of_four(self, tm, step, epilogue):
        chain = gemm_chain(1, 45, 40, 33, 36, name=f"cp-rows-{tm}-{epilogue}",
                           epilogue=epilogue)
        schedule = build_schedule(
            chain, TilingExpr.parse("mhnk"), {"m": tm, "n": 16, "k": 16, "h": 16}
        )
        source = render_program(lower_schedule(schedule)).source
        if step is None:
            assert "t0 +=" not in source
        else:
            assert step in source and "t0 += 4" not in source
        inputs = chain.random_inputs(2)
        ref = chain.reference(inputs)[chain.output]
        assert assert_three_way(chain, schedule, inputs, ref)

    def test_gelu_saturates(self):
        """Intermediates reaching |x| ~ 20 drive tanh into saturation,
        where the SIMD ``tanhf`` must still agree with the scalar path."""
        chain = gemm_chain(1, 64, 48, 64, 32, name="cp-gelu-sat", epilogue="gelu")
        inputs = chain.random_inputs(4)
        inputs["A"] = inputs["A"] * 4.0
        assert np.abs(inputs["A"] @ inputs["B"]).max() >= 20.0
        schedule = build_schedule(
            chain, TilingExpr.parse("mhnk"), {"m": 16, "n": 16, "k": 16, "h": 16}
        )
        scalar = execute_schedule(schedule, inputs, backend="scalar")[chain.output]
        compiled = execute_schedule(schedule, inputs, backend="compiled")[chain.output]
        np.testing.assert_allclose(
            compiled, scalar, rtol=BACKEND_RTOL, atol=BACKEND_ATOL
        )


# -- zoo chains ------------------------------------------------------------------


@needs_cc
class TestZooChains:
    """Every chain-level zoo workload runs compiled and agrees with the
    vectorized executor and the unfused reference."""

    @pytest.mark.parametrize("name", sorted(workload_names(level="chain")))
    def test_zoo_chain_three_way(self, name):
        spec = get_workload(name)
        chain = spec.build()
        if spec.family == "gemm_chain":
            expr = "mhnk"
            tiles = {loop: min(32, size) for loop, size in chain.loops.items()}
        else:
            # FlashAttention-style flat tiling: full k/h extents per block,
            # otherwise the residual h loop leaves two live output tiles.
            expr = "mn(k,h)"
            tiles = {
                "m": min(32, chain.loops["m"]),
                "n": min(32, chain.loops["n"]),
                "k": chain.loops["k"],
                "h": chain.loops["h"],
            }
        schedule = build_schedule(chain, TilingExpr.parse(expr), tiles)
        inputs = chain.random_inputs(0)
        ref = chain.reference(inputs)[chain.output]
        out = chain.output
        compiled = execute_schedule(schedule, inputs, backend="compiled")[out]
        vectorized = execute_schedule(schedule, inputs, backend="vectorized")[out]
        np.testing.assert_allclose(
            compiled, vectorized, rtol=ZOO_RTOL, atol=ZOO_ATOL,
            err_msg=f"compiled vs vectorized divergence on zoo chain {name}",
        )
        np.testing.assert_allclose(
            compiled, ref, rtol=ZOO_RTOL, atol=ZOO_ATOL,
            err_msg=f"compiled vs reference divergence on zoo chain {name}",
        )


# -- random operator DAGs through the partitioner --------------------------------


@needs_cc
class TestRandomDAGChains:
    """Chains the general-DAG partitioner emits (dotted tensor names,
    absorbed epilogues, arbitrary ranks) execute identically compiled."""

    @pytest.mark.parametrize("seed", range(4))
    def test_partitioned_chains_three_way(self, seed):
        graph = pattern_graph(seed)
        if any(s > 1024 for shape in graph.shapes.values() for s in shape):
            pytest.skip("compute-bound-scale pattern; numerics too heavy")
        partition = partition_graph(graph, A100)
        ran = 0
        for sg in partition.subgraphs:
            chain = sg.chain
            tiles = {loop: min(16, size) for loop, size in chain.loops.items()}
            inputs = chain.random_inputs(seed)
            ref = chain.reference(inputs)[chain.output]
            for expr in all_tilings(chain)[:8]:
                schedule = build_schedule(chain, expr, tiles)
                if assert_three_way(chain, schedule, inputs, ref):
                    ran += 1
                    break
        assert ran >= 1, "no partitioned chain executed on any sampled tiling"


# -- typed-error property --------------------------------------------------------


dims = st.sampled_from([16, 32, 48])


class TestTypedErrors:
    """Anything lowering accepts either renders+compiles or refuses with a
    typed RenderError — never a stray exception, never a wrong answer."""

    @needs_cc
    @settings(max_examples=15, deadline=None)
    @given(idx=st.integers(0, 25), tm=dims, tn=dims)
    def test_lowerable_compiles_or_typed_error(self, idx, tm, tn):
        chain = gemm_chain(1, 64, 48, 32, 48, name="cprop")
        expr = all_tilings(chain)[idx]
        tiles = {"m": tm, "n": tn, "k": 16, "h": 16}
        schedule = build_schedule(chain, expr, tiles)
        try:
            program = lower_schedule(schedule)
        except (LoweringError, InvalidScheduleError):
            return  # not lowerable: out of scope for the renderer
        try:
            kernel = render_program(program)
        except RenderError:
            return  # a typed refusal is an acceptable outcome
        assert kernel.source_hash and kernel.entry == "mcfuser_kernel"
        inputs = chain.random_inputs(0)
        try:
            scalar = execute_schedule(schedule, inputs, backend="scalar")
        except BACKEND_ERRORS:
            with pytest.raises(BACKEND_ERRORS):
                execute_program_compiled(program, inputs)
            return
        out = execute_program_compiled(program, inputs)[chain.output]
        np.testing.assert_allclose(
            out, scalar[chain.output], rtol=BACKEND_RTOL, atol=BACKEND_ATOL
        )

    def test_render_rejects_schedule_lowering_rejects(self):
        """schedule_renderable is False wherever lowering refuses."""
        schedule = _unlowerable_schedule()
        assert not schedule_renderable(schedule)
        with pytest.raises((LoweringError, RenderError)):
            render_program(lower_schedule(schedule))


# -- backend selection and fallback ----------------------------------------------


def _unlowerable_schedule():
    """A schedule every lowered backend refuses: a residual h loop keeps
    two live tiles of the attention output, which the single-copy buffer
    model cannot express (the scalar interpreter still runs it)."""
    chain = attention_chain(1, 64, 64, 32, 64, name="c-unlower")
    return build_schedule(
        chain, TilingExpr.parse("mn(k,h)"), {"m": 32, "n": 32, "k": 32, "h": 32}
    )


class TestBackendSelection:
    def test_backend_names(self):
        assert EXEC_BACKENDS == ("auto", "compiled", "vectorized", "scalar")

    def _small_schedule(self, small_gemm):
        return build_schedule(
            small_gemm, TilingExpr.parse("mhnk"), {"m": 32, "n": 16, "k": 16, "h": 16}
        )

    @needs_cc
    def test_pinned_compiled_resolves(self, small_gemm):
        schedule = self._small_schedule(small_gemm)
        assert resolve_exec_backend(schedule, "compiled") == "compiled"

    def test_auto_threshold_keeps_small_chains_vectorized(self, small_gemm):
        """Small chains stay on the vectorized tier: a C-compiler launch
        costs more than the whole execution below COMPILED_MIN_FLOPS."""
        schedule = self._small_schedule(small_gemm)
        assert schedule.total_flops() < COMPILED_MIN_FLOPS
        assert resolve_exec_backend(schedule, "auto") == "vectorized"

    @needs_cc
    def test_auto_prefers_compiled_above_threshold(self, monkeypatch, small_gemm):
        monkeypatch.setattr(interpreter, "COMPILED_MIN_FLOPS", 0)
        schedule = self._small_schedule(small_gemm)
        assert resolve_exec_backend(schedule, "auto") == "compiled"
        inputs = small_gemm.random_inputs(0)
        auto = execute_schedule(schedule, inputs)[small_gemm.output]
        scalar = execute_schedule(schedule, inputs, backend="scalar")[small_gemm.output]
        np.testing.assert_allclose(auto, scalar, rtol=BACKEND_RTOL, atol=BACKEND_ATOL)

    @needs_cc
    def test_auto_threshold_env_override_disables(self, monkeypatch, small_gemm):
        monkeypatch.setattr(interpreter, "COMPILED_MIN_FLOPS", 1e30)
        schedule = self._small_schedule(small_gemm)
        assert resolve_exec_backend(schedule, "auto") == "vectorized"

    def test_missing_compiler_typed_error_and_auto_fallback(
        self, monkeypatch, small_gemm
    ):
        """$REPRO_CC pointing nowhere: pinned "compiled" raises the typed
        CompilerNotFoundError; "auto" silently stays on vectorized."""
        monkeypatch.setenv("REPRO_CC", "/nonexistent/mcfuser-cc")
        schedule = build_schedule(
            small_gemm, TilingExpr.parse("mhnk"), {"m": 16, "n": 16, "k": 32, "h": 48}
        )
        with pytest.raises(CompilerNotFoundError):
            resolve_exec_backend(schedule, "compiled")
        assert resolve_exec_backend(schedule, "auto") == "vectorized"
        monkeypatch.setattr(interpreter, "COMPILED_MIN_FLOPS", 0)
        inputs = small_gemm.random_inputs(0)
        out = execute_schedule(schedule, inputs)[small_gemm.output]
        scalar = execute_schedule(schedule, inputs, backend="scalar")[small_gemm.output]
        np.testing.assert_allclose(out, scalar, rtol=BACKEND_RTOL, atol=BACKEND_ATOL)

    def test_compiler_not_found_is_typed(self):
        assert issubclass(CompilerNotFoundError, CompileError)
        assert issubclass(CompileError, RenderError)
        assert issubclass(RenderError, InterpreterError)

    def test_pinned_compiled_on_unlowerable_raises(self):
        schedule = _unlowerable_schedule()
        with pytest.raises(LoweringError):
            execute_schedule(
                schedule, schedule.chain.random_inputs(0), backend="compiled"
            )

    @needs_cc
    def test_operator_module_compiled_backend(self, small_gemm):
        module = compile_schedule(
            self._small_schedule(small_gemm), A100, exec_backend="compiled"
        )
        assert module.resolved_exec_backend == "compiled"
        inputs = small_gemm.random_inputs(0)
        out = module.run(inputs)[small_gemm.output]
        ref = small_gemm.reference(inputs)[small_gemm.output]
        np.testing.assert_allclose(out, ref, rtol=REF_RTOL, atol=REF_ATOL)
