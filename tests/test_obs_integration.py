"""End-to-end observability tests: traced tunes, serving traces, and the
backend-fallback counters — the instrumentation layer exercised through the
real tuner, service, and executor rather than in isolation."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import QUICK
from repro.cache.cache import ScheduleCache
from repro.codegen import interpreter
from repro.codegen.interpreter import execute_schedule, explain_exec_backend
from repro.gpu.specs import A100
from repro.obs import (
    enable_tracing,
    get_metrics,
    get_tracer,
    save_chrome_trace,
    trace_coverage,
    validate_chrome_trace,
)
from repro.obs.export import chrome_trace
from repro.search.tuner import MCFuserTuner
from repro.tiling.expr import TilingExpr
from repro.tiling.schedule import build_schedule

#: at least two search rounds: the traced-tune assertions need rounds >= 2.
TRACE_QUICK = QUICK.evolve(max_rounds=3, min_rounds=2)


def _spans_by_name(tracer):
    out = {}
    for record in tracer.recorder.spans():
        out.setdefault(record.name, []).append(record)
    return out


class TestTracedTune:
    def test_span_taxonomy_nesting_and_coverage(self, a100, small_gemm):
        tracer = enable_tracing()
        MCFuserTuner(a100, config=TRACE_QUICK).tune(small_gemm)
        spans = _spans_by_name(tracer)
        for name in ("tune", "tune.space", "search", "search.round",
                     "measure.batch", "measure.candidate", "tune.finalize"):
            assert name in spans, f"missing span {name}"
        [tune] = spans["tune"]
        assert tune.parent_id is None
        assert tune.attrs["outcome"] == "tuned"
        assert tune.attrs["chain"] == small_gemm.name
        assert tune.attrs["rounds"] >= 2
        by_id = {r.span_id: r for r in tracer.recorder.spans()}
        [search] = spans["search"]
        assert search.parent_id == tune.span_id
        for r in spans["search.round"]:
            assert r.parent_id == search.span_id
            assert r.attrs["measured"] <= r.attrs["proposed"]
        for r in spans["measure.batch"]:
            assert by_id[r.parent_id].name == "search.round"
            # simulated time was billed to the tuning clock during the batch
            assert r.sim_duration is not None and r.sim_duration > 0
        for r in spans["measure.candidate"]:
            assert by_id[r.parent_id].name == "measure.batch"
            assert r.trace_id == tune.trace_id
        # the acceptance bar: direct children of the root account for >= 95%
        assert trace_coverage(tracer.recorder, root_name="tune") >= 0.95

    def test_space_and_search_spans_count_schedule_builds(self, a100, small_gemm):
        tracer = enable_tracing()
        report = MCFuserTuner(a100, config=TRACE_QUICK).tune(small_gemm)
        spans = _spans_by_name(tracer)
        [space], [search] = spans["tune.space"], spans["search"]
        # With empty memos, pricing builds one schedule per template and
        # binds none; the search measures every candidate from its template
        # launch and builds none.
        assert space.attrs["schedules_built"] == space.attrs["templates"] > 0
        assert space.attrs["templates_bound"] == 0
        assert search.attrs["schedules_built"] == space.attrs["templates"]
        assert report.search.num_measurements > 0

    def test_traced_tune_chrome_export_is_valid(self, a100, small_gemm, tmp_path):
        tracer = enable_tracing()
        MCFuserTuner(a100, config=TRACE_QUICK.evolve(workers=2)).tune(small_gemm)
        path = save_chrome_trace(tracer.recorder, tmp_path / "tune.json")
        import json

        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        validate_chrome_trace(doc)
        names = {e["name"] for e in doc["traceEvents"] if e["ph"] != "M"}
        assert {"tune", "search.round", "measure.batch"} <= names

    def test_pool_measurement_spans_join_the_trace(self, a100, small_gemm):
        tracer = enable_tracing()
        MCFuserTuner(a100, config=TRACE_QUICK.evolve(workers=4)).tune(small_gemm)
        spans = _spans_by_name(tracer)
        [tune] = spans["tune"]
        candidates = spans["measure.candidate"]
        assert {r.trace_id for r in candidates} == {tune.trace_id}
        # with a pool, some candidates measured off the main thread
        assert len({r.thread_id for r in candidates}) >= 1

    def test_cache_hit_outcome(self, a100, small_gemm):
        cache = ScheduleCache(path=None)
        MCFuserTuner(a100, cache=cache, config=TRACE_QUICK).tune(small_gemm)
        tracer = enable_tracing()
        MCFuserTuner(a100, cache=cache, config=TRACE_QUICK).tune(small_gemm)
        spans = _spans_by_name(tracer)
        [tune] = spans["tune"]
        assert tune.attrs["outcome"] == "cache-hit"
        assert "tune.cache_lookup" in spans
        assert "search" not in spans  # a hit never searches

    def test_untraced_tune_records_nothing(self, a100, small_gemm):
        assert not get_tracer().enabled
        MCFuserTuner(a100, config=TRACE_QUICK).tune(small_gemm)
        assert len(get_tracer().recorder) == 0


class TestTracedService:
    def test_request_outcomes_and_cross_thread_parentage(self, a100, small_gemm):
        from repro.serving.service import CompileService

        tracer = enable_tracing()
        with CompileService(a100, config=TRACE_QUICK.evolve(serve_workers=1)) as svc:
            svc.compile(small_gemm)
            svc.compile(small_gemm)
        spans = _spans_by_name(tracer)
        requests = spans["serve.request"]
        assert len(requests) == 2
        outcomes = sorted(r.attrs["outcome"] for r in requests)
        assert outcomes == ["hot", "queued"]
        queued = next(r for r in requests if r.attrs["outcome"] == "queued")
        [serve_tune] = spans["serve.tune"]
        # the worker-side tune continues the admitting request's trace
        assert serve_tune.parent_id == queued.span_id
        assert serve_tune.trace_id == queued.trace_id
        assert serve_tune.thread_id != queued.thread_id
        assert serve_tune.attrs["outcome"] == "tuned"
        # ... and the tuner's own root span nests under it
        [tune] = spans["tune"]
        assert tune.parent_id == serve_tune.span_id
        assert tune.trace_id == queued.trace_id

    def test_coalesced_and_error_outcomes(self, a100, small_gemm):
        import threading

        from repro.serving.service import CompileService

        release = threading.Event()

        def slow_fail(job):
            release.wait(timeout=10)
            raise RuntimeError("tune exploded")

        tracer = enable_tracing()
        with CompileService(
            a100, tune_fn=slow_fail, config=QUICK.evolve(serve_workers=1)
        ) as svc:
            first = svc.submit(small_gemm)
            import time

            deadline = time.time() + 5
            while not svc._inflight and time.time() < deadline:
                time.sleep(0.005)
            rider = svc.submit(small_gemm)
            release.set()
            with pytest.raises(RuntimeError):
                first.result(timeout=10)
            with pytest.raises(RuntimeError):
                rider.result(timeout=10)
        spans = _spans_by_name(tracer)
        outcomes = sorted(r.attrs["outcome"] for r in spans["serve.request"])
        assert outcomes == ["coalesced", "queued"]
        [serve_tune] = spans["serve.tune"]
        assert serve_tune.attrs["outcome"] == "error"
        assert "tune exploded" in serve_tune.attrs["error"]


class TestExecFallbacks:
    def _schedule(self, chain):
        return build_schedule(
            chain, TilingExpr.parse("mhnk"), {"m": 32, "n": 16, "k": 16, "h": 16}
        )

    def test_no_compiler_reason_counts_and_traces(self, small_gemm, monkeypatch):
        import repro.codegen.clang_runtime as clang_runtime

        monkeypatch.setattr(clang_runtime, "compiler_available", lambda: False)
        schedule = self._schedule(small_gemm)
        inputs = small_gemm.random_inputs(0)
        tracer = enable_tracing()
        execute_schedule(schedule, inputs, backend="auto")
        registry = get_metrics()
        assert registry.counter("exec.fallback").value == 1
        assert registry.counter("exec.fallback.compiled.no-compiler").value == 1
        [exec_span] = _spans_by_name(tracer)["exec"]
        assert exec_span.attrs["resolved"] == "vectorized"
        [(name, _, attrs)] = exec_span.events
        assert name == "exec.fallback"
        assert attrs == {
            "from": "compiled", "to": "vectorized", "reason": "no-compiler"
        }

    def test_flops_threshold_reason(self, small_gemm, monkeypatch):
        import repro.codegen.clang_runtime as clang_runtime

        monkeypatch.setattr(clang_runtime, "compiler_available", lambda: True)
        monkeypatch.setattr(interpreter, "COMPILED_MIN_FLOPS", 1e18)
        schedule = self._schedule(small_gemm)
        execute_schedule(schedule, small_gemm.random_inputs(0), backend="auto")
        counters = get_metrics().snapshot()["counters"]
        assert counters["exec.fallback.compiled.flops-threshold"] == 1

    def test_fallback_counts_without_tracing(self, small_gemm, monkeypatch):
        import repro.codegen.clang_runtime as clang_runtime

        monkeypatch.setattr(clang_runtime, "compiler_available", lambda: False)
        schedule = self._schedule(small_gemm)
        assert not get_tracer().enabled
        execute_schedule(schedule, small_gemm.random_inputs(0), backend="auto")
        assert get_metrics().counter("exec.fallback").value == 1

    def test_pinned_backends_do_not_count_fallbacks(self, small_gemm):
        schedule = self._schedule(small_gemm)
        inputs = small_gemm.random_inputs(0)
        out = execute_schedule(schedule, inputs, backend="vectorized")
        np.testing.assert_allclose(
            out[small_gemm.output],
            small_gemm.reference(inputs)[small_gemm.output],
            rtol=1e-4, atol=1e-5,
        )
        assert get_metrics().counter("exec.fallback").value == 0


class TestExecDispatchParity:
    """``execute_schedule`` and ``OperatorModule.run`` share one execution
    tail, so a static ``auto`` step-down is counted and traced, and a
    compiled kernel that fails to build falls back (``auto``) or raises
    (pinned ``compiled``), the same way on both paths."""

    PATHS = ("execute_schedule", "OperatorModule.run")

    @pytest.fixture
    def failing_compile(self, monkeypatch):
        import repro.codegen.clang_runtime as clang_runtime

        def fail(program, inputs):
            raise clang_runtime.CompileError("injected compile failure")

        monkeypatch.setattr(clang_runtime, "compiler_available", lambda: True)
        monkeypatch.setattr(clang_runtime, "execute_program_compiled", fail)
        monkeypatch.setattr(interpreter, "COMPILED_MIN_FLOPS", 0)

    def _run(self, path, schedule, backend, inputs):
        from repro.codegen.runtime import OperatorModule

        if path == "execute_schedule":
            return execute_schedule(schedule, inputs, backend=backend)
        module = OperatorModule(schedule, A100, exec_backend=backend)
        return module.run(inputs)

    def _schedule(self, chain):
        return build_schedule(
            chain, TilingExpr.parse("mhnk"), {"m": 32, "n": 16, "k": 16, "h": 16}
        )

    @pytest.mark.parametrize("path", PATHS)
    def test_auto_falls_back_to_vectorized(self, path, failing_compile, small_gemm):
        schedule = self._schedule(small_gemm)
        inputs = small_gemm.random_inputs(0)
        expected = execute_schedule(schedule, inputs, backend="vectorized")
        out = self._run(path, schedule, "auto", inputs)
        np.testing.assert_array_equal(
            out[small_gemm.output], expected[small_gemm.output]
        )
        registry = get_metrics()
        assert registry.counter("exec.fallback.compiled.render-error").value == 1
        assert registry.counter("exec.fallback").value == 1

    @pytest.mark.parametrize("path", PATHS)
    def test_static_fallback_counts_and_traces(self, path, small_gemm, monkeypatch):
        import repro.codegen.clang_runtime as clang_runtime

        monkeypatch.setattr(clang_runtime, "compiler_available", lambda: False)
        tracer = enable_tracing()
        self._run(path, self._schedule(small_gemm), "auto",
                  small_gemm.random_inputs(0))
        registry = get_metrics()
        assert registry.counter("exec.fallback.compiled.no-compiler").value == 1
        assert registry.counter("exec.fallback").value == 1
        [exec_span] = _spans_by_name(tracer)["exec"]
        assert exec_span.attrs["resolved"] == "vectorized"
        [(name, _, attrs)] = exec_span.events
        assert name == "exec.fallback"
        assert attrs["reason"] == "no-compiler"

    @pytest.mark.parametrize("path", PATHS)
    def test_pinned_compiled_raises(self, path, failing_compile, small_gemm):
        from repro.codegen.clang_runtime import CompileError

        schedule = self._schedule(small_gemm)
        with pytest.raises(CompileError, match="injected"):
            self._run(path, schedule, "compiled", small_gemm.random_inputs(0))
        assert get_metrics().counter("exec.fallback").value == 0


class TestExplainExecBackend:
    def _schedule(self, chain):
        return build_schedule(
            chain, TilingExpr.parse("mhnk"), {"m": 32, "n": 16, "k": 16, "h": 16}
        )

    def test_scalar_is_direct(self, small_gemm):
        out = explain_exec_backend(self._schedule(small_gemm), "scalar")
        assert out == {"requested": "scalar", "resolved": "scalar", "fallbacks": []}

    def test_auto_reports_reason_chain(self, small_gemm, monkeypatch):
        import repro.codegen.clang_runtime as clang_runtime

        monkeypatch.setattr(clang_runtime, "compiler_available", lambda: False)
        out = explain_exec_backend(self._schedule(small_gemm), "auto")
        assert out["resolved"] == "vectorized"
        assert out["fallbacks"] == [
            {"from": "compiled", "to": "vectorized", "reason": "no-compiler"}
        ]

    def test_pinned_compiled_ignores_flops_threshold(self, small_gemm, monkeypatch):
        import repro.codegen.clang_runtime as clang_runtime

        monkeypatch.setattr(clang_runtime, "compiler_available", lambda: True)
        monkeypatch.setattr(interpreter, "COMPILED_MIN_FLOPS", 1e18)
        out = explain_exec_backend(self._schedule(small_gemm), "compiled")
        assert out["resolved"] == "compiled"
        assert out["fallbacks"] == []

    def test_pinned_compiled_without_compiler_never_raises(
        self, small_gemm, monkeypatch
    ):
        import repro.codegen.clang_runtime as clang_runtime

        monkeypatch.setattr(clang_runtime, "compiler_available", lambda: False)
        out = explain_exec_backend(self._schedule(small_gemm), "compiled")
        assert out["resolved"] is None
        assert out["fallbacks"] == [
            {"from": "compiled", "to": "none", "reason": "no-compiler"}
        ]


class TestCompileModelDetail:
    def test_detail_reports_fallback_reasons(self, a100, monkeypatch):
        import repro.codegen.clang_runtime as clang_runtime

        from repro.frontend.executor import compile_model
        from repro.frontend.models import BertConfig, bert_encoder

        monkeypatch.setattr(clang_runtime, "compiler_available", lambda: False)
        graph = bert_encoder(
            BertConfig("Bert-Tiny", layers=1, hidden=256, heads=4, intermediate=512),
            128,
        )
        result = compile_model(
            graph, a100, "mcfuser+relay", config=TRACE_QUICK,
        )
        assert result.mbci_subgraphs > 0
        fallbacks = result.detail["fallbacks"]
        assert sum(fallbacks.values()) >= result.mbci_subgraphs
        assert set(fallbacks) <= {
            "no-compiler", "flops-threshold", "not-renderable", "not-lowerable",
        }
        assert "no-compiler" in fallbacks or "not-lowerable" in fallbacks
        # the breadcrumb agrees: nothing resolved to compiled
        assert "compiled" not in result.detail["exec_backend"]

    def test_traced_compile_model_has_model_spans(self, a100):
        from repro.frontend.executor import compile_model
        from repro.frontend.models import BertConfig, bert_encoder

        tracer = enable_tracing()
        graph = bert_encoder(
            BertConfig("Bert-Tiny", layers=1, hidden=256, heads=4, intermediate=512),
            128,
        )
        compile_model(graph, a100, "mcfuser+relay", config=TRACE_QUICK)
        spans = _spans_by_name(tracer)
        for name in ("compile.model", "partition", "tune", "execute.model",
                     "compile.schedule"):
            assert name in spans, f"missing span {name}"
        [root] = spans["compile.model"]
        assert root.parent_id is None
        by_id = {r.span_id: r for r in tracer.recorder.spans()}
        [partition] = spans["partition"]
        assert partition.parent_id == root.span_id
        for r in spans["tune"]:
            # tune -> serve.tune (worker) -> serve.request (admission) ->
            # the sub-graph span -> compile.model
            chain = []
            parent_id = r.parent_id
            while parent_id is not None:
                chain.append(by_id[parent_id].name)
                parent_id = by_id[parent_id].parent_id
            assert chain == [
                "serve.tune", "serve.request", "compile.subgraphs", "compile.model",
            ]
        doc = chrome_trace(tracer.recorder)
        validate_chrome_trace(doc)

    def test_traced_compile_model_root_coverage(self, a100):
        """The wait on sub-graph tunes is spanned under ``compile.model``,
        so its direct children cover nearly all of its wall-clock."""
        from repro.frontend.executor import compile_model
        from repro.frontend.models import BertConfig, bert_encoder

        tracer = enable_tracing()
        graph = bert_encoder(
            BertConfig("Bert-Tiny", layers=1, hidden=256, heads=4, intermediate=512),
            128,
        )
        compile_model(graph, a100, "mcfuser+relay", config=TRACE_QUICK)
        assert trace_coverage(tracer.recorder, root_name="compile.model") >= 0.9
