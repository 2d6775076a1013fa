"""Tests for the span tracer and flight recorder (`repro.obs.tracer`)."""

from __future__ import annotations

import threading

import pytest

from repro.obs import (
    DEFAULT_MAX_SPANS,
    FlightRecorder,
    Span,
    Tracer,
    current_span,
    disable_tracing,
    enable_tracing,
    get_tracer,
    load_trace_jsonl,
    save_trace_jsonl,
    set_tracer,
    tracing_enabled,
)
from repro.obs.tracer import NOOP_SPAN


class TestSpanBasics:
    def test_records_name_duration_and_attrs(self):
        tracer = Tracer()
        with tracer.span("work", kind="unit") as span:
            span.set(extra=1)
            span.event("checkpoint", at="half")
        [record] = tracer.recorder.spans()
        assert record.name == "work"
        assert record.attrs == {"kind": "unit", "extra": 1}
        assert record.duration >= 0
        assert record.end >= record.start
        [(event_name, ts, attrs)] = record.events
        assert event_name == "checkpoint"
        assert record.start <= ts <= record.end
        assert attrs == {"at": "half"}

    def test_nesting_inherits_trace_id(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                assert inner.trace_id == outer.trace_id
                assert inner.parent_id == outer.span_id
        inner_rec, outer_rec = tracer.recorder.spans()
        assert inner_rec.name == "inner"
        assert outer_rec.parent_id is None
        assert inner_rec.trace_id == outer_rec.trace_id

    def test_sibling_roots_get_distinct_traces(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
        a, b = tracer.recorder.spans()
        assert a.trace_id != b.trace_id
        assert a.span_id != b.span_id

    def test_current_tracks_the_stack(self):
        tracer = Tracer()
        assert tracer.current() is None
        with tracer.span("outer") as outer:
            assert tracer.current() is outer
            with tracer.span("inner") as inner:
                assert tracer.current() is inner
            assert tracer.current() is outer
        assert tracer.current() is None

    def test_exception_sets_error_attr_and_finishes(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("kaput")
        [record] = tracer.recorder.spans()
        assert record.attrs["error"] == "ValueError: kaput"

    def test_finish_twice_raises(self):
        tracer = Tracer()
        span = tracer.span("once")
        span.finish()
        with pytest.raises(RuntimeError, match="finished twice"):
            span.finish()

    def test_explicit_parent_overrides_ambient(self):
        tracer = Tracer()
        with tracer.span("root") as root:
            with tracer.span("ambient"):
                child = tracer.span("adopted", parent=root)
                assert child.parent_id == root.span_id
                assert child.trace_id == root.trace_id
                child.finish()

    def test_clock_dual_timestamps(self):
        from repro.search.tuning_cost import TuningClock

        tracer = Tracer()
        clock = TuningClock()
        with tracer.span("timed", clock=clock):
            clock.seconds += 2.5
        [record] = tracer.recorder.spans()
        assert record.sim_start == 0.0
        assert record.sim_end == 2.5
        assert record.sim_duration == 2.5

    def test_no_clock_means_no_sim_timestamps(self):
        tracer = Tracer()
        with tracer.span("untimed"):
            pass
        [record] = tracer.recorder.spans()
        assert record.sim_start is None and record.sim_duration is None

    def test_tracer_event_lands_on_current_span(self):
        tracer = Tracer()
        with tracer.span("outer"):
            tracer.event("note", value=3)
        [record] = tracer.recorder.spans()
        assert record.events[0][0] == "note"

    def test_tracer_event_without_span_is_dropped(self):
        tracer = Tracer()
        tracer.event("orphan")  # must not raise
        assert len(tracer.recorder) == 0


class TestDisabledTracer:
    def test_span_returns_noop_singleton(self):
        tracer = Tracer(enabled=False)
        span = tracer.span("anything", attr=1)
        assert span is NOOP_SPAN
        assert tracer.span("more") is span

    def test_noop_span_accepts_full_protocol(self):
        with NOOP_SPAN as span:
            span.set(a=1).event("x", b=2)
        assert NOOP_SPAN.finish() is None
        assert NOOP_SPAN.attrs == {}

    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer(enabled=False)
        with tracer.span("invisible"):
            tracer.event("also-invisible")
        assert len(tracer.recorder) == 0

    def test_parent_noop_starts_fresh_trace(self):
        # A job queued while tracing was off carries NOOP_SPAN as its
        # trace parent; a later enabled tracer must treat that as "no
        # parent", not crash or inherit the empty ids.
        tracer = Tracer()
        span = tracer.span("fresh", parent=NOOP_SPAN)
        assert span.parent_id is None
        assert span.trace_id
        span.finish()


class TestThreadSafety:
    def test_concurrent_roots_keep_threads_separate(self):
        tracer = Tracer()
        n_threads, spans_each = 8, 25
        barrier = threading.Barrier(n_threads)

        def worker(i):
            barrier.wait()
            for j in range(spans_each):
                with tracer.span(f"t{i}", j=j):
                    with tracer.span(f"t{i}.child"):
                        pass

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        records = tracer.recorder.spans()
        assert len(records) == n_threads * spans_each * 2
        # every child nests under a root of its own thread, and trace ids
        # never leak across threads
        by_id = {r.span_id: r for r in records}
        for r in records:
            if r.parent_id is not None:
                parent = by_id[r.parent_id]
                assert parent.thread_id == r.thread_id
                assert parent.trace_id == r.trace_id
                assert parent.name + ".child" == r.name

    def test_cross_thread_parent_joins_the_trace(self):
        tracer = Tracer()
        with tracer.span("batch") as batch:

            def worker():
                with tracer.span("item", parent=batch):
                    pass

            threads = [threading.Thread(target=worker) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        records = tracer.recorder.spans()
        items = [r for r in records if r.name == "item"]
        batch_rec = next(r for r in records if r.name == "batch")
        assert len(items) == 4
        assert {r.trace_id for r in items} == {batch_rec.trace_id}
        assert {r.parent_id for r in items} == {batch_rec.span_id}

    def test_pool_thread_attr_writes_are_locked(self):
        tracer = Tracer()
        errors = []
        with tracer.span("shared") as span:

            def worker(i):
                try:
                    for j in range(200):
                        span.set(**{f"k{i}": j})
                        span.event(f"e{i}")
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

            threads = [threading.Thread(target=worker, args=(i,)) for i in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert not errors
        [record] = tracer.recorder.spans()
        assert len(record.events) == 6 * 200
        assert all(record.attrs[f"k{i}"] == 199 for i in range(6))


class TestFlightRecorder:
    def test_bounded_and_counts_drops(self):
        recorder = FlightRecorder(max_spans=4)
        tracer = Tracer()
        tracer.recorder = recorder
        for i in range(7):
            with tracer.span(f"s{i}"):
                pass
        assert len(recorder) == 4
        assert recorder.dropped == 3
        assert [r.name for r in recorder.spans()] == ["s3", "s4", "s5", "s6"]

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            FlightRecorder(max_spans=0)

    def test_traces_group_by_trace_id(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("a.1"):
                pass
        with tracer.span("b"):
            pass
        traces = tracer.recorder.traces()
        assert len(traces) == 2
        sizes = sorted(len(spans) for spans in traces.values())
        assert sizes == [1, 2]

    def test_last_trace_returns_most_recent(self):
        tracer = Tracer()
        with tracer.span("old"):
            pass
        with tracer.span("new-root"):
            with tracer.span("new-child"):
                pass
        last = tracer.recorder.last_trace()
        assert {r.name for r in last} == {"new-root", "new-child"}

    def test_clear_resets_everything(self):
        recorder = FlightRecorder(max_spans=1)
        tracer = Tracer()
        tracer.recorder = recorder
        with tracer.span("x"):
            pass
        with tracer.span("y"):
            pass
        recorder.clear()
        assert len(recorder) == 0 and recorder.dropped == 0

    def test_jsonl_roundtrip(self, tmp_path):
        tracer = Tracer()
        with tracer.span("root", model="gqa") as span:
            span.event("mark", n=1)
        path = save_trace_jsonl(tracer.recorder, tmp_path / "t.jsonl")
        docs = load_trace_jsonl(path)
        assert len(docs) == 1
        assert docs[0]["name"] == "root"
        assert docs[0]["attrs"] == {"model": "gqa"}
        assert docs[0]["events"][0]["name"] == "mark"
        assert docs[0]["duration"] >= 0

    def test_failed_save_leaves_no_file(self, tmp_path):
        tracer = Tracer()
        with tracer.span("root", payload=object()):  # not JSON-serializable
            pass
        with pytest.raises(TypeError):
            save_trace_jsonl(tracer.recorder, tmp_path / "t.jsonl")
        assert list(tmp_path.iterdir()) == []  # neither the file nor a .tmp. file

    def test_load_jsonl_skips_corruption_and_missing(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"name": "ok"}\nnot json\n[1,2]\n\n{"name": "ok2"}\n')
        docs = load_trace_jsonl(path)
        assert [d["name"] for d in docs] == ["ok", "ok2"]
        assert load_trace_jsonl(tmp_path / "absent.jsonl") == []


class TestGlobalTracer:
    def test_default_is_disabled(self):
        assert not tracing_enabled()
        assert get_tracer().span("x") is NOOP_SPAN

    def test_enable_disable_cycle(self):
        tracer = enable_tracing(max_spans=16)
        assert tracing_enabled()
        assert get_tracer() is tracer
        assert tracer.recorder.max_spans == 16
        with get_tracer().span("visible"):
            assert current_span() is not None
        old = disable_tracing()
        assert old is tracer
        assert not tracing_enabled()
        # the previous recorder still holds the captured spans
        assert [r.name for r in old.recorder.spans()] == ["visible"]

    def test_set_tracer_returns_previous(self):
        mine = Tracer(enabled=True, max_spans=8)
        before = set_tracer(mine)
        try:
            assert get_tracer() is mine
        finally:
            set_tracer(before)

    def test_default_capacity(self):
        assert Tracer().recorder.max_spans == DEFAULT_MAX_SPANS

    def test_span_type(self):
        tracer = Tracer()
        span = tracer.span("typed")
        assert isinstance(span, Span)
        span.finish()
