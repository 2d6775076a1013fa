"""Span tracer: where time goes, from request admission to kernel execution.

The stack spans admission → bucketing → search rounds → cost-model
reranking → measurement → lowering → compiled-kernel execution; the
telemetry registry counts *what* happened but cannot say *where a request's
time went* or *why a decision was made*. This module adds the missing
dimension: a thread-safe span tracer every layer reports into, plus a
bounded flight recorder of recent traces.

Design constraints, in order:

1. **Near-zero cost when disabled.** Tracing defaults to off; an
   instrumented hot path pays one attribute check and a singleton return
   per ``span()`` call (see the overhead benchmark in
   ``benchmarks/test_obs_overhead.py``, asserted < 5% of a warm tune).
2. **Thread-safe by construction.** Every service worker, measurement
   pool thread, and client thread traces concurrently into one
   :class:`Tracer`. Span nesting is tracked per-thread (``threading.local``
   stacks); finished spans land in a lock-guarded ring buffer. Cross-thread
   parentage (a queued tune continuing a request's trace) is explicit via
   ``span(..., parent=...)``.
3. **Dual timestamps.** Spans carry host-monotonic times
   (``time.perf_counter``) *and*, when a
   :class:`~repro.search.tuning_cost.TuningClock` is attached, the
   simulated tuning-clock seconds at entry/exit — so a trace can be read
   against both wall time and Table-IV-style simulated tuning time.
4. **Bounded memory.** The flight recorder keeps the most recent
   :data:`DEFAULT_MAX_SPANS` finished spans; a long-lived service never
   grows without limit, and "what just happened" is always answerable.

Identity model: every span has a ``span_id``; a root span (no live parent
on its thread and no explicit ``parent``) mints a fresh ``trace_id``,
children inherit it. Grouping the ring buffer by ``trace_id`` reconstructs
whole request traces (:meth:`FlightRecorder.traces`).

Usage::

    from repro.obs import enable_tracing, get_tracer

    tracer = enable_tracing()
    with tracer.span("serve.request", workload="S2") as sp:
        sp.event("admitted", lane="interactive")
        with tracer.span("tune"):
            ...
    spans = tracer.recorder.spans()
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field

__all__ = [
    "SpanRecord",
    "Span",
    "FlightRecorder",
    "Tracer",
    "DEFAULT_MAX_SPANS",
    "get_tracer",
    "set_tracer",
    "enable_tracing",
    "disable_tracing",
    "tracing_enabled",
    "current_span",
]

#: Flight-recorder capacity (finished spans). A serve-load run of ~1k
#: requests emits a few spans per warm request and a few hundred per cold
#: tune; 64k spans comfortably hold the recent window either way.
DEFAULT_MAX_SPANS = 65536

_ids = itertools.count(1)


def _next_id() -> str:
    return f"{os.getpid():x}-{next(_ids):x}"


@dataclass
class SpanRecord:
    """One finished span, as stored in the flight recorder.

    ``start``/``end`` are host-monotonic seconds (``time.perf_counter`` —
    comparable only within a process); ``sim_start``/``sim_end`` are the
    attached :class:`~repro.search.tuning_cost.TuningClock` readings, or
    ``None`` when the span ran without a clock.
    """

    name: str
    trace_id: str
    span_id: str
    parent_id: str | None
    start: float
    end: float
    thread_id: int
    thread_name: str
    attrs: dict = field(default_factory=dict)
    #: ``(name, monotonic timestamp, attrs)`` triples, in emission order.
    events: list = field(default_factory=list)
    sim_start: float | None = None
    sim_end: float | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def sim_duration(self) -> float | None:
        if self.sim_start is None or self.sim_end is None:
            return None
        return self.sim_end - self.sim_start

    def to_dict(self) -> dict:
        """JSON-able view (the JSONL persistence format, one span per line)."""
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "thread_id": self.thread_id,
            "thread_name": self.thread_name,
            "attrs": self.attrs,
            "events": [
                {"name": n, "ts": ts, "attrs": attrs} for n, ts, attrs in self.events
            ],
            "sim_start": self.sim_start,
            "sim_end": self.sim_end,
        }


class Span:
    """A live span: context manager handed out by :meth:`Tracer.span`.

    Mutating methods (:meth:`set`, :meth:`event`) are safe from the owning
    thread and from pool threads that received the span as an explicit
    parent — the attrs dict is guarded by the span's own lock.
    """

    __slots__ = (
        "tracer", "name", "trace_id", "span_id", "parent_id", "start",
        "attrs", "events", "_clock", "sim_start", "_thread_id",
        "_thread_name", "_lock", "_finished",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        trace_id: str,
        parent_id: str | None,
        attrs: dict,
        clock=None,
    ) -> None:
        self.tracer = tracer
        self.name = name
        self.trace_id = trace_id
        self.span_id = _next_id()
        self.parent_id = parent_id
        self.attrs = attrs
        self.events: list = []
        self._clock = clock
        self._lock = threading.Lock()
        self._finished = False
        thread = threading.current_thread()
        self._thread_id = thread.ident or 0
        self._thread_name = thread.name
        self.sim_start = getattr(clock, "seconds", None) if clock is not None else None
        self.start = time.perf_counter()

    def set(self, **attrs) -> "Span":
        """Attach (or overwrite) span attributes."""
        with self._lock:
            self.attrs.update(attrs)
        return self

    def event(self, name: str, **attrs) -> None:
        """Record a point-in-time event on this span."""
        with self._lock:
            self.events.append((name, time.perf_counter(), attrs))

    # -- context management ----------------------------------------------------

    def __enter__(self) -> "Span":
        self.tracer._push(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.set(error=f"{exc_type.__name__}: {exc}")
        self.finish()

    def finish(self) -> SpanRecord:
        """End the span and commit it to the flight recorder (idempotent)."""
        end = time.perf_counter()
        with self._lock:
            if self._finished:
                raise RuntimeError(f"span {self.name!r} finished twice")
            self._finished = True
            record = SpanRecord(
                name=self.name,
                trace_id=self.trace_id,
                span_id=self.span_id,
                parent_id=self.parent_id,
                start=self.start,
                end=end,
                thread_id=self._thread_id,
                thread_name=self._thread_name,
                attrs=dict(self.attrs),
                events=list(self.events),
                sim_start=self.sim_start,
                sim_end=(
                    getattr(self._clock, "seconds", None)
                    if self._clock is not None
                    else None
                ),
            )
        self.tracer._pop(self)
        self.tracer.recorder._add(record)
        return record


class _NoopSpan:
    """The disabled-tracer span: every operation is a no-op.

    One process-wide singleton; ``span()`` on a disabled tracer returns it
    without allocating, so instrumented code pays (almost) nothing.
    """

    __slots__ = ()

    trace_id = ""
    span_id = ""
    parent_id = None
    name = ""
    attrs: dict = {}
    events: list = []

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None

    def set(self, **attrs) -> "_NoopSpan":
        return self

    def event(self, name: str, **attrs) -> None:
        return None

    def finish(self) -> None:
        return None


NOOP_SPAN = _NoopSpan()


class FlightRecorder:
    """Bounded ring buffer of recently finished spans.

    The recorder answers "what just happened" after the fact: it keeps the
    most recent ``max_spans`` :class:`SpanRecord` objects (oldest evicted
    first) and can group them back into whole traces. All methods are
    thread-safe.
    """

    def __init__(self, max_spans: int = DEFAULT_MAX_SPANS) -> None:
        if max_spans < 1:
            raise ValueError(f"max_spans must be >= 1, got {max_spans}")
        self.max_spans = max_spans
        self._lock = threading.Lock()
        self._spans: deque[SpanRecord] = deque(maxlen=max_spans)
        self._dropped = 0

    def _add(self, record: SpanRecord) -> None:
        with self._lock:
            if len(self._spans) == self.max_spans:
                self._dropped += 1
            self._spans.append(record)

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)

    @property
    def dropped(self) -> int:
        """Spans evicted by the ring bound since the last :meth:`clear`."""
        with self._lock:
            return self._dropped

    def spans(self) -> list[SpanRecord]:
        """Finished spans, oldest first (a snapshot copy)."""
        with self._lock:
            return list(self._spans)

    def traces(self) -> dict[str, list[SpanRecord]]:
        """Finished spans grouped by ``trace_id``, insertion-ordered."""
        out: dict[str, list[SpanRecord]] = {}
        for record in self.spans():
            out.setdefault(record.trace_id, []).append(record)
        return out

    def trace(self, trace_id: str) -> list[SpanRecord]:
        return [r for r in self.spans() if r.trace_id == trace_id]

    def last_trace(self) -> list[SpanRecord]:
        """Every span of the most recently *finished* trace (often the
        request that just completed — the flight-recorder question)."""
        spans = self.spans()
        if not spans:
            return []
        return [r for r in spans if r.trace_id == spans[-1].trace_id]

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()
            self._dropped = 0


class Tracer:
    """Hands out spans, tracks per-thread nesting, feeds the recorder.

    ``enabled=False`` (the default for the process-wide tracer) makes
    :meth:`span` return the no-op singleton — instrumentation stays in
    place at near-zero cost. One tracer serves any number of threads.
    """

    def __init__(
        self, enabled: bool = True, max_spans: int = DEFAULT_MAX_SPANS
    ) -> None:
        self.enabled = enabled
        self.recorder = FlightRecorder(max_spans=max_spans)
        self._stacks = threading.local()

    # -- per-thread span stack -------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._stacks, "spans", None)
        if stack is None:
            stack = self._stacks.spans = []
        return stack

    def _push(self, span: Span) -> None:
        self._stack().append(span)

    def _pop(self, span: Span) -> None:
        stack = self._stack()
        # A span may finish on a different thread than it entered on only
        # via explicit finish(); tolerate a non-top pop rather than corrupt
        # an unrelated thread's stack.
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:
            stack.remove(span)

    def current(self) -> Span | None:
        """This thread's innermost live span (``None`` outside any span)."""
        stack = self._stack()
        return stack[-1] if stack else None

    # -- span creation ---------------------------------------------------------

    def span(self, name: str, parent=None, clock=None, **attrs):
        """Open a span; use as a context manager (or call ``finish()``).

        ``parent`` overrides the thread-ambient parent — pass the enclosing
        :class:`Span` (or finished :class:`SpanRecord`) when crossing a
        thread boundary, e.g. a measurement pool or a service worker
        continuing a request's trace. ``clock`` attaches a TuningClock for
        dual (host + simulated) timestamps.
        """
        if not self.enabled:
            return NOOP_SPAN
        if parent is None:
            parent = self.current()
        if parent is None or parent is NOOP_SPAN:
            trace_id, parent_id = _next_id(), None
        else:
            trace_id, parent_id = parent.trace_id, parent.span_id
        return Span(self, name, trace_id, parent_id, attrs, clock=clock)

    def event(self, name: str, **attrs) -> None:
        """Record an event on the current span (dropped when none is live)."""
        if not self.enabled:
            return
        span = self.current()
        if span is not None:
            span.event(name, **attrs)


#: The process-wide tracer every instrumented layer reports to. Starts
#: disabled; `enable_tracing()` swaps in a fresh enabled tracer.
_TRACER = Tracer(enabled=False)
_TRACER_LOCK = threading.Lock()


def get_tracer() -> Tracer:
    """The process-wide tracer (disabled by default)."""
    return _TRACER


def set_tracer(tracer: Tracer) -> Tracer:
    """Install ``tracer`` as the process-wide tracer; returns the old one."""
    global _TRACER
    with _TRACER_LOCK:
        old, _TRACER = _TRACER, tracer
    return old


def enable_tracing(max_spans: int = DEFAULT_MAX_SPANS) -> Tracer:
    """Install (and return) a fresh enabled tracer with an empty recorder."""
    tracer = Tracer(enabled=True, max_spans=max_spans)
    set_tracer(tracer)
    return tracer


def disable_tracing() -> Tracer:
    """Swap the process-wide tracer for a disabled one.

    Returns the *previous* tracer, whose flight recorder still holds
    everything captured while tracing was on — disable first, export after.
    """
    return set_tracer(Tracer(enabled=False))


def tracing_enabled() -> bool:
    return _TRACER.enabled


def current_span() -> Span | None:
    """The calling thread's innermost live span on the global tracer."""
    return _TRACER.current()
