"""Trace and metrics exporters: Chrome-trace JSON, Prometheus text, JSONL.

Three consumers, three formats, one span model:

* :func:`chrome_trace` — the Chrome trace-event format (the "JSON Array
  with metadata" flavour: ``{"traceEvents": [...]}``), loadable in
  Perfetto / ``chrome://tracing``. One row per thread: ``pid`` is the
  process, ``tid`` the originating thread, with ``M``-phase metadata
  events naming each row after its thread (``worker-0``, ``measure-1``,
  ``MainThread``). Spans with children emit ``B``/``E`` duration pairs so
  the viewer nests them; childless spans emit a single ``X`` complete
  event; span events emit ``i`` instants. Timestamps are microseconds on
  the span's host-monotonic clock, rebased to the earliest span so traces
  start near zero.
* :func:`prometheus_text` — text exposition format (version 0.0.4) over a
  :class:`~repro.serving.telemetry.MetricsRegistry` *or* a persisted
  snapshot dict (duck-typed so this module never imports the serving
  package — the obs layer must stay import-light). Counters become
  ``repro_<name>_total``, gauges plain gauges, histograms Prometheus
  summaries (``quantile``-labelled samples plus ``_sum``/``_count``).
* :func:`save_trace_jsonl` / :func:`load_trace_jsonl` — structured JSONL
  persistence of raw span records in the cache dir (``traces.jsonl``),
  for offline analysis without a trace viewer.

:func:`validate_chrome_trace` is the schema check the obs-smoke CI job
runs against emitted traces: known phases only, ``B``/``E`` balance per
(pid, tid), non-negative monotonic ``ts`` within each ``B``/``E`` stack,
and required keys per phase.
"""

from __future__ import annotations

import json
import math
import os
from typing import Iterable

from repro.utils import atomic_write

from .tracer import FlightRecorder, SpanRecord

__all__ = [
    "TRACE_FILENAME",
    "chrome_trace",
    "save_chrome_trace",
    "validate_chrome_trace",
    "prometheus_text",
    "save_trace_jsonl",
    "load_trace_jsonl",
    "trace_coverage",
]

#: File name traced runs persist raw spans under (inside the cache dir).
TRACE_FILENAME = "traces.jsonl"


def _span_records(spans) -> list[SpanRecord]:
    if isinstance(spans, FlightRecorder):
        return spans.spans()
    return list(spans)


def _json_safe(value):
    """Coerce attr values into something json.dumps accepts."""
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    if isinstance(value, float):
        return value if math.isfinite(value) else repr(value)
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    return repr(value)


def _args(record: SpanRecord) -> dict:
    args = {str(k): _json_safe(v) for k, v in record.attrs.items()}
    args["trace_id"] = record.trace_id
    args["span_id"] = record.span_id
    if record.parent_id:
        args["parent_id"] = record.parent_id
    if record.sim_duration is not None:
        args["sim_seconds"] = record.sim_duration
    return args


def chrome_trace(spans: Iterable[SpanRecord] | FlightRecorder) -> dict:
    """Render finished spans as a Chrome trace-event document.

    Deliberately exercises all three duration phases: parents emit
    ``B``/``E`` pairs, leaves emit ``X`` complete events, and span events
    emit ``i`` instants — plus ``M`` metadata rows naming each thread.
    """
    records = _span_records(spans)
    pid = os.getpid()
    events: list[dict] = []
    if not records:
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    base = min(r.start for r in records)
    parents = {r.parent_id for r in records if r.parent_id}

    def us(t: float) -> float:
        return round((t - base) * 1e6, 3)

    threads: dict[int, str] = {}
    for r in records:
        threads.setdefault(r.thread_id, r.thread_name)
    for tid, name in sorted(threads.items()):
        events.append(
            {
                "ph": "M",
                "name": "thread_name",
                "pid": pid,
                "tid": tid,
                "args": {"name": name},
            }
        )

    # Chrome requires a thread's B/E events to appear in file order matching
    # their nesting, so emission walks each tid's spans in start order with
    # an explicit open-span stack: before opening the next span, every open
    # span that ended at or before its start is closed. Same-thread spans
    # are well-nested by construction (thread-local span stacks), so this
    # reproduces the nesting exactly.
    by_tid: dict[int, list[SpanRecord]] = {}
    for r in records:
        by_tid.setdefault(r.thread_id, []).append(r)

    def emit_instants(r: SpanRecord) -> None:
        for name, ts, attrs in r.events:
            events.append(
                {
                    "name": name,
                    "pid": pid,
                    "tid": r.thread_id,
                    "cat": "repro",
                    "ph": "i",
                    "ts": us(ts),
                    "s": "t",
                    "args": {str(k): _json_safe(v) for k, v in attrs.items()},
                }
            )

    def close(r: SpanRecord) -> None:
        events.append(
            {
                "name": r.name,
                "pid": pid,
                "tid": r.thread_id,
                "cat": "repro",
                "ph": "E",
                "ts": us(r.end),
            }
        )

    for tid in sorted(by_tid):
        open_stack: list[SpanRecord] = []
        for r in sorted(by_tid[tid], key=lambda r: (r.start, -r.duration)):
            while open_stack and open_stack[-1].end <= r.start:
                close(open_stack.pop())
            common = {"name": r.name, "pid": pid, "tid": tid, "cat": "repro"}
            if r.span_id in parents:
                events.append(
                    {**common, "ph": "B", "ts": us(r.start), "args": _args(r)}
                )
                open_stack.append(r)
            else:
                events.append(
                    {
                        **common,
                        "ph": "X",
                        "ts": us(r.start),
                        "dur": max(round(r.duration * 1e6, 3), 0.001),
                        "args": _args(r),
                    }
                )
            emit_instants(r)
        while open_stack:
            close(open_stack.pop())
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def save_chrome_trace(
    spans: Iterable[SpanRecord] | FlightRecorder, path: str | os.PathLike
) -> str:
    """Validate and write a Chrome-trace JSON file; returns the path."""
    doc = chrome_trace(spans)
    validate_chrome_trace(doc)
    path = os.fspath(path)
    atomic_write(path, json.dumps(doc))
    return path


_PHASES = {"B", "E", "X", "i", "M"}


def validate_chrome_trace(doc: dict) -> None:
    """Schema-check a Chrome-trace document; raises ``ValueError`` on defects.

    Checks: top-level shape, known phases only, required keys per phase
    (``ts`` on all non-``M`` events, ``dur`` on ``X``), non-negative
    timestamps, and per-(pid, tid) ``B``/``E`` balance with properly
    nested, monotonically ordered begin/end pairs.
    """
    if not isinstance(doc, dict) or not isinstance(doc.get("traceEvents"), list):
        raise ValueError("trace must be a dict with a 'traceEvents' list")
    stacks: dict[tuple, list] = {}
    for i, ev in enumerate(doc["traceEvents"]):
        if not isinstance(ev, dict):
            raise ValueError(f"event {i} is not an object")
        ph = ev.get("ph")
        if ph not in _PHASES:
            raise ValueError(f"event {i}: unknown phase {ph!r}")
        if "name" not in ev or "pid" not in ev or "tid" not in ev:
            raise ValueError(f"event {i}: missing name/pid/tid")
        if ph == "M":
            continue
        ts = ev.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0 or not math.isfinite(ts):
            raise ValueError(f"event {i}: bad ts {ts!r}")
        key = (ev["pid"], ev["tid"])
        if ph == "B":
            stack = stacks.setdefault(key, [])
            if stack and ts < stack[-1][1]:
                raise ValueError(f"event {i}: B ts {ts} precedes enclosing B")
            stack.append((ev["name"], ts))
        elif ph == "E":
            stack = stacks.get(key)
            if not stack:
                raise ValueError(f"event {i}: E without matching B on tid {key[1]}")
            name, begin_ts = stack.pop()
            if ts < begin_ts:
                raise ValueError(f"event {i}: E ts {ts} precedes its B ts {begin_ts}")
        elif ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0 or not math.isfinite(dur):
                raise ValueError(f"event {i}: X missing/bad dur {dur!r}")
    for (pid, tid), stack in stacks.items():
        if stack:
            raise ValueError(
                f"unbalanced B/E on pid {pid} tid {tid}: {len(stack)} unclosed"
            )


# -- Prometheus text exposition ------------------------------------------------


def _prom_name(name: str, suffix: str = "") -> str:
    safe = "".join(c if c.isalnum() or c == "_" else "_" for c in name)
    if safe and safe[0].isdigit():
        safe = "_" + safe
    return f"repro_{safe}{suffix}"


def _prom_value(value) -> str:
    if value is None:
        return "NaN"
    value = float(value)
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def prometheus_text(registry_or_snapshot) -> str:
    """Render a metrics registry (or persisted snapshot dict) as Prometheus
    text exposition format (0.0.4).

    Counters are exported as ``repro_<name>_total`` counters, gauges as
    gauges, histograms as summaries: ``quantile``-labelled percentile
    samples from the shared bounded-window estimator plus exact
    ``_sum``/``_count`` series. Dots in metric names become underscores.
    Accepts either a live ``MetricsRegistry`` (snapshotted atomically) or
    a dict previously produced by ``MetricsRegistry.snapshot()`` — the
    registry type is duck-typed so this module stays import-light.
    """
    snap = registry_or_snapshot
    if hasattr(snap, "snapshot"):
        snap = snap.snapshot()
    if not isinstance(snap, dict):
        raise TypeError(
            f"expected MetricsRegistry or snapshot dict, got {type(snap).__name__}"
        )
    lines: list[str] = []
    for name, value in sorted(snap.get("counters", {}).items()):
        prom = _prom_name(name, "_total")
        lines.append(f"# HELP {prom} Counter {name}")
        lines.append(f"# TYPE {prom} counter")
        lines.append(f"{prom} {_prom_value(value)}")
    for name, value in sorted(snap.get("gauges", {}).items()):
        prom = _prom_name(name)
        lines.append(f"# HELP {prom} Gauge {name}")
        lines.append(f"# TYPE {prom} gauge")
        lines.append(f"{prom} {_prom_value(value)}")
    for name, hist in sorted(snap.get("histograms", {}).items()):
        prom = _prom_name(name)
        lines.append(f"# HELP {prom} Histogram {name} (bounded-window summary)")
        lines.append(f"# TYPE {prom} summary")
        for key, q in (("p50", "0.5"), ("p90", "0.9"), ("p95", "0.95"), ("p99", "0.99")):
            lines.append(
                f'{prom}{{quantile="{q}"}} {_prom_value(hist.get(key))}'
            )
        lines.append(f"{prom}_sum {_prom_value(hist.get('sum', 0))}")
        lines.append(f"{prom}_count {_prom_value(hist.get('count', 0))}")
    return "\n".join(lines) + "\n"


# -- JSONL persistence ---------------------------------------------------------


def save_trace_jsonl(
    spans: Iterable[SpanRecord] | FlightRecorder, path: str | os.PathLike
) -> str:
    """Persist span records as JSON-lines (one span per line), atomically;
    returns the path."""
    path = os.fspath(path)
    atomic_write(path, "".join(
        json.dumps(record.to_dict(), sort_keys=True) + "\n"
        for record in _span_records(spans)
    ))
    return path


def load_trace_jsonl(path: str | os.PathLike) -> list[dict]:
    """Read persisted span dicts back; corrupt lines are skipped, not fatal."""
    out: list[dict] = []
    try:
        with open(os.fspath(path), encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    doc = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if isinstance(doc, dict):
                    out.append(doc)
    except OSError:
        return []
    return out


# -- coverage ------------------------------------------------------------------


def trace_coverage(spans: Iterable[SpanRecord] | FlightRecorder, root_name: str | None = None) -> float:
    """Fraction of root-span wall-clock covered by its child spans, in [0, 1].

    The acceptance bar for a traced tune: child spans (search rounds,
    measurement batches, lowering, compiles) should account for >= 95% of
    the root's duration. Child intervals are merged per root (union, not
    sum) so overlapping concurrent measurement spans aren't double-counted.
    """
    records = _span_records(spans)
    if root_name is not None:
        roots = [r for r in records if r.name == root_name]
    else:
        roots = [r for r in records if r.parent_id is None]
    if not roots:
        return 0.0
    total = covered = 0.0
    for root in roots:
        if root.duration <= 0:
            continue
        total += root.duration
        intervals = sorted(
            (max(r.start, root.start), min(r.end, root.end))
            for r in records
            if r.parent_id == root.span_id and r.end > root.start and r.start < root.end
        )
        cursor = None
        for lo, hi in intervals:
            if cursor is None or lo > cursor:
                covered += hi - lo
                cursor = hi
            elif hi > cursor:
                covered += hi - cursor
                cursor = hi
    return covered / total if total else 0.0
