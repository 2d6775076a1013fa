"""The benchmark's own span recorder.

Per-layer numbers are measured from *outside* the program: a
:class:`Recorder` wraps the public functions each layer exposes
(``build_schedule``, ``estimate_time``, ``TieredCache.lookup``, ...) and
records one span per call — name, start, end and the enclosing span on the
same thread. A layer's self time is its span's duration minus what its
direct child spans cover. Wrappers are installed only for a traced run and
removed afterwards, so untraced runs execute the program unmodified.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass

__all__ = ["Recorder", "SpanRecord", "summarize"]


@dataclass
class SpanRecord:
    name: str
    start: float
    end: float = 0.0
    phase: str = ""
    children_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.children_s


class Recorder:
    """Thread-aware span recorder plus the patching that feeds it."""

    def __init__(self) -> None:
        self.spans: list[SpanRecord] = []
        self.phase = ""
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------------

    def _stack(self) -> list[SpanRecord]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        record = self._open(name)
        try:
            yield record
        finally:
            self._close(record)

    def _open(self, name: str) -> SpanRecord:
        record = SpanRecord(name, time.perf_counter(), phase=self.phase)
        self._stack().append(record)
        return record

    def _close(self, record: SpanRecord) -> None:
        record.end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        if stack:
            stack[-1].children_s += record.duration
        with self._lock:
            self.spans.append(record)

    # -- patching --------------------------------------------------------------

    def _wrap(self, fn, name: str):
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = recorder._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                recorder._close(record)

        return wrapper

    def patch_function(self, module: str, attr: str, name: str,
                       only_in: tuple[str, ...] | None = None) -> None:
        """Wrap ``module.attr`` wherever the ``repro`` package binds it.

        ``from x import f`` copies the function object into the importing
        module, so every ``repro.*`` module attribute that *is* the original
        gets the wrapper. ``only_in`` restricts patching to the named
        modules, which lets one function report under two span names
        depending on its caller.
        """
        original = getattr(sys.modules[module], attr)
        wrapper = self._wrap(original, name)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            if only_in is not None and mod_name not in only_in:
                continue
            if getattr(mod, attr, None) is original:
                self._undo.append((mod, attr, original))
                setattr(mod, attr, wrapper)

    def patch_method(self, cls, attr: str, name: str) -> None:
        original = cls.__dict__[attr]
        self._undo.append((cls, attr, original))
        setattr(cls, attr, self._wrap(original, name))

    def unpatch(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- queries ---------------------------------------------------------------

    def select(self, name: str, phase: str | None = None) -> list[SpanRecord]:
        return [
            s for s in self.spans
            if s.name == name and (phase is None or s.phase == phase)
        ]


def summarize(spans) -> dict[str, dict]:
    """Count, total and self seconds per span name.

    Accepts this module's records or the program's own
    ``repro.obs`` span records (which carry ``span_id``/``parent_id``
    instead of a precomputed child total).
    """
    spans = list(spans)
    child_s: dict[str, float] = {}
    for s in spans:
        parent = getattr(s, "parent_id", None)
        if parent is not None:
            child_s[parent] = child_s.get(parent, 0.0) + s.duration
    rollup: dict[str, dict] = {}
    for s in spans:
        children = (
            s.children_s if isinstance(s, SpanRecord)
            else child_s.get(s.span_id, 0.0)
        )
        row = rollup.setdefault(s.name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
        row["count"] += 1
        row["total_s"] += s.duration
        row["self_s"] += s.duration - children
    return rollup
