"""Serving telemetry: counters, gauges, and latency histograms.

The compile service records everything observable about itself into a
:class:`MetricsRegistry` — request counts per lane, cache hits per tier,
coalesce/shed/tune counts, queue depth, and latency distributions. The
registry is deliberately small and dependency-free (no Prometheus client):
instruments are created on first use, every update is thread-safe, and the
whole registry snapshots to a plain-JSON dict so ``repro metrics`` can
print it and the load generator can reconcile its own request count
against the service's counters.

Instrument semantics:

* :class:`Counter` — monotonically non-decreasing (``inc`` rejects negative
  deltas); the stress tests assert snapshots never go backwards.
* :class:`Gauge` — a point-in-time value (queue depth, in-flight tunes).
* :class:`Histogram` — streaming count/sum/min/max plus a bounded sample
  window for percentile estimates (p50/p90/p95/p99). Percentiles are
  computed over the most recent :data:`Histogram.WINDOW` observations
  (default 4096, per-instrument override via ``window=``) with linear
  interpolation — at serving scale the recent distribution is the one
  worth alerting on; count/sum/min/max remain lifetime-exact. Every
  percentile consumer (``snapshot()``, ``percentile()``, the Prometheus
  exporter) goes through the one :func:`percentile_summary`
  implementation, so p50/p95 cannot drift apart between views.

Concurrency: every instrument created through a registry shares that
registry's single re-entrant lock. Individual updates were always atomic;
sharing one lock additionally makes :meth:`MetricsRegistry.snapshot`
atomic *across* instruments, so accounting identities that hold in the
live registry (``serve.requests >= hits + coalesced + tunes + shed``)
also hold in every persisted snapshot. Instruments constructed standalone
(outside a registry) get a private lock and behave as before.

Tuning-efficiency instruments (learned cost model):

* ``serve.tune.measurements`` — histogram of hardware measurements per
  completed tune; the number the top-k cost model exists to shrink.
* ``serve.model.ranking_accuracy`` — histogram of the cost model's
  self-reported holdout pairwise ranking accuracy at each tune's final
  refit (only observed when a model was attached and actually fitted).

Metric naming: dotted paths, most-general first (``serve.hits.hot``).
:func:`labeled` is the label convention — a metric family plus label-like
suffix parts (``labeled("exec.fallback", "compiled", "no-compiler")`` →
``"exec.fallback.compiled.no-compiler"``), used by the per-backend and
per-tier metrics so families group together in sorted output and map
cleanly onto Prometheus names.

Snapshots persist as JSON (:func:`save_snapshot` / :func:`load_snapshot`);
``repro serve`` writes one next to the schedule cache so a later
``repro metrics`` or ``repro cache stats`` process can report the last
serving session's tier breakdown.
"""

from __future__ import annotations

import json
import math
import os
import threading
import time
from collections import deque

from repro.utils import atomic_write

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SNAPSHOT_FILENAME",
    "labeled",
    "percentile_summary",
    "save_snapshot",
    "load_snapshot",
]

#: File name ``repro serve`` persists its registry snapshot under (inside
#: the cache directory), read back by ``repro metrics``/``cache stats``.
SNAPSHOT_FILENAME = "serve_metrics.json"

#: Percentile points every histogram view reports, as ``(key, q)`` pairs.
PERCENTILES: tuple[tuple[str, float], ...] = (
    ("p50", 50.0),
    ("p90", 90.0),
    ("p95", 95.0),
    ("p99", 99.0),
)


def labeled(name: str, *parts: object) -> str:
    """Join a metric family name with label-like suffix parts.

    The registry has no first-class labels; the convention is dotted
    suffixes on a common family prefix. ``labeled`` normalizes the parts
    (stringified, dots collapsed to dashes so a part can't fake extra
    hierarchy levels) and skips empty ones::

        labeled("exec.fallback", "compiled", "no-compiler")
        -> "exec.fallback.compiled.no-compiler"
    """
    suffix = [str(p).replace(".", "-") for p in parts if str(p)]
    return ".".join([name, *suffix]) if suffix else name


def _interpolated_percentile(samples: list[float], q: float) -> float | None:
    """Linear-interpolated percentile of pre-sorted ``samples`` (None if empty)."""
    if not samples:
        return None
    rank = (len(samples) - 1) * q / 100.0
    lo = math.floor(rank)
    hi = math.ceil(rank)
    if lo == hi:
        return samples[lo]
    return samples[lo] + (samples[hi] - samples[lo]) * (rank - lo)


def percentile_summary(samples: list[float]) -> dict[str, float | None]:
    """The shared percentile computation: ``{"p50": ..., ..., "p99": ...}``.

    Single source of truth for every percentile a histogram reports —
    ``Histogram.percentile``, ``Histogram.snapshot``, and the Prometheus
    exporter all reduce to this one function over the same sorted window.
    """
    samples = sorted(samples)
    return {key: _interpolated_percentile(samples, q) for key, q in PERCENTILES}


class Counter:
    """Monotonically non-decreasing event count."""

    kind = "counter"

    def __init__(self, name: str, help: str = "", lock=None) -> None:
        self.name = name
        self.help = help
        self._lock = lock if lock is not None else threading.Lock()
        self._value = 0

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (inc {n})")
        with self._lock:
            self._value += n

    @property
    def value(self) -> int:
        return self._value

    def snapshot(self) -> int:
        return self._value


class Gauge:
    """Point-in-time value (queue depth, in-flight work)."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "", lock=None) -> None:
        self.name = name
        self.help = help
        self._lock = lock if lock is not None else threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def inc(self, n: float = 1) -> None:
        with self._lock:
            self._value += n

    def dec(self, n: float = 1) -> None:
        with self._lock:
            self._value -= n

    @property
    def value(self) -> float:
        return self._value

    def snapshot(self) -> float:
        return self._value


class Histogram:
    """Latency/size distribution: streaming stats + recent-sample window.

    ``count``/``sum``/``min``/``max`` are exact over the instrument's
    lifetime; percentiles are estimated over a bounded window of the most
    recent ``window`` observations (default :data:`WINDOW`). The bound is
    deliberate: it caps memory per instrument and biases percentiles
    toward current behaviour rather than a startup transient.
    """

    kind = "histogram"

    #: Default percentile window (most recent observations kept).
    WINDOW = 4096

    def __init__(
        self, name: str, help: str = "", lock=None, window: int | None = None
    ) -> None:
        if window is not None and window < 1:
            raise ValueError(f"histogram window must be >= 1, got {window}")
        self.name = name
        self.help = help
        self.window = window if window is not None else self.WINDOW
        self._lock = lock if lock is not None else threading.Lock()
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._window: deque[float] = deque(maxlen=self.window)

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self.count += 1
            self.sum += value
            self.min = min(self.min, value)
            self.max = max(self.max, value)
            self._window.append(value)

    def percentile(self, q: float) -> float:
        """Linear-interpolated percentile of the sample window (nan if empty)."""
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        with self._lock:
            samples = sorted(self._window)
        value = _interpolated_percentile(samples, q)
        return float("nan") if value is None else value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else float("nan")

    def snapshot(self) -> dict:
        with self._lock:
            return self._snapshot_locked()

    def _snapshot_locked(self) -> dict:
        """Snapshot body; caller must hold ``self._lock``."""
        out = {
            "count": self.count,
            "sum": self.sum,
            "mean": self.sum / self.count if self.count else None,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "window": self.window,
        }
        out.update(percentile_summary(list(self._window)))
        return out


class MetricsRegistry:
    """Named instruments, created on first use, snapshotable as JSON.

    One registry per :class:`~repro.serving.service.CompileService`; the
    load generator and the CLI read the same object. Instrument names are
    dotted paths (``"serve.hits.hot"``); re-requesting a name returns the
    same instrument, and requesting it as a different kind raises.

    All instruments share the registry's re-entrant lock, which makes
    :meth:`snapshot` a point-in-time cut across the whole registry (no
    update can land between reading one instrument and the next).
    """

    def __init__(self) -> None:
        # Re-entrant: snapshot() holds it while calling into instrument
        # snapshots that take the same lock.
        self._lock = threading.RLock()
        self._instruments: dict[str, Counter | Gauge | Histogram] = {}
        self.created_at = time.time()

    def _get(self, cls, name: str, help: str, **kwargs):
        with self._lock:
            inst = self._instruments.get(name)
            if inst is None:
                inst = cls(name, help, lock=self._lock, **kwargs)
                self._instruments[name] = inst
            elif not isinstance(inst, cls):
                raise TypeError(
                    f"metric {name!r} is a {inst.kind}, requested {cls.kind}"
                )
            return inst

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get(Gauge, name, help)

    def histogram(
        self, name: str, help: str = "", window: int | None = None
    ) -> Histogram:
        return self._get(Histogram, name, help, window=window)

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._instruments)

    def value(self, name: str) -> float:
        """Current value of a counter/gauge (KeyError if absent)."""
        with self._lock:
            inst = self._instruments[name]
        if isinstance(inst, Histogram):
            raise TypeError(f"metric {name!r} is a histogram; use snapshot()")
        return inst.value

    def snapshot(self) -> dict:
        """JSON-able view: ``{"counters": ..., "gauges": ..., "histograms": ...}``.

        Atomic across instruments: the registry lock is held for the whole
        pass, so no concurrent update can split a multi-counter identity
        (``serve.requests`` is incremented before any outcome counter, so
        every snapshot satisfies ``sum(outcomes) <= requests``, with
        equality once the service quiesces). Counters in one snapshot are
        always >= the same counters in an earlier snapshot of the same
        registry (monotonicity is enforced at ``inc`` time), which is what
        lets the stress tests sample snapshots mid-run.
        """
        out: dict = {"counters": {}, "gauges": {}, "histograms": {}}
        with self._lock:
            for name, inst in sorted(self._instruments.items()):
                out[inst.kind + "s"][name] = inst.snapshot()
            out["snapshot_at"] = time.time()
        out["created_at"] = self.created_at
        return out

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)


def save_snapshot(snapshot: dict, path: str | os.PathLike) -> str:
    """Persist a registry snapshot atomically; returns the path written."""
    path = os.fspath(path)
    atomic_write(path, json.dumps(snapshot, indent=2, sort_keys=True))
    return path


def load_snapshot(path: str | os.PathLike) -> dict | None:
    """Read a persisted snapshot; ``None`` when absent or unreadable."""
    try:
        with open(os.fspath(path), encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError):
        return None
    return doc if isinstance(doc, dict) else None
