"""Serving layer: the in-process fusion compile service.

Composes the schedule cache and the parallel search engine into a
concurrent serving story: signature-first admission, non-recording cache
reads, request coalescing, priority lanes with load shedding, and a
telemetry registry. See :mod:`repro.serving.service` for the full design
and ``docs/architecture.md`` ("Serving layer") for the diagram.
"""

from repro.serving.service import (
    LANES,
    CompileService,
    ModelTicket,
    QueueFull,
    ServeResult,
    ServeTicket,
    ServiceClosed,
)
from repro.serving.telemetry import (
    SNAPSHOT_FILENAME,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    load_snapshot,
    save_snapshot,
)
from repro.serving.tiers import TieredCache

__all__ = [
    "LANES",
    "CompileService",
    "ModelTicket",
    "QueueFull",
    "ServeResult",
    "ServeTicket",
    "ServiceClosed",
    "TieredCache",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SNAPSHOT_FILENAME",
    "save_snapshot",
    "load_snapshot",
]
