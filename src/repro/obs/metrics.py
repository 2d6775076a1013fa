"""Process-global metrics hook for layers below the serving tier.

The serving stack threads a :class:`~repro.serving.telemetry.MetricsRegistry`
through explicitly, but the codegen layer (``execute_schedule``,
``compile_schedule``, the clang runtime) is called from everywhere —
tests, the CLI, pool threads, the tuner — with no registry in scope.
This module gives those layers one process-global registry to count into
(the interpreter's ``exec.fallback.*`` counters), plus :func:`set_metrics`
to install a different registry and :func:`reset_metrics` to drop it (the
test suite resets it around every test). Nothing installs the compile
service's registry here: ``repro serve`` snapshots the service's own
registry, which does not include these counters.

Imports are deliberately lazy: ``repro.obs`` must be importable from any
codegen module without dragging in the serving package (which imports the
tuner, which imports the interpreter — a cycle).
"""

from __future__ import annotations

import threading

__all__ = ["get_metrics", "set_metrics", "reset_metrics"]

_LOCK = threading.Lock()
_REGISTRY = None


def get_metrics():
    """The process-global :class:`MetricsRegistry`, created on first use."""
    global _REGISTRY
    with _LOCK:
        if _REGISTRY is None:
            from repro.serving.telemetry import MetricsRegistry

            _REGISTRY = MetricsRegistry()
        return _REGISTRY


def set_metrics(registry):
    """Install ``registry`` as the process-global one; returns the old
    registry (or ``None`` if none had been created yet)."""
    global _REGISTRY
    with _LOCK:
        old, _REGISTRY = _REGISTRY, registry
    return old


def reset_metrics():
    """Drop the process-global registry; the next ``get_metrics`` starts
    fresh. Test isolation hook."""
    return set_metrics(None)
