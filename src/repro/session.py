"""Session: the long-lived resources a :class:`SessionConfig` implies.

A :class:`~repro.config.SessionConfig` is pure data — every knob, nothing
alive. A :class:`Session` turns it into the working set those knobs call
for, created lazily and shared across everything the session runs:

* the persistent :class:`~repro.cache.cache.ScheduleCache` (when
  ``config.cache.enabled``),
* the persistent :class:`~repro.search.cost_model.LearnedCostModel` +
  measurement dataset (when the config asks for cost-model guidance),
* a :class:`~repro.serving.telemetry.MetricsRegistry`,
* the process tracer (enabled when ``config.obs.trace``),
* and, on first use, a :class:`~repro.serving.service.CompileService`,
  which also runs batch warmup (:meth:`Session.tune_all`).

So instead of hand-wiring five objects::

    config = SessionConfig.make(seed=3, strategy="evolutionary")
    cache = ScheduleCache(default_cache_dir())
    model = open_cost_model(default_cache_dir(), seed=3)
    tuner = MCFuserTuner(A100, cache=cache, cost_model=model, config=config)
    report = tuner.tune(chain)

callers write::

    from repro import Session, SessionConfig

    session = Session(SessionConfig.make(seed=3, strategy="evolutionary"))
    report = session.tune(chain)            # chain-level
    result = session.compile("bert-small")  # model-level

The session is a context manager; ``close()`` shuts down the compile
service (if one was started), persists the cost model (if one learned
anything new) and, when the session turned tracing on, turns it off and
writes the recorded spans to ``traces.jsonl`` in the cache directory.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING

from repro.config import SessionConfig
from repro.gpu.specs import GPUSpec, by_name

if TYPE_CHECKING:  # pragma: no cover
    from repro.cache.cache import ScheduleCache
    from repro.frontend.executor import E2EResult
    from repro.ir.chain import ComputeChain
    from repro.search.cost_model import LearnedCostModel
    from repro.search.tuner import MCFuserTuner, TuneReport
    from repro.serving.service import CompileService, ServeResult
    from repro.serving.telemetry import MetricsRegistry

__all__ = ["Session"]

#: Sentinel for "attribute not materialized yet" (``None`` is a real value:
#: e.g. the cache of a ``cache.enabled=False`` session).
_LAZY = object()


class Session:
    """Owns the shared resources of one tuning/serving session.

    Args:
        config: The session's :class:`~repro.config.SessionConfig`;
            ``None`` means :meth:`SessionConfig.default` (defaults with
            ``REPRO_*`` environment overrides applied).
        gpu: A live :class:`~repro.gpu.specs.GPUSpec` for custom hardware
            descriptions; ``None`` resolves the registered spec named by
            ``config.gpu``.

    Every resource is created lazily on first access and cached on the
    session, so a ``Session`` is cheap to construct and only pays for what
    the caller actually touches. Resources are *owned* singletons: every
    tuner, compile, and the compile service built by this session share
    the same cache, cost model, and metrics registry — that sharing is the
    point of having a session.
    """

    def __init__(
        self, config: SessionConfig | None = None, gpu: "GPUSpec | None" = None
    ) -> None:
        self.config = config if config is not None else SessionConfig.default()
        if not isinstance(self.config, SessionConfig):
            raise ValueError(
                f"config must be a SessionConfig, got {type(self.config).__name__}"
            )
        self.gpu = gpu if gpu is not None else by_name(self.config.gpu)
        self._cache = _LAZY
        self._cost_model = _LAZY
        self._metrics = _LAZY
        self._service: "CompileService | None" = None
        self._tracing = self.config.obs.trace
        if self._tracing:
            from repro.obs import enable_tracing

            enable_tracing()

    # -- owned resources ------------------------------------------------------

    @property
    def cache(self) -> "ScheduleCache | None":
        """The persistent schedule cache (``None`` when disabled)."""
        if self._cache is _LAZY:
            if self.config.cache.enabled:
                from repro.cache.cache import ScheduleCache

                self._cache = ScheduleCache(self.config.cache.resolved_dir())
            else:
                self._cache = None
        return self._cache

    @property
    def cost_model(self) -> "LearnedCostModel | None":
        """The persistent learned cost model + dataset pair.

        Materialized only when the config asks for guidance
        (``search.cost_model`` or ``search.measure_topk > 0``); restored
        from the cache directory's snapshot when one exists so learning
        accumulates across processes.
        """
        if self._cost_model is _LAZY:
            if self.config.search.cost_model or self.config.search.measure_topk > 0:
                from repro.search.cost_model import open_cost_model

                self._cost_model = open_cost_model(
                    self.config.cache.resolved_dir(), seed=self.config.search.seed
                )
            else:
                self._cost_model = None
        return self._cost_model

    @property
    def metrics(self) -> "MetricsRegistry":
        """The session's metrics registry (shared with its service)."""
        if self._metrics is _LAZY:
            from repro.serving.telemetry import MetricsRegistry

            self._metrics = MetricsRegistry()
        return self._metrics

    @property
    def tracer(self):
        """The process tracer (a no-op tracer unless ``obs.trace`` or a
        caller enabled tracing)."""
        from repro.obs import get_tracer

        return get_tracer()

    @property
    def service(self) -> "CompileService":
        """The session's compile service, started on first access."""
        if self._service is None:
            from repro.serving.service import CompileService

            self._service = CompileService(
                self.gpu,
                cache=self.cache,
                telemetry=self.metrics,
                cost_model=self.cost_model,
                config=self.config,
            )
        return self._service

    # -- the work -------------------------------------------------------------

    def tuner(self) -> "MCFuserTuner":
        """A fresh tuner wired to the session's cache and cost model."""
        from repro.search.tuner import MCFuserTuner

        return MCFuserTuner(
            self.gpu,
            cache=self.cache,
            cost_model=self.cost_model,
            config=self.config,
        )

    def tune(self, chain: "ComputeChain") -> "TuneReport":
        """Tune one compute chain under the session config."""
        return self.tuner().tune(chain)

    def tune_all(self, chains) -> "list[ServeResult]":
        """Tune many chains through the session's compile service.

        Returns one :class:`~repro.serving.service.ServeResult` per input
        chain, in input order. Every chain is submitted on the background
        lane; the service's cache ladder and request coalescing tune each
        distinct workload signature once, on ``serve.workers`` threads,
        and store the result in the session cache. Like any service
        submit, more unique uncached signatures than ``serve.queue_limit``
        fail the extra tickets with
        :class:`~repro.serving.service.QueueFull`, which this call raises.
        """
        return [t.result() for t in self.service.prefetch(list(chains))]

    def compile(self, model, strategy: str = "mcfuser+relay") -> "E2EResult":
        """Compile a whole model (a :class:`~repro.ir.graph.Graph` or a
        model-level workload name) end to end under the session config.

        MBCI sub-graph tuning goes through the session's :attr:`service`,
        so it uses the session's cache, cost model and metrics.
        """
        from repro.frontend.executor import compile_model

        return compile_model(
            model, self.gpu, strategy, service=self.service, config=self.config
        )

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        """Shut down the service (if started) and persist what learned.

        Idempotent. The cost model is refit from any new measurements and
        snapshotted next to the cache so the next session warm-starts. If
        the session turned tracing on, tracing goes off and the recorded
        spans are written to ``traces.jsonl`` in the cache directory.
        """
        if self._service is not None:
            self._service.close()
            self._service = None
        model = self._cost_model
        if model is not _LAZY and model is not None:
            from repro.search.cost_model import default_model_path

            model.fit()
            if model.ready:
                model.save(
                    default_model_path(self.config.cache.resolved_dir())
                )
        if self._tracing:
            from repro.obs import TRACE_FILENAME, disable_tracing, save_trace_jsonl

            self._tracing = False
            spans = disable_tracing().recorder.spans()
            if spans:
                save_trace_jsonl(
                    spans,
                    os.path.join(self.config.cache.resolved_dir(), TRACE_FILENAME),
                )

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return (
            f"Session(gpu={self.gpu.name!r}, "
            f"variant_key={self.config.variant_key!r}, "
            f"hash={self.config.content_hash()[:8]})"
        )
