"""CompileService: the in-process fusion compile service.

Production traffic hits the same handful of workload shapes from many
callers at once, so the serving layer's job is to make sure *concurrent
identical requests share one tuning run* and everything else is a cache
hit. The service composes the pieces the earlier layers provide:

* **signature-first admission** — :func:`~repro.cache.cache.resolve`,
  the same exact → bucket → miss ladder the tuner walks, runs at submit
  time, before any queueing, so deduplication happens at the door;
* **cache reads** (:class:`~repro.serving.tiers.TieredCache`, a
  non-recording view of the schedule cache) — hits resolve inline on the
  caller's thread through the tuner's own finishing step
  (:func:`~repro.search.tuner.finish_report`), never touching the queue
  and never writing the store;
* **request coalescing** — a submit whose signature is already being tuned
  attaches to the in-flight job and shares its result (futures fan-out);
* **worker pool with lanes** — a bounded priority queue feeds N worker
  threads; ``interactive`` requests overtake ``background`` warmup ones,
  and a full queue load-sheds (the ticket fails with :class:`QueueFull`
  instead of stalling the caller);
* **telemetry** — every outcome is counted in a
  :class:`~repro.serving.telemetry.MetricsRegistry`.

Request accounting invariant (error-free runs)::

    serve.requests == serve.hits.{hot,bucket} + serve.coalesced
                      + serve.tunes + serve.shed

(``serve.hits.hot`` counts exact-signature hits; ``serve.hits.bucket``
counts bucketed-signature hits under ``dynamic="buckets"`` — a
ceiling-tuned schedule rebuilt at the request shape.)

(a failed tune moves its *creating* request from ``tunes`` to
``errors``, and a hit that fails verification counts under ``errors``
too; coalesced riders stay counted under ``coalesced``). The load
generator (:mod:`repro.experiments.serve_load`) reconciles its own request
count against this identity.

Typical use::

    with CompileService(A100, cache=default_cache()) as svc:
        svc.prefetch(["G1", "S2"])                  # background warmup lane
        result = svc.compile("G4")                  # interactive
        print(result.source, result.report.best_time)
"""

from __future__ import annotations

import dataclasses
import itertools
import queue
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from repro.cache.cache import Resolution, resolve
from repro.config import SessionConfig
from repro.gpu.specs import GPUSpec, by_name
from repro.search.tuner import (
    MCFuserTuner,
    TuneReport,
    VerificationError,
    finish_report,
)
from repro.serving.telemetry import MetricsRegistry
from repro.serving.tiers import TieredCache

if TYPE_CHECKING:  # pragma: no cover
    from repro.frontend.partition import Partition
    from repro.ir.chain import ComputeChain
    from repro.ir.graph import Graph
    from repro.search.cost_model import LearnedCostModel

__all__ = [
    "LANES",
    "QueueFull",
    "ServiceClosed",
    "ServeResult",
    "ServeTicket",
    "ModelTicket",
    "CompileService",
]

#: Request lanes, highest priority first.
LANES = ("interactive", "background")

_LANE_PRIORITY = {"interactive": 0, "background": 1}
_SENTINEL_PRIORITY = 9


class QueueFull(RuntimeError):
    """The bounded tune queue was full and the request was load-shed."""


class ServiceClosed(RuntimeError):
    """The service was closed; no new requests are admitted."""


@dataclass
class ServeResult:
    """One served compile request.

    Attributes:
        signature: Workload signature the request resolved under.
        report: The tuned (or cache-restored) :class:`TuneReport`.
        source: How the request was satisfied — ``"hot"`` (cache entry
            under the exact signature), ``"bucket"`` (ceiling-tuned
            entry found under the bucketed signature, rebuilt at the
            request shape), ``"tuned"`` (this request triggered the tune),
            or ``"coalesced"`` (rode along on another request's in-flight
            tune).
        latency_seconds: Wall time from submit to resolution.
        lane: Admission lane of the request.
        workload: Chain name at submit time (diagnostic only).
    """

    signature: str
    report: TuneReport
    source: str
    latency_seconds: float
    lane: str
    workload: str


class ServeTicket:
    """Handle for one submitted request; resolves to a :class:`ServeResult`.

    ``chain`` is the *request* chain: under dynamic bucketing, coalesced
    tickets sharing one ceiling tune may each carry a different in-bucket
    shape, and the worker finishes the tuned report on each ticket's
    actual chain before resolving it.
    """

    def __init__(
        self, signature: str, lane: str, workload: str, chain: "ComputeChain | None" = None
    ) -> None:
        self.signature = signature
        self.lane = lane
        self.workload = workload
        self.chain = chain
        self.submitted_at = time.perf_counter()
        self._future: "Future[ServeResult]" = Future()

    def done(self) -> bool:
        return self._future.done()

    def result(self, timeout: float | None = None) -> ServeResult:
        """Block for the result; raises :class:`QueueFull` if load-shed."""
        return self._future.result(timeout)

    # -- service side --------------------------------------------------------

    def _resolve(self, report: TuneReport, source: str, histogram=None) -> ServeResult:
        """Complete the ticket; ``histogram`` (a latency histogram) is
        observed *before* the waiter is woken, so telemetry sampled at
        client-unblock time already includes this request."""
        result = ServeResult(
            signature=self.signature,
            report=report,
            source=source,
            latency_seconds=time.perf_counter() - self.submitted_at,
            lane=self.lane,
            workload=self.workload,
        )
        if histogram is not None:
            histogram.observe(result.latency_seconds)
        self._future.set_result(result)
        return result

    def _fail(self, exc: BaseException) -> None:
        self._future.set_exception(exc)


@dataclass
class ModelTicket:
    """Aggregate ticket for a model-level request (one per fusion group)."""

    partition: "Partition"
    tickets: list[ServeTicket]

    def results(self, timeout: float | None = None) -> list[ServeResult]:
        """Block for every fusion group, in partition order."""
        return [t.result(timeout) for t in self.tickets]

    def done(self) -> bool:
        return all(t.done() for t in self.tickets)


@dataclass
class _Job:
    """One in-flight tune: a resolved miss plus every ticket waiting on it.

    ``config`` is the fully resolved, *serializable*
    :class:`~repro.config.SessionConfig` the tune runs under (the request's
    config or the service's, with the service's dynamic mode). Because the
    whole job spec is one JSON-able object, a future multi-process serving
    tier can ship jobs to worker processes wholesale.

    ``chain`` is the creating request's chain and ``resolution`` its miss;
    ``signature`` (the resolution's key) keys the in-flight table and the
    stored entry.
    """

    resolution: Resolution
    chain: "ComputeChain"
    config: SessionConfig
    tickets: list[ServeTicket] = field(default_factory=list)
    #: The admitting request's tracer span: the worker's ``serve.tune``
    #: span names it as an explicit cross-thread parent, so a queued tune
    #: stays on the trace of the request that created it.
    trace_parent: object = None

    @property
    def signature(self) -> str:
        return self.resolution.key


class CompileService:
    """In-process fusion compile service (coalescing + cache reads + lanes).

    Args:
        gpu: Target hardware description shared by every request (``None``
            resolves the spec named by ``config.gpu``).
        cache: A :class:`~repro.cache.cache.ScheduleCache`, a
            :class:`TieredCache` over one, or ``None`` for a fresh
            memory-only cache.
        telemetry: Metrics registry; one is created when omitted.
        tune_fn: Override for the tune step itself (tests inject slow or
            instrumented tunes); receives the internal job and must return
            a :class:`TuneReport`. Defaults to a fresh ``MCFuserTuner``
            per job, *without* a cache — the service owns all cache
            interaction.
        cost_model: A :class:`~repro.search.cost_model.LearnedCostModel`
            shared by every tune this service runs (its dataset accumulates
            across jobs and workers; the model is thread-safe). Created
            automatically when the config asks for cost-model guidance and
            none is given.
        config: The service's :class:`~repro.config.SessionConfig`
            (``None`` means ``SessionConfig()``): the default per-request
            tune config, plus ``serve.workers`` (tune worker-thread count)
            and ``serve.queue_limit`` (bounded tune-queue depth; submits
            beyond it load-shed, the ticket failing with
            :class:`QueueFull`). ``exec.dynamic="buckets"`` serves ragged
            sequence lengths shape-generically: the
            :func:`~repro.cache.cache.resolve` ladder becomes exact hit →
            bucket hit → miss, misses tune once at the power-of-two bucket
            ceiling (concurrent in-bucket requests of *different* lengths
            coalesce onto that one tune), and every served report is
            rebuilt — and, with ``exec.verify`` on, checked — at the
            request's actual shape. Bucket hits surface as source
            ``"bucket"`` and counter ``serve.hits.bucket``. Guided tunes
            (``search.measure_topk > 0``) cache under a distinct
            ``+topk{k}`` variant key.
    """

    def __init__(
        self,
        gpu: "GPUSpec | None" = None,
        cache=None,
        *,
        telemetry: MetricsRegistry | None = None,
        tune_fn=None,
        cost_model: "LearnedCostModel | None" = None,
        config: "SessionConfig | None" = None,
    ) -> None:
        config = config if config is not None else SessionConfig()
        self.config = config
        search = config.search
        self.dynamic = config.exec.dynamic
        self.dynamic_loops = tuple(config.exec.dynamic_loops)
        if cost_model is None and (search.measure_topk > 0 or search.cost_model):
            from repro.search.cost_model import LearnedCostModel

            cost_model = LearnedCostModel(seed=search.seed)
        self.cost_model = cost_model
        self.gpu = gpu if gpu is not None else by_name(config.gpu)
        self.telemetry = telemetry if telemetry is not None else MetricsRegistry()
        self.tiered = cache if isinstance(cache, TieredCache) else TieredCache(cache)
        self._tune_fn = tune_fn if tune_fn is not None else self._default_tune
        self.queue_limit = config.serve.queue_limit
        # maxsize is queue_limit plus room for one shutdown sentinel per
        # worker, so close() can never be shed by a full queue.
        self._queue: "queue.PriorityQueue" = queue.PriorityQueue(
            maxsize=self.queue_limit + config.serve.workers
        )
        self._seq = itertools.count()
        self._lock = threading.Lock()
        self._inflight: dict[str, _Job] = {}
        self._closed = False
        self._workers = [
            threading.Thread(
                target=self._worker_loop, name=f"compile-worker-{i}", daemon=True
            )
            for i in range(config.serve.workers)
        ]
        for thread in self._workers:
            thread.start()

    # -- context management ---------------------------------------------------

    def __enter__(self) -> "CompileService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Stop admitting requests, drain the queue, join the workers."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        for _ in self._workers:
            # sentinel priority sorts after every real job: pending work
            # drains before the workers exit.
            self._queue.put((_SENTINEL_PRIORITY, next(self._seq), None))
        for thread in self._workers:
            thread.join()

    # -- admission -------------------------------------------------------------

    def _request_config(self, config: "SessionConfig | None") -> SessionConfig:
        """A request's config (``None`` = the service's) under the service's
        dynamic mode, which decides the cache keys of every request."""
        if config is None:
            return self.config
        if (config.exec.dynamic, config.exec.dynamic_loops) == (self.dynamic, self.dynamic_loops):
            return config
        return config.evolve(dynamic=self.dynamic, dynamic_loops=self.dynamic_loops)

    def _checker(self, config: SessionConfig):
        """``check_schedule`` under ``config``, or ``None`` with verify off
        (the warm path then constructs no tuner)."""
        if config.exec.verify == "off":
            return None
        return MCFuserTuner(self.gpu, cost_model=self.cost_model, config=config).check_schedule

    def _resolve_chain(self, workload) -> "ComputeChain":
        if isinstance(workload, str):
            from repro.workloads.registry import get_workload

            spec = get_workload(workload)
            if spec.level != "chain":
                raise ValueError(
                    f"workload {spec.name!r} is model-level; use submit_model()"
                )
            return spec.build()
        return workload

    def submit(
        self,
        workload,
        lane: str = "interactive",
        config: "SessionConfig | None" = None,
    ) -> ServeTicket:
        """Admit one chain request; returns immediately with a ticket.

        ``workload`` is a :class:`ComputeChain` or a chain-level registry
        name. The signature is computed up front; a cache hit resolves
        the ticket before this method returns, a signature already
        in flight coalesces onto the running tune, and only genuinely new
        work is queued. A full queue fails the ticket with
        :class:`QueueFull` (load shedding) rather than blocking.

        ``config`` is a complete per-request
        :class:`~repro.config.SessionConfig` (``None`` = the service
        config) — the form a multi-process front-end forwards wholesale.
        Its variant key picks the cache key space, so e.g. guided
        ``measure_topk`` requests hit the cache separately from exhaustive
        ones.

        With ``dynamic="buckets"`` the lookup ladders exact signature →
        bucketed signature; a bucket hit rebuilds the ceiling-tuned
        schedule at the request shape and resolves inline as source
        ``"bucket"``. Misses queue (or coalesce onto) one tune of the
        bucket-*ceiling* chain keyed by the bucketed signature, so
        concurrent requests for different in-bucket lengths share it.
        """
        if lane not in LANES:
            raise ValueError(f"unknown lane {lane!r}; pick from {LANES}")
        config = self._request_config(config)
        loops = self.dynamic_loops if self.dynamic == "buckets" else ()
        from repro.obs import get_tracer

        # The admission span covers the submit call itself (resolve,
        # queue/coalesce/shed decision, a hit's rebuild); a queued tune
        # continues this trace on the worker thread via ``_Job.trace_parent``.
        with get_tracer().span("serve.request", lane=lane) as span:
            chain = self._resolve_chain(workload)
            self.telemetry.counter("serve.requests").inc()
            self.telemetry.counter(f"serve.requests.{lane}").inc()
            # One resolve, under the lock: a worker stores a finished tune
            # before it retires the in-flight record, so a miss seen here
            # is either still in flight (coalesce) or new work (queue).
            with self._lock:
                res = resolve(self.tiered, chain, self.gpu, config.variant_key, loops)
                span.set(workload=chain.name, signature=res.signature, bucketed=bool(res.bucket))
                ticket = ServeTicket(res.signature, lane, chain.name, chain=chain)
                if res.entry is None:
                    if self._closed:
                        raise ServiceClosed("CompileService is closed")
                    job = self._inflight.get(res.key)
                    if job is not None:
                        job.tickets.append(ticket)
                        self.telemetry.counter("serve.coalesced").inc()
                        span.set(outcome="coalesced")
                        return ticket
                    job = _Job(
                        resolution=res,
                        chain=chain,
                        config=config,
                        tickets=[ticket],
                        trace_parent=span,
                    )
                    try:
                        # Enforce the advertised bound ourselves: maxsize leaves
                        # headroom for shutdown sentinels, which must never be shed.
                        if self._queue.qsize() >= self.queue_limit:
                            raise queue.Full
                        self._queue.put_nowait((_LANE_PRIORITY[lane], next(self._seq), job))
                    except queue.Full:
                        self.telemetry.counter("serve.shed").inc()
                        self.telemetry.counter(f"serve.shed.{lane}").inc()
                        span.set(outcome="shed")
                        ticket._fail(
                            QueueFull(
                                f"tune queue full ({self.queue_limit} pending); "
                                f"request for {chain.name!r} shed"
                            )
                        )
                        return ticket
                    self._inflight[res.key] = job
                    self.telemetry.gauge("serve.queue.depth").inc()
                    self.telemetry.gauge("serve.inflight").inc()
                    span.set(outcome="queued")
                    return ticket
            # A hit resolves inline, without ever queueing.
            source = "bucket" if res.rung == "bucket" else "hot"
            try:
                report = finish_report(chain, self.gpu, res, config, check=self._checker(config))
            except VerificationError as exc:
                self.telemetry.counter("serve.errors").inc()
                span.set(outcome="error", error=str(exc))
                ticket._fail(exc)
                return ticket
            self.telemetry.counter(f"serve.hits.{source}").inc()
            span.set(outcome=source)
            ticket._resolve(report, source, self.telemetry.histogram("serve.latency.warm"))
        return ticket

    def compile(
        self,
        workload,
        timeout: float | None = None,
        lane: str = "interactive",
        config: "SessionConfig | None" = None,
    ) -> ServeResult:
        """Blocking convenience: :meth:`submit` + ``result()``."""
        return self.submit(workload, lane=lane, config=config).result(timeout)

    def submit_model(
        self,
        model,
        lane: str = "interactive",
        config: "SessionConfig | None" = None,
    ) -> ModelTicket:
        """Admit a whole model: partition, then submit every fusion group.

        ``model`` is a :class:`~repro.ir.graph.Graph` or a model-level
        registry name. Identically shaped groups coalesce or hit the cache
        by construction — the service sees one signature per shape.
        """
        from repro.frontend.partition import partition_graph

        if isinstance(model, str):
            from repro.workloads.registry import get_workload

            spec = get_workload(model)
            if spec.level != "model":
                raise ValueError(
                    f"workload {spec.name!r} is chain-level; use submit()"
                )
            model = spec.build()
        partition = partition_graph(model, self.gpu)
        tickets = [
            self.submit(sg.chain, lane=lane, config=config)
            for sg in partition.subgraphs
        ]
        return ModelTicket(partition=partition, tickets=tickets)

    def prefetch(
        self,
        workloads: "Sequence[str | ComputeChain] | None" = None,
        lane: str = "background",
        config: "SessionConfig | None" = None,
    ) -> list[ServeTicket]:
        """Warm the cache over the workload registry on the background lane.

        ``workloads`` may mix chain names, model names (expanded into their
        fusion groups), and :class:`ComputeChain` objects; ``None`` means
        every chain-level registry entry. Returns the submitted tickets —
        callers that just want the cache warm can drop them, callers that
        need completion can wait on them.
        """
        from repro.workloads.registry import get_workload, workload_names

        names = workloads if workloads is not None else workload_names(level="chain")
        tickets: list[ServeTicket] = []
        for item in names:
            if isinstance(item, str) and get_workload(item).level == "model":
                tickets.extend(
                    self.submit_model(item, lane=lane, config=config).tickets
                )
            else:
                tickets.append(self.submit(item, lane=lane, config=config))
        return tickets

    # -- the worker side -------------------------------------------------------

    def _default_tune(self, job: _Job) -> TuneReport:
        tuner = MCFuserTuner(self.gpu, cost_model=self.cost_model, config=job.config)
        return tuner.tune(job.chain)

    def _worker_loop(self) -> None:
        while True:
            _, _, job = self._queue.get()
            if job is None:
                self._queue.task_done()
                return
            self.telemetry.gauge("serve.queue.depth").dec()
            try:
                self._run_job(job)
            finally:
                self.telemetry.gauge("serve.inflight").dec()
                self._queue.task_done()

    def _report_for_ticket(self, job: _Job, report: TuneReport, ticket: ServeTicket) -> TuneReport:
        """The report a ticket resolves with: finished at its request shape.

        Tickets of the tuned shape share the tuned report, which the tune
        already checked there; a coalesced rider of another in-bucket
        length gets a copy rebuilt — and, with verify on, checked — on its
        own chain.
        """
        return finish_report(
            ticket.chain,
            self.gpu,
            job.resolution,
            job.config,
            tuned=report,
            check=self._checker(job.config),
        )

    def _retire(self, job: _Job) -> list[ServeTicket]:
        """Remove ``job`` from the in-flight table; snapshot its waiters.

        Once the entry is gone no submit can attach to the job any more,
        so the snapshot is final.
        """
        with self._lock:
            self._inflight.pop(job.signature, None)
            return list(job.tickets)

    def _run_job(self, job: _Job) -> None:
        """Tune one job and resolve every ticket waiting on it.

        The in-flight entry is retired exactly once, whether the tune
        succeeds or not, and any exception — from the tune, the cache put,
        telemetry, rebinding or the fan-out — fails every ticket that has
        not resolved yet. Nothing escapes, so the worker thread survives
        and no coalesced waiter is stranded.
        """
        from repro.obs import get_tracer

        tickets: list[ServeTicket] = []
        try:
            # Worker threads have no ambient span stack; the explicit parent
            # keeps the queued tune on the admitting request's trace.
            with get_tracer().span(
                "serve.tune",
                parent=job.trace_parent,
                signature=job.signature,
                workload=job.chain.name,
            ) as span:
                try:
                    report = self._tune_fn(job)
                    self.tiered.put(job.chain, self.gpu, report, signature=job.signature)
                except Exception as exc:
                    self.telemetry.counter("serve.errors").inc()
                    span.set(outcome="error", error=f"{type(exc).__name__}: {exc}")
                    raise
                finally:
                    # For cacheable results the cache holds the entry
                    # before the in-flight record is removed, so
                    # post-removal submits hit the cache — a signature is
                    # never tuned twice. A *non-cacheable* result (no finite
                    # measurement) stores nothing: its waiters are resolved
                    # below, and later requests re-tune, which is the only
                    # sane behavior for a result the cache cannot represent.
                    tickets = self._retire(job)
                self.telemetry.counter("serve.tunes").inc()
                self.telemetry.histogram("serve.tune.simulated_seconds").observe(
                    report.tuning_seconds
                )
                self.telemetry.histogram("serve.tune.measurements").observe(
                    float(report.search.num_measurements)
                )
                accuracy = getattr(report.search, "ranking_accuracy", None)
                if accuracy is not None and accuracy == accuracy:  # skip None and NaN
                    self.telemetry.histogram("serve.model.ranking_accuracy").observe(
                        accuracy
                    )
                span.set(
                    outcome="tuned",
                    waiters=len(tickets),
                    best_time=report.best_time,
                    sim_tuning_seconds=report.tuning_seconds,
                )
                cold = self.telemetry.histogram("serve.latency.cold")
                for i, ticket in enumerate(tickets):
                    ticket._resolve(
                        self._report_for_ticket(job, report, ticket),
                        "tuned" if i == 0 else "coalesced",
                        cold,
                    )
        except Exception as exc:  # noqa: BLE001 - every waiter must resolve
            for ticket in tickets:
                if not ticket.done():
                    ticket._fail(exc)

    # -- observability ---------------------------------------------------------

    def metrics(self) -> dict:
        """Telemetry snapshot plus the schedule cache's counters (JSON-able)."""
        snapshot = self.telemetry.snapshot()
        snapshot["cache"] = dataclasses.asdict(self.tiered.cache.stats())
        return snapshot
