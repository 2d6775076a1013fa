"""MCFuserTuner: end-to-end tuning of one MBCI chain (§III + §IV).

Pipeline: stream + prune the search space (every candidate priced from
per-expression schedule templates), run a pluggable search strategy with
the analytical model, measure the per-round top-n through the parallel
evaluator, and return the best schedule with full accounting — simulated
tuning seconds, pruning funnel, model-vs-measured pairs.

A restricted variant implements a baseline from the paper:
``MCFuserTuner(gpu, config=SessionConfig.make(variant="chimera"))`` is the
*MCFuser-Chimera* comparison point (§VI-A): Chimera's search space (deep
tilings only, no extent-1 DAG optimization) and Chimera's
data-movement-only objective inside the same framework.

Search strategies come from the engine registry
(:mod:`repro.search.engine.strategy`): ``evolutionary`` (Algorithm 1,
the default — behavior-identical to the historical tuner on seeded runs),
``random``, ``exhaustive``, and ``annealing``. Cached schedules are keyed
by (workload, GPU, variant, strategy), so an entry tuned under one
strategy is never served to another.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.cache.signature import (
    bucket_dims,
    bucketed_signature,
    variant_key,
)
from repro.codegen.interpreter import InterpreterError, resolve_exec_backend
from repro.config import DYNAMIC_MODES, VERIFY_MODES, SessionConfig
from repro.gpu.occupancy import SharedMemoryExceeded
from repro.gpu.simulator import GPUSimulator
from repro.gpu.specs import GPUSpec, by_name
from repro.ir.chain import ComputeChain
from repro.search.engine.evaluator import ParallelEvaluator
from repro.search.engine.loop import SearchLoop, SearchResult
from repro.search.engine.strategy import make_strategy
from repro.search.perf_model import AnalyticalModel, ChimeraModel
from repro.search.pruning import PruningStats
from repro.search.space import Candidate, SearchSpace, generate_space
from repro.search.tuning_cost import TuningClock
from repro.tiling.expr import TilingExpr
from repro.tiling.schedule import InvalidScheduleError, Schedule, build_schedule

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (cache imports us)
    from repro.cache.cache import ScheduleCache
    from repro.cache.store import CacheEntry
    from repro.search.cost_model import LearnedCostModel

__all__ = [
    "TuneReport",
    "MCFuserTuner",
    "MEASURE_REPETITIONS",
    "VERIFY_MODES",
    "DYNAMIC_MODES",
    "VerificationError",
    "report_from_entry",
    "rebind_report",
]

#: Kernel repetitions per hardware measurement (billed to the tuning clock).
MEASURE_REPETITIONS = 100

# VERIFY_MODES and DYNAMIC_MODES now live in :mod:`repro.config` (the
# single home of knob validation) and are re-exported here for backward
# compatibility.

#: fp32 tolerance for measurement-time verification (looser than the unit
#: tests: long reduction chains accumulate more rounding).
_VERIFY_RTOL = 1e-3
_VERIFY_ATOL = 1e-4


class VerificationError(RuntimeError):
    """A tuned schedule disagreed numerically with the unfused reference."""


@dataclass
class TuneReport:
    """Everything a tuning run produced."""

    chain: ComputeChain
    gpu: GPUSpec
    variant: str
    best_candidate: Candidate
    best_schedule: Schedule
    best_time: float
    tuning_seconds: float
    pruning: PruningStats
    search: SearchResult
    clock: TuningClock = field(repr=False, default_factory=TuningClock)
    #: True when this report was served from a ScheduleCache: the schedule
    #: was rebuilt from a stored tiling decision with zero enumeration,
    #: zero model estimates, and zero hardware measurements.
    cache_hit: bool = False
    #: Registered search strategy that produced (or originally produced,
    #: for cache hits) this schedule.
    strategy: str = "evolutionary"
    #: Measurement worker-pool width the tuning run used.
    workers: int = 1
    #: Concrete execution backend `best_schedule` runs under (``auto``
    #: resolved to ``"compiled"``, ``"vectorized"`` or ``"scalar"``).
    exec_backend: str = "auto"
    #: True when the best schedule was executed against the unfused
    #: reference as part of this tune (``verify="best"`` or ``"all"``).
    verified: bool = False
    #: Cost-model guidance the tune ran with: measure only the learned
    #: model's predicted-best ``k`` candidates per round (0 = classic
    #: measure-the-top-n mode). Participates in the cache variant key.
    measure_topk: int = 0
    #: Dynamic-shape mode the tune ran under (:data:`DYNAMIC_MODES`).
    dynamic: str = "off"
    #: ``loop -> bucket ceiling`` for the request's dynamic loops (empty
    #: when ``dynamic == "off"`` or the chain has no dynamic loops).
    bucket: dict[str, int] = field(default_factory=dict)
    #: True when this report was served from a *bucketed* cache entry —
    #: tuned at the bucket ceiling, rebuilt and verified at the request
    #: shape. Implies ``cache_hit``.
    bucket_hit: bool = False

    @property
    def tflops(self) -> float:
        """Achieved TFLOP/s of the chosen kernel (useful work only)."""
        return self.chain.total_flops() / self.best_time / 1e12


def report_from_entry(
    chain: ComputeChain,
    gpu: GPUSpec,
    entry: "CacheEntry",
    variant: str = "mcfuser",
    strategy: str = "evolutionary",
    workers: int = 1,
    exec_backend: str = "auto",
    measure_topk: int = 0,
) -> TuneReport:
    """Materialize a :class:`TuneReport` from a cached tiling decision.

    The schedule is re-expanded deterministically from the stored
    (expression, tiles) pair — no enumeration, no model estimates, no
    measurements; pruning and search accounting are all zeros. Shared by
    :class:`MCFuserTuner` (warm ``tune()``) and the serving layer's
    :class:`~repro.serving.service.CompileService`, which resolves cache
    hits without constructing a tuner. ``chain`` must have the structure
    the entry was created from; callers guarantee that by having matched
    the workload signature. ``exec_backend`` is resolved to the concrete
    engine the rebuilt schedule runs under (``"compiled"``/``"vectorized"``/
    ``"scalar"``),
    matching cold-path reports.
    """
    expr = TilingExpr.parse(entry.expr)
    schedule = build_schedule(chain, expr, dict(entry.tiles), optimize=entry.optimized)
    exec_backend = resolve_exec_backend(schedule, exec_backend)
    candidate = Candidate.make(expr, dict(entry.tiles))
    empty_funnel = PruningStats(
        expressions=0,
        classes_rule1=0,
        classes_rule2=0,
        original=0,
        after_rule1=0,
        after_rule2=0,
        after_rule3=0,
        after_rule4=0,
    )
    search = SearchResult(
        best=candidate,
        best_time=entry.best_time,
        rounds=0,
        num_estimates=0,
        num_measurements=0,
        converged=True,
        strategy=strategy,
        measure_topk=measure_topk,
    )
    return TuneReport(
        chain=chain,
        gpu=gpu,
        variant=variant,
        best_candidate=candidate,
        best_schedule=schedule,
        best_time=entry.best_time,
        tuning_seconds=0.0,
        pruning=empty_funnel,
        search=search,
        cache_hit=True,
        strategy=strategy,
        workers=workers,
        exec_backend=exec_backend,
        measure_topk=measure_topk,
    )


def rebind_report(report: TuneReport, chain: ComputeChain) -> TuneReport:
    """Re-expand a report's tiling decision on a different (request) chain.

    The dynamic-shape layer tunes at the bucket *ceiling*; the winning
    (expression, tiles) pair is then rebuilt here on the actual request
    chain — same tiles, shorter extents, tail tiles masked by the
    execution backends. Mutates and returns ``report`` so downstream
    verification (:meth:`MCFuserTuner.check_schedule`) runs at the shape
    the caller will actually execute.
    """
    schedule = report.best_schedule
    report.best_schedule = build_schedule(
        chain, schedule.expr, dict(schedule.tiles), optimize=schedule.optimized
    )
    report.chain = chain
    return report


class MCFuserTuner:
    """Tunes :class:`ComputeChain` workloads for a simulated GPU.

    Every tuning knob lives on ``config`` (a validated
    :class:`~repro.config.SessionConfig`); the remaining arguments are live
    resources that combine with it.

    Args:
        gpu: Target hardware description; ``None`` resolves the registered
            spec named by ``config.gpu``.
        cache: Optional :class:`~repro.cache.cache.ScheduleCache`. When set,
            :meth:`tune` looks the workload up *before* generating a search
            space (a hit skips enumeration, pruning, and search entirely)
            and stores the winning schedule afterwards. Entries are keyed
            by (workload, GPU, variant, strategy).
        cost_model: Optional :class:`~repro.search.cost_model.
            LearnedCostModel`. When attached, every finite measurement of
            every tune is logged into its dataset and the model refits
            per search round. Created automatically (memory-only) when
            the config asks for guidance (``search.cost_model`` or
            ``search.measure_topk > 0``) and none is given.
        config: The tune's knobs; ``None`` means ``SessionConfig()``.
            Among them:

            * ``search.variant`` — ``"mcfuser"`` (full system) or
              ``"chimera"`` (restricted space + data-movement objective,
              the MCFuser-Chimera baseline);
            * ``search.strategy`` — a registered search strategy name
              (``"evolutionary"``, ``"random"``, ``"exhaustive"``,
              ``"annealing"``, or a :func:`~repro.search.engine.strategy.
              register_strategy` registration);
            * ``search.workers`` — measurement thread-pool width for the
              per-round top-n batch (results are deterministic for any
              width; the simulated clock bills the batch makespan);
            * ``search.measure_topk`` — with a cost model, hardware-measure
              only the model's predicted-best ``k`` candidates per round
              (0 disables; guided tunes cache under ``+topk{k}``);
            * ``exec.backend`` — the numeric execution engine for every
              schedule this tuner runs;
            * ``exec.verify`` — ``"best"`` executes the winning schedule
              against ``chain.reference`` (raising
              :class:`VerificationError` on mismatch); ``"all"`` executes
              every measured candidate and blacklists numerically wrong
              ones. Verification is not billed to the simulated clock;
            * ``exec.dynamic``/``exec.dynamic_loops`` — ``"buckets"`` makes
              :meth:`tune` shape-generic over power-of-two sequence-length
              buckets: lookups ladder exact signature → bucketed signature,
              misses tune at the bucket *ceiling* and store under the
              bucketed key, and the returned report is always rebuilt (and
              verified, when on) at the actual request shape.
    """

    def __init__(
        self,
        gpu: "GPUSpec | None" = None,
        *,
        cache: "ScheduleCache | None" = None,
        cost_model: "LearnedCostModel | None" = None,
        config: "SessionConfig | None" = None,
    ) -> None:
        config = config if config is not None else SessionConfig()
        search = config.search
        if cost_model is None and (search.measure_topk > 0 or search.cost_model):
            from repro.search.cost_model import LearnedCostModel

            cost_model = LearnedCostModel(seed=search.seed)
        self.config = config
        self.gpu = gpu if gpu is not None else by_name(config.gpu)
        self.variant = search.variant
        self.population_size = search.population_size
        self.top_n = search.top_n
        self.epsilon = search.epsilon
        self.max_rounds = search.max_rounds
        self.min_rounds = search.min_rounds
        self.seed = search.seed
        self.cache = cache
        self.strategy = make_strategy(search.strategy)
        self.workers = search.workers
        self.exec_backend = config.exec.backend
        self.verify = config.exec.verify
        self.cost_model = cost_model
        self.measure_topk = search.measure_topk
        self.dynamic = config.exec.dynamic
        self.dynamic_loops = tuple(config.exec.dynamic_loops)
        self.simulator = GPUSimulator(
            self.gpu, seed=search.seed, exec_backend=config.exec.backend
        )
        #: chain content fingerprint -> (inputs, reference output); lazily
        #: built when a verification mode is active. Keyed by content, not
        #: name — two differently shaped chains may share a name.
        self._verify_data: dict[str, tuple[dict, np.ndarray]] = {}

    @property
    def cache_variant(self) -> str:
        """The cache-key variant string: variant + strategy + top-k.

        The default strategy maps to the bare variant so caches populated
        before strategies existed keep hitting; any other strategy gets its
        own key space — cached entries stay strategy-faithful — and
        top-k-guided tunes are suffixed ``+topk{k}`` so their schedules are
        never served as exhaustively measured ones (or vice versa).
        """
        return variant_key(self.variant, self.strategy.name, self.measure_topk)

    # -- pieces ---------------------------------------------------------------

    def build_space(self, chain: ComputeChain, clock: TuningClock | None = None) -> SearchSpace:
        deep_only = self.variant == "chimera"
        space = generate_space(
            chain,
            self.gpu,
            deep_only=deep_only,
            optimize_schedules=self.variant != "chimera",
        )
        if clock is not None:
            clock.charge("space_generation")
        return space

    def measure_schedule(self, schedule: Schedule) -> float:
        """One hardware measurement; launch failures count as +inf.

        With ``verify="all"``, the measurement also executes the schedule
        numerically (on :attr:`exec_backend`) and reports a numerically
        wrong program as a launch failure, so it can never win the search.
        """
        try:
            kernel = schedule.kernel_launch(self.gpu)
            t = self.simulator.run(kernel)
        except SharedMemoryExceeded:
            return float("inf")
        if self.verify == "all" and not self.check_schedule(schedule):
            return float("inf")
        return t

    # -- numeric verification --------------------------------------------------

    def _reference_for(self, chain: ComputeChain) -> tuple[dict, np.ndarray]:
        from repro.cache.signature import chain_fingerprint

        key = repr(sorted(chain_fingerprint(chain).items()))
        data = self._verify_data.get(key)
        if data is None:
            if len(self._verify_data) >= 64:  # long-lived tuners stay bounded
                self._verify_data.clear()
            inputs = chain.random_inputs(self.seed)
            data = (inputs, chain.reference(inputs)[chain.output])
            self._verify_data[key] = data
        return data

    def check_schedule(self, schedule: Schedule) -> bool:
        """Execute ``schedule`` and compare against the unfused reference."""
        chain = schedule.chain
        inputs, ref = self._reference_for(chain)
        try:
            out = self.simulator.execute(schedule, inputs)[chain.output]
        except (InterpreterError, InvalidScheduleError):
            return False
        return bool(np.allclose(out, ref, rtol=_VERIFY_RTOL, atol=_VERIFY_ATOL))

    def _finalize_report(self, report: TuneReport) -> TuneReport:
        """Resolve the exec-backend breadcrumb and run best-verification."""
        from repro.obs import get_tracer

        with get_tracer().span("tune.finalize", verify=self.verify) as span:
            report.exec_backend = resolve_exec_backend(
                report.best_schedule, self.exec_backend
            )
            span.set(exec_backend=report.exec_backend)
            if self.verify != "off":
                if self.verify == "best" and not self.check_schedule(
                    report.best_schedule
                ):
                    raise VerificationError(
                        f"best schedule {report.best_schedule.describe()} of "
                        f"{report.chain.name!r} disagrees with the reference "
                        f"(backend {report.exec_backend})"
                    )
                report.verified = True
            return report

    # -- cache integration ------------------------------------------------------

    def _report_from_cache(self, chain: ComputeChain, entry: "CacheEntry") -> TuneReport:
        """Materialize a TuneReport from a cache entry — no search, no space.

        An active verification mode re-checks the restored schedule too:
        a corrupted or stale cache entry surfaces as a
        :class:`VerificationError` instead of silently serving wrong code.
        """
        report = report_from_entry(
            chain,
            self.gpu,
            entry,
            variant=self.variant,
            strategy=self.strategy.name,
            workers=self.workers,
            exec_backend=self.exec_backend,
            measure_topk=self.measure_topk,
        )
        if self.verify != "off" and not self.check_schedule(report.best_schedule):
            raise VerificationError(
                f"cached schedule {report.best_schedule.describe()} of "
                f"{chain.name!r} disagrees with the reference"
            )
        report.verified = self.verify != "off"
        return report

    # -- main entry -----------------------------------------------------------

    def tune(self, chain: ComputeChain) -> TuneReport:
        """Search for the best fused kernel of ``chain``.

        With a cache attached, a previously tuned workload (same structure,
        shapes, dtype, GPU, variant, and strategy — the name is irrelevant)
        returns immediately with ``report.cache_hit`` set and zero tuning
        cost. Under ``dynamic="buckets"`` the lookup ladders exact → bucket
        and a miss tunes at the bucket ceiling (see :meth:`_tune_bucketed`).
        """
        from repro.obs import get_tracer

        tracer = get_tracer()
        if not tracer.enabled:
            return self._tune(chain)
        with tracer.span(
            "tune",
            chain=chain.name,
            variant=self.variant,
            strategy=self.strategy.name,
            dynamic=self.dynamic,
            verify=self.verify,
        ) as span:
            report = self._tune(chain)
            span.set(
                outcome=(
                    "bucket-hit"
                    if report.bucket_hit
                    else "cache-hit" if report.cache_hit else "tuned"
                ),
                best_time=report.best_time,
                sim_tuning_seconds=report.tuning_seconds,
                rounds=report.search.rounds,
                measurements=report.search.num_measurements,
                exec_backend=report.exec_backend,
            )
            return report

    def _tune(self, chain: ComputeChain) -> TuneReport:
        if self.dynamic == "buckets":
            return self._tune_bucketed(chain)
        if self.cache is not None:
            entry = self._cache_lookup(chain)
            if entry is not None:
                return self._report_from_cache(chain, entry)
        report = self._finalize_report(self._tune_uncached(chain))
        if self.cache is not None:
            self._cache_put(chain, report)
        return report

    def _cache_lookup(self, chain: ComputeChain) -> "CacheEntry | None":
        from repro.obs import get_tracer

        with get_tracer().span("tune.cache_lookup") as span:
            entry = self.cache.get(chain, self.gpu, self.cache_variant)
            span.set(outcome="hit" if entry is not None else "miss")
            return entry

    def _cache_put(self, chain: ComputeChain, report: TuneReport, signature=None):
        from repro.obs import get_tracer

        with get_tracer().span("tune.cache_put"):
            if signature is None:
                self.cache.put(chain, self.gpu, report)
            else:
                self.cache.put(chain, self.gpu, report, signature=signature)

    def bucket_signature(self, chain: ComputeChain) -> str:
        """The bucketed cache key :meth:`tune` uses for ``chain``."""
        return bucketed_signature(
            chain, self.gpu, self.cache_variant, self.dynamic_loops
        )

    def _tune_bucketed(self, chain: ComputeChain) -> TuneReport:
        """Shape-generic tuning over power-of-two buckets.

        Ladder: exact-signature hit (shape previously tuned as-is) →
        bucketed-signature hit (ceiling-tuned schedule rebuilt — and with
        ``verify != "off"`` numerically re-checked — at the *request*
        shape) → miss: tune once at the bucket ceiling, store under the
        bucketed key, return the report rebound to the request shape.

        Legality for every in-bucket length comes from Rule 3 at the
        ceiling: ceilings are powers of two, so only divisor tiles survive
        (:func:`~repro.search.pruning.bucket_tile_options`), and for any
        ``l <= ceiling`` the padded extent ``ceil(l/t)*t <= ceiling`` keeps
        the ceiling-time Rule-4 shared-memory estimate conservative; the
        execution backends mask tail tiles rather than padding results.
        """
        dyn = bucket_dims(chain, self.dynamic_loops)
        if self.cache is not None:
            entry = self._cache_lookup(chain)
            if entry is not None:
                report = self._report_from_cache(chain, entry)
                report.dynamic = "buckets"
                report.bucket = dyn
                return report
            if dyn:
                entry, _ = self.cache.lookup(self.bucket_signature(chain))
                if entry is not None:
                    report = self._report_from_cache(chain, entry)
                    report.dynamic = "buckets"
                    report.bucket = dyn
                    report.bucket_hit = True
                    return report
        ceiling_chain = chain.with_loops(dyn) if dyn else chain
        report = self._tune_uncached(ceiling_chain)
        if self.cache is not None and dyn:
            # Store the *ceiling* schedule under the bucketed key before
            # rebinding, so every in-bucket length re-expands the exact
            # tiling decision the search validated at the ceiling.
            self._cache_put(
                ceiling_chain, report, signature=self.bucket_signature(chain)
            )
        report = self._finalize_report(rebind_report(report, chain))
        report.dynamic = "buckets"
        report.bucket = dyn
        if self.cache is not None and not dyn:
            # No dynamic loops: nothing to bucket, cache under the exact key.
            self._cache_put(chain, report)
        return report

    def _tune_uncached(self, chain: ComputeChain) -> TuneReport:
        """The full stream → prune → search → measure pipeline."""
        from repro.obs import get_tracer

        tracer = get_tracer()
        clock = TuningClock()
        with tracer.span("tune.space", clock=clock, chain=chain.name) as span:
            space = self.build_space(chain, clock)
            span.set(
                candidates=len(space.candidates),
                templates=space.templates,
                schedules_built=space.schedules_built,
            )
        model = (
            ChimeraModel(self.gpu) if self.variant == "chimera" else AnalyticalModel(self.gpu)
        )

        # The model reads the space's price table (every candidate was
        # priced from its schedule template); schedules are built lazily,
        # only for candidates that are measured, featurized or returned.
        def estimate_fn(cand: Candidate) -> float:
            clock.charge("model_estimate")
            return model.objective(space.price(cand))

        def raw_measure(cand: Candidate) -> float:
            return self.measure_schedule(space.schedule_for(cand))

        feature_fn = None
        if self.cost_model is not None:
            from repro.search.features import schedule_features

            def feature_fn(cand: Candidate) -> np.ndarray:
                return schedule_features(space.schedule_for(cand), self.gpu)

        evaluator = ParallelEvaluator(
            raw_measure,
            workers=self.workers,
            clock=clock,
            repetitions=MEASURE_REPETITIONS,
        )
        loop = SearchLoop(
            space,
            estimate_fn,
            evaluator,
            population_size=self.population_size,
            top_n=self.top_n,
            epsilon=self.epsilon,
            max_rounds=self.max_rounds,
            min_rounds=self.min_rounds,
            seed=self.seed,
            cost_model=self.cost_model,
            measure_topk=self.measure_topk,
            feature_fn=feature_fn,
        )
        with tracer.span(
            "search", clock=clock, strategy=self.strategy.name
        ) as span:
            result = loop.run(self.strategy)
            span.set(
                rounds=result.rounds,
                estimates=result.num_estimates,
                measurements=result.num_measurements,
                converged=result.converged,
                model_rounds=result.model_rounds,
                best_time=result.best_time,
                schedules_built=space.schedules_built,
            )
        return TuneReport(
            chain=chain,
            gpu=self.gpu,
            variant=self.variant,
            best_candidate=result.best,
            best_schedule=space.schedule_for(result.best),
            best_time=result.best_time,
            tuning_seconds=clock.seconds,
            pruning=space.stats,
            search=result,
            clock=clock,
            strategy=result.strategy,
            workers=self.workers,
            measure_topk=self.measure_topk,
        )
