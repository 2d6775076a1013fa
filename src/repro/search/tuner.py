"""MCFuserTuner: end-to-end tuning of one MBCI chain (§III + §IV).

Pipeline: build the pruned search space (every candidate priced from
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

import dataclasses
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Mapping

import numpy as np

from repro.cache.cache import Resolution, resolve
from repro.cache.signature import variant_key
from repro.codegen.interpreter import (
    InterpreterError,
    execute_schedule,
    resolve_exec_backend,
)
from repro.config import SessionConfig
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
from repro.utils import LRUCache, process_memo

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (cache imports us)
    from repro.cache.cache import ScheduleCache
    from repro.cache.store import CacheEntry
    from repro.search.cost_model import LearnedCostModel

__all__ = [
    "TuneReport",
    "MCFuserTuner",
    "MEASURE_REPETITIONS",
    "VerificationError",
    "report_from_entry",
    "rebind_report",
    "finish_report",
]

#: Kernel repetitions per hardware measurement (billed to the tuning clock).
MEASURE_REPETITIONS = 100

#: fp32 tolerance for measurement-time verification (looser than the unit
#: tests: long reduction chains accumulate more rounding).
_VERIFY_RTOL = 1e-3
_VERIFY_ATOL = 1e-4


class VerificationError(RuntimeError):
    """A tuned schedule disagreed numerically with the unfused reference."""


#: (chain structure, chain name, expression text, sorted tiles, optimized)
#: -> schedule. Every warm hit re-expands a stored decision at the request
#: shape; schedules are immutable, so all reports of one decision on one
#: chain share a single build. The name is part of the key because a
#: schedule's kernel name and description carry it.
_REBUILD_MEMO = process_memo(LRUCache(capacity=4096))

#: (chain structure, seed) -> read-only (inputs, reference output) for
#: numeric verification, shared by every tuner and every verified warm hit.
_REFERENCES = process_memo(LRUCache(capacity=64))


def _rebuilt_schedule(
    chain: ComputeChain, expr: TilingExpr, tiles: Mapping[str, int], optimized: bool
) -> Schedule:
    """The memoized ``build_schedule(chain, expr, tiles, optimized)``."""
    key = (
        chain.structure_key(),
        chain.name,
        expr.render(),
        tuple(sorted(tiles.items())),
        optimized,
    )
    schedule = _REBUILD_MEMO.get(key)
    if schedule is None:
        schedule = _REBUILD_MEMO.put(key, build_schedule(chain, expr, dict(tiles), optimized))
    return schedule


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
    #: True when ``best_schedule`` was executed against the unfused
    #: reference at this report's own shape (``verify="best"`` or
    #: ``"all"``; see :func:`finish_report`).
    verified: bool = False
    #: Cost-model guidance the tune ran with: measure only the learned
    #: model's predicted-best ``k`` candidates per round (0 = classic
    #: measure-the-top-n mode). Participates in the cache variant key.
    measure_topk: int = 0
    #: Dynamic-shape mode the tune ran under (:data:`~repro.config.DYNAMIC_MODES`).
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
    config: SessionConfig,
) -> TuneReport:
    """Materialize a :class:`TuneReport` from a cached tiling decision.

    The schedule is re-expanded deterministically from the stored
    (expression, tiles) pair — no enumeration, no model estimates, no
    measurements; pruning and search accounting are all zeros. ``chain``
    must have the structure the entry was created from; callers guarantee
    that by having matched the workload signature. Variant, strategy,
    workers and top-k come from ``config``, and ``config.exec.backend`` is
    resolved to the concrete engine the rebuilt schedule runs under
    (``"compiled"``/``"vectorized"``/``"scalar"``), matching cold-path
    reports.
    """
    search_config = config.search
    expr = TilingExpr.parse(entry.expr)
    schedule = _rebuilt_schedule(chain, expr, entry.tiles, entry.optimized)
    exec_backend = resolve_exec_backend(schedule, config.exec.backend)
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
        strategy=search_config.strategy,
        measure_topk=search_config.measure_topk,
    )
    return TuneReport(
        chain=chain,
        gpu=gpu,
        variant=search_config.variant,
        best_candidate=candidate,
        best_schedule=schedule,
        best_time=entry.best_time,
        tuning_seconds=0.0,
        pruning=empty_funnel,
        search=search,
        cache_hit=True,
        strategy=search_config.strategy,
        workers=search_config.workers,
        exec_backend=exec_backend,
        measure_topk=search_config.measure_topk,
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
    report.best_schedule = _rebuilt_schedule(
        chain, schedule.expr, schedule.tiles, schedule.optimized
    )
    report.chain = chain
    return report


def finish_report(
    chain: ComputeChain,
    gpu: GPUSpec,
    resolution: Resolution,
    config: SessionConfig,
    tuned: TuneReport | None = None,
    check: "Callable[[Schedule], bool] | None" = None,
) -> TuneReport:
    """The step every request ends with, hit or miss: the report for ``chain``.

    A hit (``tuned`` is ``None``) rebuilds ``resolution.entry`` on
    ``chain``. A miss takes the search report ``tuned`` and rebinds a copy
    to ``chain`` when it was tuned at another shape (the bucket ceiling,
    or another coalesced request's length). The report is stamped with the
    dynamic mode and rung, then the verification rule applies: with
    ``config.exec.verify != "off"``, ``check``
    (:meth:`MCFuserTuner.check_schedule`) runs the schedule at ``chain``'s
    shape unless this very report was already checked there, a failure
    raises :class:`VerificationError`, and only then is ``verified`` set.
    """
    if tuned is None:
        report = report_from_entry(chain, gpu, resolution.entry, config)
    else:
        report = tuned
        if tuned.chain.loops != chain.loops:
            report = rebind_report(dataclasses.replace(tuned, verified=False), chain)
        report.exec_backend = resolve_exec_backend(report.best_schedule, config.exec.backend)
    report.dynamic = config.exec.dynamic
    report.bucket = dict(resolution.bucket)
    report.bucket_hit = resolution.rung == "bucket"
    if config.exec.verify != "off" and not report.verified:
        if not check(report.best_schedule):
            raise VerificationError(
                f"{'cached' if tuned is None else 'best'} schedule "
                f"{report.best_schedule.describe()} of {chain.name!r} disagrees "
                f"with the reference (backend {report.exec_backend})"
            )
        report.verified = True
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
              buckets. :func:`~repro.cache.cache.resolve` ladders exact
              signature → bucketed signature, a miss tunes at the bucket
              *ceiling* and is stored under the bucketed key, and
              :func:`finish_report` rebuilds every returned report (and
              verifies it, when on) at the actual request shape.
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
        self.verify = config.exec.verify
        self.cost_model = cost_model
        self.measure_topk = search.measure_topk
        self.dynamic = config.exec.dynamic
        self.dynamic_loops = tuple(config.exec.dynamic_loops)
        self.simulator = GPUSimulator(self.gpu, seed=search.seed)

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

    def measure_schedule(self, space: SearchSpace, position: int) -> float:
        """One hardware measurement of the schedule at ``position``; launch
        failures count as +inf.

        Reads the position's simulated time from the space's arrays and
        applies this tuner's seeded jitter (:meth:`SearchSpace.measure`),
        so nothing is built. With ``verify="all"``, the measurement also
        builds the schedule, executes it numerically (on ``exec.backend``)
        and reports a numerically wrong program as a launch failure, so it
        can never win the search.
        """
        t = space.measure(position, self.simulator)
        if self.verify == "all" and t != float("inf"):
            if not self.check_schedule(space.schedule_for(space.candidate(position))):
                return float("inf")
        return t

    # -- numeric verification --------------------------------------------------

    def check_schedule(self, schedule: Schedule) -> bool:
        """Execute ``schedule`` and compare against the unfused reference."""
        chain = schedule.chain
        key = (chain.structure_key(), self.seed)
        data = _REFERENCES.get(key)
        if data is None:
            inputs = chain.random_inputs(self.seed)
            ref = chain.reference(inputs)[chain.output]
            for array in (*inputs.values(), ref):
                array.flags.writeable = False
            data = _REFERENCES.put(key, (inputs, ref))
        inputs, ref = data
        try:
            out = execute_schedule(schedule, inputs, self.config.exec.backend)
        except (InterpreterError, InvalidScheduleError):
            return False
        return bool(
            np.allclose(out[chain.output], ref, rtol=_VERIFY_RTOL, atol=_VERIFY_ATOL)
        )

    # -- main entry -----------------------------------------------------------

    def tune(self, chain: ComputeChain) -> TuneReport:
        """Search for the best fused kernel of ``chain``.

        With a cache attached, a previously tuned workload (same structure,
        shapes, dtype, GPU, variant, and strategy — the name is irrelevant)
        returns immediately with ``report.cache_hit`` set and zero tuning
        cost. Under ``dynamic="buckets"`` the lookup ladders exact → bucket
        and a miss tunes at the bucket ceiling.
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
        """Resolve; on a miss tune (at the bucket ceiling, under bucketing);
        finish; store a miss only once its check passed."""
        from repro.obs import get_tracer

        tracer = get_tracer()
        loops = self.dynamic_loops if self.dynamic == "buckets" else ()
        with tracer.span("tune.cache_lookup") as span:
            res = resolve(self.cache, chain, self.gpu, self.cache_variant, loops)
            span.set(outcome=res.rung)
        if res.entry is not None:
            return finish_report(chain, self.gpu, res, self.config, check=self.check_schedule)
        tuned = self._tune_uncached(chain.with_loops(res.bucket) if res.bucket else chain)
        with tracer.span("tune.finalize", verify=self.verify) as span:
            report = finish_report(
                chain, self.gpu, res, self.config, tuned=tuned, check=self.check_schedule
            )
            span.set(exec_backend=report.exec_backend)
        if self.cache is not None:
            # The entry is the tiling decision the search validated (at the
            # ceiling, under bucketing); the rebound report carries it.
            with tracer.span("tune.cache_put"):
                self.cache.put(chain, self.gpu, report, signature=res.key)
        return report

    def _search_loop(self, space: SearchSpace, clock: TuningClock) -> SearchLoop:
        """The search loop of one tune over ``space``, billing ``clock``.

        The model reads the space's price arrays and measurements read the
        space's simulated times (every point was priced and is simulated
        from its schedule template); schedules are built lazily, only for
        candidates that are verified, featurized or returned. Every ranked
        position bills one model estimate, however often the search
        re-ranks it; the objective of every point is computed once per
        tune (elementwise, so bit-identical to the scalar objective).
        """
        model = (
            ChimeraModel(self.gpu) if self.variant == "chimera" else AnalyticalModel(self.gpu)
        )
        objective = model.objective(space.prices)

        def estimate_fn(positions: np.ndarray) -> np.ndarray:
            clock.charge_each("model_estimate", len(positions))
            return objective[positions]

        def raw_measure(position: int) -> float:
            return self.measure_schedule(space, position)

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
        return SearchLoop(
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

    def _tune_uncached(self, chain: ComputeChain) -> TuneReport:
        """The full prune → search → measure pipeline."""
        from repro.obs import get_tracer

        tracer = get_tracer()
        clock = TuningClock()
        with tracer.span("tune.space", clock=clock, chain=chain.name) as span:
            space = self.build_space(chain, clock)
            span.set(
                candidates=len(space),
                templates=space.templates,
                templates_bound=space.templates_bound,
                schedules_built=space.schedules_built,
            )
        # The loop's set-up and the best's schedule build run inside the
        # search span, so the tune's child spans cover its wall time.
        with tracer.span(
            "search", clock=clock, strategy=self.strategy.name
        ) as span:
            result = self._search_loop(space, clock).run(self.strategy)
            span.set(
                rounds=result.rounds,
                estimates=result.num_estimates,
                measurements=result.num_measurements,
                converged=result.converged,
                model_rounds=result.model_rounds,
                best_time=result.best_time,
                schedules_built=space.schedules_built,
            )
            best_schedule = space.schedule_for(result.best)
        return TuneReport(
            chain=chain,
            gpu=self.gpu,
            variant=self.variant,
            best_candidate=result.best,
            best_schedule=best_schedule,
            best_time=result.best_time,
            tuning_seconds=clock.seconds,
            pruning=space.stats,
            search=result,
            clock=clock,
            strategy=result.strategy,
            workers=self.workers,
            # verify="all" checked every measured candidate at this shape.
            verified=self.verify == "all",
            measure_topk=self.measure_topk,
        )
