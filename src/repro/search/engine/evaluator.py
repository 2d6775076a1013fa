"""Parallel measurement executor: batched top-n measurements per round.

Real tuners overlap candidate compilation + measurement across worker
processes; our measurements run on the deterministic GPU simulator, so the
executor parallelizes the *host-side* work with a thread pool and models
the wall-clock cost of the batch explicitly.

Determinism is a hard requirement (the whole reproduction is seeded):

* **Results** depend only on the measurement function, which is pure per
  space position (the simulator derives jitter from the kernel's content, not
  from call order), so any worker count returns the same times in the same
  submission order.
* **Billing** never reads the real clock. Each measurement costs
  ``COSTS[kind] + repetitions x kernel_time``; the batch's wall-clock is
  the makespan of assigning those costs greedily (submission order, each
  task to the earliest-free worker) — a deterministic function of the
  batch and the worker count. With ``workers=1`` the makespan equals the
  serial sum, so a single-worker evaluator bills exactly what the old
  serial loop billed.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence

from repro.search.tuning_cost import COSTS, TuningClock

__all__ = ["ParallelEvaluator", "batch_makespan"]


def batch_makespan(costs: Sequence[float], workers: int) -> float:
    """Deterministic wall-clock of running ``costs`` on ``workers`` workers.

    Tasks are assigned in submission order, each to the worker that frees
    up first — the schedule a thread pool converges to when tasks are
    queued up front. Returns the finish time of the last worker.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if not costs:
        return 0.0
    finish = [0.0] * min(workers, len(costs))
    for cost in costs:
        slot = min(range(len(finish)), key=lambda i: finish[i])
        finish[slot] += cost
    return max(finish)


class ParallelEvaluator:
    """Measures batches of space positions on a worker pool with correct
    clock billing.

    Args:
        measure_fn: Measures one position, returning the kernel time in
            seconds (any non-finite value — ``inf`` or ``NaN`` — counts as
            a launch failure). Must be thread-safe —
            the GPU simulator is stateless, so the standard tuner path is.
        workers: Thread-pool width. ``1`` measures serially (no pool).
        clock: Optional :class:`TuningClock` billed per batch. ``None``
            skips billing entirely (library callers that account for
            measurement cost themselves).
        repetitions: Kernel repetitions per measurement, billed as
            accumulated runtime (launch failures bill zero runtime).
        cost_kind: The :data:`~repro.search.tuning_cost.COSTS` bucket for
            per-measurement host cost (compile + launch machinery).
    """

    def __init__(
        self,
        measure_fn: Callable[[int], float],
        workers: int = 1,
        clock: TuningClock | None = None,
        repetitions: int = 100,
        cost_kind: str = "triton_compile_measure",
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if cost_kind not in COSTS:
            raise KeyError(f"unknown tuning cost kind {cost_kind!r}")
        self.measure_fn = measure_fn
        self.workers = workers
        self.clock = clock
        self.repetitions = repetitions
        self.cost_kind = cost_kind
        #: Measurements executed so far (across all batches).
        self.measurements = 0
        #: Batches executed so far.
        self.batches = 0

    def measure(self, positions: Sequence[int]) -> list[float]:
        """Measure a batch; returns times aligned with ``positions``.

        Runs the measurement function across the pool, then bills the
        deterministic makespan of the batch to the clock.
        """
        positions = list(positions)
        if not positions:
            return []
        from repro.obs import get_tracer

        tracer = get_tracer()
        with tracer.span(
            "measure.batch",
            clock=self.clock,
            n=len(positions),
            workers=self.workers,
        ) as batch:
            if tracer.enabled:
                # Pool threads don't inherit this thread's span stack, so
                # each per-candidate span names the batch span explicitly.
                def run_one(pair):
                    i, position = pair
                    with tracer.span(
                        "measure.candidate", parent=batch, idx=i
                    ) as span:
                        t = self.measure_fn(position)
                        span.set(time=t, failed=not math.isfinite(t))
                        return t

            else:
                def run_one(pair):
                    return self.measure_fn(pair[1])

            if self.workers == 1 or len(positions) == 1:
                times = [run_one(p) for p in enumerate(positions)]
            else:
                with ThreadPoolExecutor(
                    max_workers=min(self.workers, len(positions))
                ) as pool:
                    times = list(pool.map(run_one, enumerate(positions)))
            self.measurements += len(positions)
            self.batches += 1
            failures = sum(1 for t in times if not math.isfinite(t))
            if self.clock is not None:
                # Any non-finite time (inf *or* NaN) is a launch failure and
                # bills zero runtime: a NaN multiplied into the makespan
                # would poison the TuningClock forever.
                costs = [
                    COSTS[self.cost_kind]
                    + (self.repetitions * t if math.isfinite(t) else 0.0)
                    for t in times
                ]
                makespan = batch_makespan(costs, self.workers)
                self.clock.charge(self.cost_kind, count=0.0, runtime=makespan)
                batch.set(sim_makespan=makespan)
            batch.set(failures=failures)
        return times
