"""ParallelEvaluator: determinism, worker pools, and clock accounting."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.search.engine.evaluator import ParallelEvaluator, batch_makespan
from repro.search.tuning_cost import COSTS, TuningClock


class FakeCandidate:
    """Stands in for a Candidate: the evaluator only forwards it."""

    def __init__(self, t):
        self.t = t

    @property
    def key(self):
        return ("fake", self.t)


def measure(c):
    return c.t


class TestBatchMakespan:
    def test_empty_batch(self):
        assert batch_makespan([], 4) == 0.0

    def test_single_worker_is_serial_sum(self):
        costs = [1.0, 2.0, 3.0]
        assert batch_makespan(costs, 1) == pytest.approx(6.0)

    def test_greedy_assignment(self):
        # Submission order, earliest-free worker: [3, 1] then 2 lands on the
        # worker that finished the 1 -> finishes at 3.0, not 4.0.
        assert batch_makespan([3.0, 1.0, 2.0], 2) == pytest.approx(3.0)

    def test_more_workers_than_tasks(self):
        assert batch_makespan([5.0, 1.0], 8) == pytest.approx(5.0)

    def test_workers_validated(self):
        with pytest.raises(ValueError):
            batch_makespan([1.0], 0)


class TestEvaluator:
    def test_results_align_with_submission_order(self):
        cands = [FakeCandidate(i * 1e-6) for i in range(10)]
        ev = ParallelEvaluator(measure, workers=1)
        assert ev.measure(cands) == [c.t for c in cands]

    def test_parallel_matches_serial(self):
        cands = [FakeCandidate(i * 1e-6) for i in range(17)]
        serial = ParallelEvaluator(measure, workers=1).measure(cands)
        parallel = ParallelEvaluator(measure, workers=4).measure(cands)
        assert serial == parallel

    def test_counters(self):
        ev = ParallelEvaluator(measure, workers=2)
        ev.measure([FakeCandidate(1e-6)] * 3)
        ev.measure([FakeCandidate(1e-6)] * 2)
        assert ev.measurements == 5
        assert ev.batches == 2

    def test_workers_validated(self):
        with pytest.raises(ValueError):
            ParallelEvaluator(measure, workers=0)

    def test_unknown_cost_kind_rejected(self):
        with pytest.raises(KeyError):
            ParallelEvaluator(measure, cost_kind="quantum_compile")


class TestClockAccounting:
    UNIT = COSTS["triton_compile_measure"]

    def test_serial_billing_matches_legacy_per_measure_charges(self):
        """workers=1 must bill exactly what the old serial loop billed:
        one compile charge + repetitions x time per measurement."""
        times = [2e-6, 3e-6, 5e-6]
        clock = TuningClock()
        ev = ParallelEvaluator(measure, workers=1, clock=clock, repetitions=100)
        ev.measure([FakeCandidate(t) for t in times])
        expected = sum(self.UNIT + 100 * t for t in times)
        assert clock.seconds == pytest.approx(expected)
        assert clock.breakdown == {"triton_compile_measure": pytest.approx(expected)}

    def test_parallel_bills_makespan_not_sum(self):
        times = [1e-6] * 8
        serial_clock, par_clock = TuningClock(), TuningClock()
        ParallelEvaluator(measure, workers=1, clock=serial_clock).measure(
            [FakeCandidate(t) for t in times]
        )
        ParallelEvaluator(measure, workers=4, clock=par_clock).measure(
            [FakeCandidate(t) for t in times]
        )
        assert par_clock.seconds == pytest.approx(serial_clock.seconds / 4)

    def test_parallel_billing_deterministic(self):
        times = [1e-6, 9e-6, 2e-6, 7e-6, 4e-6]
        clocks = []
        for _ in range(3):
            clock = TuningClock()
            ParallelEvaluator(measure, workers=3, clock=clock).measure(
                [FakeCandidate(t) for t in times]
            )
            clocks.append(clock.seconds)
        assert clocks[0] == clocks[1] == clocks[2]
        # And it equals the analytic makespan of the per-task costs.
        costs = [self.UNIT + 100 * t for t in times]
        assert clocks[0] == pytest.approx(batch_makespan(costs, 3))

    def test_launch_failures_bill_no_runtime(self):
        clock = TuningClock()
        ev = ParallelEvaluator(measure, workers=1, clock=clock)
        ev.measure([FakeCandidate(float("inf"))])
        assert clock.seconds == pytest.approx(self.UNIT)

    def test_nan_bills_no_runtime(self):
        """A NaN measurement is a launch failure, not a NaN makespan —
        the historical `t == inf` check let NaN poison the clock forever."""
        clock = TuningClock()
        ev = ParallelEvaluator(measure, workers=1, clock=clock)
        ev.measure([FakeCandidate(float("nan"))])
        assert math.isfinite(clock.seconds)
        assert clock.seconds == pytest.approx(self.UNIT)

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_nan_inf_mix_bills_only_finite_runtime(self, workers):
        times = [1e-6, float("nan"), 3e-6, float("inf"), float("-inf"), 2e-6]
        clock = TuningClock()
        ev = ParallelEvaluator(measure, workers=workers, clock=clock, repetitions=100)
        out = ev.measure([FakeCandidate(t) for t in times])
        # results pass through unnormalized (the loop normalizes), but the
        # bill covers only the finite measurements.
        assert out[3] == float("inf") and math.isnan(out[1])
        costs = [self.UNIT + (100 * t if math.isfinite(t) else 0.0) for t in times]
        assert math.isfinite(clock.seconds)
        assert clock.seconds == pytest.approx(batch_makespan(costs, workers))

    def test_zero_repetitions_bills_compile_only(self):
        clock = TuningClock()
        ev = ParallelEvaluator(measure, workers=1, clock=clock, repetitions=0)
        ev.measure([FakeCandidate(5.0), FakeCandidate(float("nan"))])
        assert clock.seconds == pytest.approx(2 * self.UNIT)

    def test_no_clock_no_billing(self):
        ev = ParallelEvaluator(measure, workers=2)
        assert ev.measure([FakeCandidate(1e-6)]) == [1e-6]

    def test_empty_batch_bills_nothing(self):
        clock = TuningClock()
        ParallelEvaluator(measure, workers=2, clock=clock).measure([])
        assert clock.seconds == 0.0


class TestMakespanProperties:
    @given(
        st.lists(
            st.floats(allow_nan=False, allow_infinity=False, width=32),
            max_size=32,
        )
    )
    def test_single_worker_makespan_is_serial_sum(self, costs):
        """batch_makespan(costs, 1) == sum(costs) for every float input."""
        assert batch_makespan(costs, 1) == pytest.approx(
            sum(costs, 0.0), rel=1e-9, abs=1e-30
        )

    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=24,
        ),
        st.integers(min_value=1, max_value=8),
    )
    def test_makespan_bounded_by_serial_and_ideal(self, costs, workers):
        span = batch_makespan(costs, workers)
        assert max(costs) - 1e-9 <= span <= sum(costs) + 1e-9


class TestLoopNonFiniteHandling:
    """SearchLoop must treat NaN measurements exactly like launch failures."""

    @pytest.fixture(scope="class")
    def space(self):
        from repro.gpu.specs import A100
        from repro.ir.chain import gemm_chain
        from repro.search.space import generate_space

        return generate_space(gemm_chain(1, 256, 256, 64, 64, name="nan-loop"), A100)

    def test_nan_measurements_blacklisted_and_never_best(self, space):
        from repro.search.engine.loop import SearchLoop
        from repro.search.engine.strategy import make_strategy

        calls = {"n": 0}

        def measure(p):
            calls["n"] += 1
            return float("nan") if calls["n"] % 2 else 1e-6 * calls["n"]

        clock = TuningClock()
        loop = SearchLoop(
            space,
            lambda ps: [1e-6] * len(ps),
            ParallelEvaluator(measure, clock=clock),
            max_rounds=4,
            min_rounds=1,
            seed=0,
        )
        result = loop.run(make_strategy("random"))
        assert math.isfinite(result.best_time)
        # NaNs were normalized to inf and blacklisted
        assert loop.failed_positions
        assert all(not math.isnan(t) for t in result.measured.values())
        assert all(not math.isnan(t) for _, t in result.pairs)
        # and the makespan billing stayed finite
        assert math.isfinite(clock.seconds)

    def test_all_nan_round_keeps_searching(self, space):
        from repro.search.engine.loop import SearchLoop
        from repro.search.engine.strategy import make_strategy

        loop = SearchLoop(
            space,
            lambda ps: [1e-6] * len(ps),
            ParallelEvaluator(lambda p: float("nan")),
            max_rounds=3,
            seed=0,
        )
        result = loop.run(make_strategy("evolutionary"))
        assert result.best_time == float("inf")  # not NaN
        assert set(loop.measured_positions) == loop.failed_positions
        assert len(result.measured) == len(loop.failed_positions)


class TestTunerIntegration:
    def test_workers_change_clock_not_result(self):
        from repro.gpu.specs import A100
        from repro.ir.chain import gemm_chain
        from repro.config import SessionConfig
        from repro.search.tuner import MCFuserTuner

        chain = gemm_chain(1, 256, 256, 64, 64, name="eval-int")
        serial = MCFuserTuner(
            A100, config=SessionConfig.make(seed=0, workers=1)
        ).tune(chain)
        parallel = MCFuserTuner(
            A100, config=SessionConfig.make(seed=0, workers=4)
        ).tune(chain)
        assert serial.best_candidate.key == parallel.best_candidate.key
        assert serial.best_time == parallel.best_time
        assert serial.search.num_measurements == parallel.search.num_measurements
        # The parallel run's simulated wall clock must be strictly cheaper.
        assert parallel.tuning_seconds < serial.tuning_seconds
        assert parallel.workers == 4
