"""Unit tests for Algorithm 1 (the heuristic evolutionary search)."""

import pytest
from conftest import empty_space

from repro.gpu.occupancy import SharedMemoryExceeded
from repro.gpu.simulator import GPUSimulator
from repro.gpu.specs import A100
from repro.ir.chain import gemm_chain
from repro.search.evolution import heuristic_search
from repro.search.perf_model import AnalyticalModel
from repro.search.space import generate_space


@pytest.fixture(scope="module")
def setup():
    chain = gemm_chain(1, 256, 256, 128, 128, name="evo")
    space = generate_space(chain, A100)
    model = AnalyticalModel(A100)
    sim = GPUSimulator(A100, seed=0)
    schedules = {}

    def sched(p):
        if p not in schedules:
            schedules[p] = space.schedule_for(space.candidate(p))
        return schedules[p]

    def estimate(p):
        return model(sched(p))

    def measure(p):
        try:
            return sim.run(sched(p).kernel_launch(A100))
        except SharedMemoryExceeded:
            return float("inf")

    exhaustive = min(
        t for t in (measure(p) for p in range(len(space))) if t != float("inf")
    )
    return space, estimate, measure, exhaustive


class TestSearchQuality:
    def test_finds_near_optimum(self, setup):
        space, estimate, measure, best = setup
        result = heuristic_search(space, estimate, measure, seed=0)
        assert result.best_time <= 1.15 * best

    def test_result_consistent(self, setup):
        space, estimate, measure, _ = setup
        result = heuristic_search(space, estimate, measure, seed=0)
        best = space.candidates.index(result.best)
        assert result.best_time == measure(best)
        assert result.best.key in result.measured

    def test_deterministic_given_seed(self, setup):
        space, estimate, measure, _ = setup
        a = heuristic_search(space, estimate, measure, seed=3)
        b = heuristic_search(space, estimate, measure, seed=3)
        assert a.best.key == b.best.key
        assert a.num_measurements == b.num_measurements

    def test_measurement_budget(self, setup):
        space, estimate, measure, _ = setup
        result = heuristic_search(space, estimate, measure, top_n=8, max_rounds=16, seed=0)
        assert result.num_measurements <= 8 * 16
        assert result.num_measurements >= 8  # at least one round

    def test_pairs_recorded(self, setup):
        space, estimate, measure, _ = setup
        result = heuristic_search(space, estimate, measure, seed=0)
        assert len(result.pairs) == result.num_measurements
        assert all(e > 0 and m > 0 for e, m in result.pairs)

    def test_convergence_flag(self, setup):
        space, estimate, measure, _ = setup
        result = heuristic_search(space, estimate, measure, epsilon=0.5, min_rounds=2, seed=0)
        assert result.converged
        assert result.rounds <= 4


class TestFailureHandling:
    def test_survives_universal_launch_failure(self, setup):
        space, estimate, _, _ = setup
        result = heuristic_search(
            space, estimate, lambda c: float("inf"), max_rounds=3, seed=0
        )
        assert result.best_time == float("inf")

    def test_recovers_from_partial_failures(self, setup):
        space, estimate, measure, best = setup
        calls = {"n": 0}

        def flaky(p):
            calls["n"] += 1
            if calls["n"] <= 8:  # the whole first round fails
                return float("inf")
            return measure(p)

        result = heuristic_search(space, estimate, flaky, seed=0)
        assert result.best_time != float("inf")

    def test_empty_space_rejected(self, setup):
        space, estimate, measure, _ = setup
        empty = empty_space(space)
        with pytest.raises(ValueError):
            heuristic_search(empty, estimate, measure)

    def test_candidates_frozen(self, setup):
        space, *_ = setup
        assert isinstance(space.candidates, tuple)
        with pytest.raises(AttributeError):
            space.candidates = []
