"""Unit tests for Algorithm 1 (the heuristic evolutionary search).

Each search runs the tuner's path: :class:`SearchLoop` with
:class:`EvolutionarySearch`, ranking from the space's price arrays and
measuring from the space's arrays (``space.measure``). The optimum and the
measurement a result is checked against come from built schedules.
"""

import pytest
from conftest import empty_space

from repro.gpu.occupancy import SharedMemoryExceeded
from repro.gpu.simulator import GPUSimulator
from repro.gpu.specs import A100
from repro.ir.chain import gemm_chain
from repro.search.engine import EvolutionarySearch, ParallelEvaluator, SearchLoop
from repro.search.perf_model import AnalyticalModel
from repro.search.space import generate_space


@pytest.fixture(scope="module")
def setup():
    chain = gemm_chain(1, 256, 256, 128, 128, name="evo")
    space = generate_space(chain, A100)
    objective = AnalyticalModel(A100).objective(space.prices)
    sim = GPUSimulator(A100, seed=0)

    def timed(launch):
        try:
            return sim.run(launch)
        except SharedMemoryExceeded:
            return float("inf")

    def measure(p):
        return space.measure(p, sim)

    def built(p):
        return timed(space.schedule_for(space.candidate(p)).kernel_launch(A100))

    def search(measure_fn=measure, space=space, **kwargs):
        loop = SearchLoop(space, objective.__getitem__, ParallelEvaluator(measure_fn), **kwargs)
        return loop.run(EvolutionarySearch())

    exhaustive = min(
        t for t in (built(p) for p in range(len(space))) if t != float("inf")
    )
    return space, search, measure, built, exhaustive


class TestSearchQuality:
    def test_finds_near_optimum(self, setup):
        space, search, _, _, best = setup
        result = search(seed=0)
        assert result.best_time <= 1.15 * best

    def test_result_consistent(self, setup):
        space, search, _, built, _ = setup
        result = search(seed=0)
        best = space.candidates.index(result.best)
        assert result.best_time == built(best)
        assert result.best.key in result.measured

    def test_deterministic_given_seed(self, setup):
        _, search, _, _, _ = setup
        a = search(seed=3)
        b = search(seed=3)
        assert a.best.key == b.best.key
        assert a.num_measurements == b.num_measurements

    def test_measurement_budget(self, setup):
        _, search, _, _, _ = setup
        result = search(top_n=8, max_rounds=16, seed=0)
        assert result.num_measurements <= 8 * 16
        assert result.num_measurements >= 8  # at least one round

    def test_pairs_recorded(self, setup):
        _, search, _, _, _ = setup
        result = search(seed=0)
        assert len(result.pairs) == result.num_measurements
        assert all(e > 0 and m > 0 for e, m in result.pairs)

    def test_convergence_flag(self, setup):
        _, search, _, _, _ = setup
        result = search(epsilon=0.5, min_rounds=2, seed=0)
        assert result.converged
        assert result.rounds <= 4


class TestFailureHandling:
    def test_survives_universal_launch_failure(self, setup):
        _, search, _, _, _ = setup
        result = search(lambda p: float("inf"), max_rounds=3, seed=0)
        assert result.best_time == float("inf")

    def test_recovers_from_partial_failures(self, setup):
        _, search, measure, _, _ = setup
        calls = {"n": 0}

        def flaky(p):
            calls["n"] += 1
            if calls["n"] <= 8:  # the whole first round fails
                return float("inf")
            return measure(p)

        result = search(flaky, seed=0)
        assert result.best_time != float("inf")

    def test_empty_space_rejected(self, setup):
        space, search, _, _, _ = setup
        with pytest.raises(ValueError):
            search(space=empty_space(space))

    def test_candidates_frozen(self, setup):
        space, *_ = setup
        assert isinstance(space.candidates, tuple)
        with pytest.raises(AttributeError):
            space.candidates = []
