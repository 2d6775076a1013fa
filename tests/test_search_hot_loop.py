"""The search loop's hot path: candidate objects built only for measured
points, estimates billed in batches exactly as one-by-one billing would."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import SessionConfig
from repro.gpu.specs import A100
from repro.search.engine import ParallelEvaluator, SearchLoop
from repro.search.engine.strategy import EvolutionarySearch
from repro.search.space import Candidate, generate_space
from repro.search.tuner import MCFuserTuner
from repro.search.tuning_cost import COSTS, TuningClock
from repro.workloads import build_workload


def test_seeded_g1_tune_builds_only_measured_candidates(monkeypatch):
    built = [0]
    populations: list[tuple] = []
    original_post_init = Candidate.__post_init__
    original_evolve = EvolutionarySearch.evolve

    def counting_post_init(self):
        built[0] += 1
        original_post_init(self)

    def evolve(self, loop):
        original_evolve(self, loop)
        populations.append((len(loop.space), self.population))

    monkeypatch.setattr(Candidate, "__post_init__", counting_post_init)
    monkeypatch.setattr(EvolutionarySearch, "evolve", evolve)
    report = MCFuserTuner(
        A100, config=SessionConfig.make(seed=0, cache_enabled=False)
    ).tune(build_workload("G1"))

    assert report.search.strategy == "evolutionary"
    assert report.search.num_measurements > 0
    assert built[0] <= report.search.num_measurements
    assert populations, "the tune never evolved a generation"
    for size, population in populations:
        assert len(population) > 0
        for p in population.tolist():
            assert isinstance(p, int) and 0 <= p < size


def test_charge_each_is_sequential_charges_bit_for_bit():
    one_by_one, batched = TuningClock(), TuningClock()
    for clock in (one_by_one, batched):
        clock.charge("space_generation")
    for n in (1, 7, 512, 3):
        for _ in range(n):
            one_by_one.charge("model_estimate")
        batched.charge_each("model_estimate", n)
        assert batched.seconds == one_by_one.seconds
        assert batched.breakdown == one_by_one.breakdown
    # A single ``count=n`` charge rounds once, which is not the same sum.
    lump = TuningClock()
    lump.charge("space_generation")
    lump.charge("model_estimate", count=1 + 7 + 512 + 3)
    assert lump.seconds != one_by_one.seconds


def test_charge_each_of_nothing_leaves_the_breakdown_alone():
    clock = TuningClock()
    clock.charge_each("model_estimate", 0)
    assert clock.seconds == 0.0 and clock.breakdown == {}
    with pytest.raises(KeyError):
        clock.charge_each("no_such_kind", 1)


def test_estimates_are_counted_per_candidate():
    space = generate_space(build_workload("S6"), A100)
    calls: list[int] = []

    def estimate(cands):
        calls.append(len(cands))
        return [1e-6] * len(cands)

    loop = SearchLoop(space, estimate, ParallelEvaluator(lambda c: 1e-6))
    out = loop.estimate_batch(np.arange(5))
    assert out.dtype == np.float64 and out.shape == (5,)
    assert loop.estimate(0) == 1e-6
    assert calls == [5, 1]
    assert loop.num_estimates == 6


def test_tuner_bills_one_estimate_per_ranked_candidate():
    report = MCFuserTuner(
        A100,
        config=SessionConfig.make(
            seed=2, population_size=64, max_rounds=3, min_rounds=1, cache_enabled=False
        ),
    ).tune(build_workload("S6"))
    expected = TuningClock()
    expected.charge_each("model_estimate", report.search.num_estimates)
    assert report.clock.breakdown["model_estimate"] == expected.seconds
    assert expected.seconds == pytest.approx(
        COSTS["model_estimate"] * report.search.num_estimates
    )
