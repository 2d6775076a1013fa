"""Strategy registry, parity across strategies, and the SearchLoop driver."""

import numpy as np
import pytest
from conftest import empty_space

from repro.config import SessionConfig
from repro.gpu.specs import A100
from repro.ir.chain import attention_chain, gemm_chain
from repro.search.engine import (
    EvolutionarySearch,
    ParallelEvaluator,
    SearchLoop,
    SearchStrategy,
    make_strategy,
    strategy_names,
)
from repro.search.engine.strategy import STRATEGY_REGISTRY, register_strategy
from repro.search.tuner import MCFuserTuner

ALL_STRATEGIES = ("evolutionary", "random", "exhaustive", "annealing")


class TestRegistry:
    def test_builtins_registered(self):
        assert set(ALL_STRATEGIES) <= set(strategy_names())

    def test_make_strategy_by_name(self):
        assert make_strategy("evolutionary").name == "evolutionary"

    def test_make_strategy_passthrough(self):
        inst = EvolutionarySearch()
        assert make_strategy(inst) is inst

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            make_strategy("quantum")
        with pytest.raises(ValueError):
            MCFuserTuner(A100, config=SessionConfig.make(strategy="quantum"))

    def test_register_requires_name(self):
        class Nameless(SearchStrategy):
            pass

        with pytest.raises(ValueError):
            register_strategy(Nameless)

    def test_register_rejects_name_collision(self):
        class Imposter(SearchStrategy):
            name = "random"  # collides with the built-in

        with pytest.raises(ValueError, match="already registered"):
            register_strategy(Imposter)
        # Re-registering the same class is an idempotent no-op.
        from repro.search.engine.strategy import RandomSearch

        assert register_strategy(RandomSearch) is RandomSearch

    def test_custom_strategy_pluggable(self):
        class FirstN(SearchStrategy):
            """Rank the space in enumeration order — no model, no rng."""

            name = "first-n-test"
            uses_convergence = False

            def round_budget(self, loop):
                return 2

            def propose(self, loop):
                positions = np.arange(len(loop.space))
                return positions, loop.estimate_batch(positions)

        try:
            register_strategy(FirstN)
            chain = gemm_chain(1, 256, 256, 64, 64, name="plug")
            report = MCFuserTuner(
                A100,
                config=SessionConfig.make(strategy="first-n-test"),
            ).tune(chain)
            assert report.strategy == "first-n-test"
            assert report.search.num_measurements == 16  # 2 rounds x top_n
        finally:
            STRATEGY_REGISTRY.pop("first-n-test", None)


class TestStrategyParity:
    """Every registered strategy must find a schedule within 5% of
    EvolutionarySearch's best measured time (seeded, deterministic)."""

    @pytest.fixture(scope="class", params=["gemm", "attention"])
    def workload(self, request):
        if request.param == "gemm":
            chain = gemm_chain(1, 256, 256, 64, 64, name="par-gemm")
        else:
            chain = attention_chain(8, 256, 256, 64, 64, name="par-attn")
        baseline = MCFuserTuner(A100, config=SessionConfig()).tune(chain)
        return chain, baseline

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_within_5_percent_of_evolutionary(self, workload, strategy):
        chain, baseline = workload
        report = MCFuserTuner(
            A100,
            config=SessionConfig.make(strategy=strategy),
        ).tune(chain)
        assert report.best_time <= 1.05 * baseline.best_time
        assert report.strategy == strategy

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_deterministic_given_seed(self, workload, strategy):
        chain, _ = workload
        config = SessionConfig.make(seed=7, strategy=strategy)
        a = MCFuserTuner(A100, config=config).tune(chain)
        b = MCFuserTuner(A100, config=config).tune(chain)
        assert a.best_candidate.key == b.best_candidate.key
        assert a.best_time == b.best_time
        assert a.tuning_seconds == b.tuning_seconds


class TestStrategyBehavior:
    def test_evolutionary_matches_legacy_tuner(self):
        """strategy="evolutionary" is behavior-identical to the default."""
        chain = gemm_chain(1, 256, 256, 64, 64, name="legacy-eq")
        default = MCFuserTuner(A100, config=SessionConfig.make(seed=2)).tune(chain)
        explicit = MCFuserTuner(
            A100,
            config=SessionConfig.make(seed=2, strategy="evolutionary"),
        ).tune(chain)
        assert default.best_candidate.key == explicit.best_candidate.key
        assert default.best_time == explicit.best_time
        assert default.tuning_seconds == explicit.tuning_seconds
        assert default.pruning == explicit.pruning

    def test_exhaustive_measures_everything(self):
        chain = gemm_chain(1, 256, 256, 64, 64, name="exh")
        report = MCFuserTuner(
            A100,
            config=SessionConfig.make(strategy="exhaustive"),
        ).tune(chain)
        assert report.search.num_measurements == report.pruning.after_rule4
        # Exhaustive is the ground truth: nothing can beat it.
        evo = MCFuserTuner(A100, config=SessionConfig()).tune(chain)
        assert report.best_time <= evo.best_time

    def test_annealing_respects_convergence(self):
        chain = gemm_chain(1, 256, 256, 64, 64, name="ann")
        report = MCFuserTuner(
            A100,
            config=SessionConfig.make(strategy="annealing"),
        ).tune(chain)
        assert report.search.rounds <= 16
        assert report.search.num_measurements <= 8 * 16

    def test_annealing_parameters_validated(self):
        from repro.search.engine.strategy import SimulatedAnnealingSearch

        with pytest.raises(ValueError):
            SimulatedAnnealingSearch(initial_temperature=0.0)
        with pytest.raises(ValueError):
            SimulatedAnnealingSearch(cooling=1.5)


class TestSearchLoopBookkeeping:
    @pytest.fixture(scope="class")
    def space(self):
        from repro.search.space import generate_space

        return generate_space(gemm_chain(1, 256, 256, 64, 64, name="loop"), A100)

    def test_no_candidate_measured_twice(self, space):
        measured_calls = []

        def measure(p):
            measured_calls.append(p)
            return 1e-6 * (1 + p % 7)

        loop = SearchLoop(
            space,
            lambda ps: [1e-6] * len(ps),
            ParallelEvaluator(measure),
            max_rounds=6,
            min_rounds=6,
            seed=0,
        )
        result = loop.run(make_strategy("random"))
        assert len(measured_calls) == len(set(measured_calls))
        assert result.num_measurements == len(measured_calls)

    def test_failed_candidates_blacklisted(self, space):
        loop = SearchLoop(
            space,
            lambda ps: [1e-6] * len(ps),
            ParallelEvaluator(lambda p: float("inf")),
            max_rounds=3,
            seed=0,
        )
        result = loop.run(make_strategy("evolutionary"))
        assert result.best_time == float("inf")
        assert set(loop.measured_positions) == loop.failed_positions
        assert set(result.measured) == {space.candidate(p).key for p in loop.failed_positions}

    def test_pairs_align_with_measurements(self, space):
        rng = np.random.default_rng(0)

        def measure(p):
            return float(1e-6 + 1e-7 * rng.random())

        loop = SearchLoop(
            space, lambda ps: [1e-6] * len(ps), ParallelEvaluator(measure), seed=0
        )
        result = loop.run(make_strategy("random"))
        assert len(result.pairs) == result.num_measurements

    def test_empty_space_rejected(self, space):
        with pytest.raises(ValueError):
            SearchLoop(
                empty_space(space), lambda ps: [1e-6] * len(ps), ParallelEvaluator(lambda p: 1e-6)
            )


class TestCacheStrategyFaithfulness:
    def test_entries_keyed_per_strategy(self, tmp_path):
        from repro.cache.cache import ScheduleCache

        chain = gemm_chain(1, 256, 256, 64, 64, name="faith")
        cache = ScheduleCache(tmp_path)
        rnd = MCFuserTuner(
            A100,
            cache=cache,
            config=SessionConfig.make(strategy="random"),
        ).tune(chain)
        assert not rnd.cache_hit
        # A different strategy must not be served the random entry...
        evo = MCFuserTuner(A100, cache=cache, config=SessionConfig()).tune(chain)
        assert not evo.cache_hit
        # ...but the same strategy is.
        again = MCFuserTuner(
            A100,
            cache=cache,
            config=SessionConfig.make(strategy="random"),
        ).tune(chain)
        assert again.cache_hit
        assert again.best_time == rnd.best_time
        variants = {e.variant for e in cache.entries()}
        assert variants == {"mcfuser+random", "mcfuser"}

    def test_default_strategy_keeps_bare_variant(self):
        from repro.cache.signature import variant_key

        assert variant_key("mcfuser") == "mcfuser"
        assert variant_key("mcfuser", "evolutionary") == "mcfuser"
        assert variant_key("chimera", "annealing") == "chimera+annealing"
        tuner = MCFuserTuner(A100)
        assert tuner.cache_variant == "mcfuser"
