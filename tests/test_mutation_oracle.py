"""Position mutation against the original per-attempt implementation.

``oracle_mutate`` is the mutation helper as it was written before the
search space grew its mutation index: it re-sorts the loop names, builds a
throwaway ``Candidate`` and looks its key up among the space's candidates.
It decides containment, and maps its results to positions, with its own
key table built from ``space.candidates``, so a fault in the space's
mutation index cannot move it too. The engine's ``mutate_position`` (scalar draws) and ``mutate_positions`` (one
bulk block per batch) must return the position of the same mutant and
leave the rng in the same state, and every strategy must return the same
search result with either helper.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest

from repro.config import SessionConfig
from repro.gpu.specs import A100
from repro.search.engine import ParallelEvaluator, SearchLoop, make_strategy
from repro.search.engine import strategy as strategy_mod
from repro.search.engine.strategy import BulkIntegers, mutate_position, mutate_positions
from repro.ir.chain import gemm_chain
from repro.search.space import Candidate, SearchSpace, generate_space
from repro.search.tuner import MCFuserTuner
from repro.workloads import build_workload, workload_names

ALL_STRATEGIES = ("evolutionary", "random", "exhaustive", "annealing")


@lru_cache(maxsize=4)
def oracle_keys(space):
    """Key -> position over ``space.candidates``."""
    return {cand.key: p for p, cand in enumerate(space.candidates)}


def oracle_mutate(space, cand, rng, attempts=8):
    keys = oracle_keys(space)
    loops = space.chain.loop_names
    for _ in range(attempts):
        loop = loops[int(rng.integers(len(loops)))]
        options = space.tile_options[loop]
        if len(options) < 2:
            continue
        pos = sorted(loops).index(loop)
        tile = cand.tiles[pos][1]
        idx = options.index(tile) if tile in options else 0
        step = (-1, 1)[int(rng.integers(2))]
        new_idx = min(max(idx + step, 0), len(options) - 1)
        if new_idx == idx:
            continue
        tiles = (*cand.tiles[:pos], (loop, options[new_idx]), *cand.tiles[pos + 1:])
        mutated = Candidate(expr=cand.expr, tiles=tiles)
        if mutated.key in keys:
            return mutated
    return cand


class _ScalarDraws:
    """Stands in for BulkIntegers: every draw goes to the generator itself."""

    def __init__(self, rng, size):
        self.rng = rng

    def __enter__(self):
        return self.rng

    def __exit__(self, *exc):
        return None


def _state(rng):
    return rng.bit_generator.state


def _oracle_position(space, position, rng, attempts=8):
    """``oracle_mutate`` of the position's candidate, as a position."""
    cand = space.candidates[position]
    got = oracle_mutate(space, cand, rng, attempts)
    return position if got is cand else oracle_keys(space)[got.key]


def _check_against_oracle(space, starts, seed, steps=3):
    """Chained walks with scalar draws, then one batch through the bulk
    loop and one through ``BulkIntegers.integers``, each against the
    oracle on a twin generator."""
    old_rng, new_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for start in starts:
        old = new = start
        for _ in range(steps):
            old = _oracle_position(space, old, old_rng)
            new = mutate_position(space, new, new_rng)
            assert new == old
            assert _state(old_rng) == _state(new_rng)
    for batch in (
        lambda draws: mutate_positions(space, starts, draws),
        lambda draws: [mutate_position(space, p, draws) for p in starts],
    ):
        expected = [_oracle_position(space, p, old_rng) for p in starts]
        with BulkIntegers(new_rng, len(starts)) as draws:
            got = batch(draws)
        assert got == expected
        assert _state(old_rng) == _state(new_rng)
    assert old_rng.random() == new_rng.random()


def _edge_space() -> SearchSpace:
    """A generated space whose loop ``n`` has a single Rule-3 option (its
    extent is 1), so mutations drawing it skip without a step draw."""
    space = generate_space(gemm_chain(1, 128, 1, 64, 64, name="edge"), A100)
    assert space.tile_options["n"] == [1]
    return space


@pytest.mark.parametrize("name", workload_names(level="chain"))
def test_every_chain_mutates_like_the_oracle(name):
    space = generate_space(build_workload(name), A100)
    starts = list(range(0, len(space), max(1, len(space) // 40)))
    for seed in (0, 1, 2):
        _check_against_oracle(space, starts, seed)


def test_single_option_loop():
    space = _edge_space()
    n = space.chain.loop_names.index("n")
    assert not space.mutable_loops[n] and sum(space.mutable_loops) >= 2
    starts = list(range(0, len(space), max(1, len(space) // 32)))
    for seed in range(20):
        _check_against_oracle(space, starts, seed)
    # Every start really mutates, and only in its mutable loops.
    rng = np.random.default_rng(0)
    for p in range(len(space)):
        mutants = {mutate_position(space, p, rng) for _ in range(8)}
        assert mutants - {p}
        assert {space.candidate(q).tile_dict["n"] for q in mutants} == {1}


class _Scripted:
    """A generator stand-in that serves a fixed cycle of raw uint32 draws."""

    def __init__(self, raw):
        self.raw, self.state, self.bit_generator = raw, 0, self

    def integers(self, low, high, size, dtype):
        out = [self.raw[(self.state + i) % len(self.raw)] for i in range(size)]
        self.state += size
        return np.array(out, dtype=dtype)


def test_rejected_loop_draws_are_redrawn_exactly():
    """With three loops to draw from, Lemire's rule rejects a raw 0; the
    bulk loop then reads on to the next raw draw, as numpy does."""
    space = generate_space(build_workload("G1"), A100)
    space.mutable_loops = space.mutable_loops[:3]
    raw = [0, 0, 2**31, 5 * 2**29, 0, 3 * 2**30, 2**30, 7 * 2**29, 0, 2**29]
    parents = list(range(0, len(space), max(1, len(space) // 60)))
    with BulkIntegers(_Scripted(raw), 4) as bulk:
        got = mutate_positions(space, parents, bulk)
        used = bulk.used
    redrawn = []

    class Counting(BulkIntegers):
        def integers(self, n):
            before = self.used
            value = super().integers(n)
            if self.used - before > 1:
                redrawn.append(n)
            return value

    with Counting(_Scripted(raw), 4) as scalar:
        want = [mutate_position(space, p, scalar) for p in parents]
        assert used == scalar.used
    assert got == want
    assert redrawn and set(redrawn) == {3}
    assert any(p != q for p, q in zip(parents, got))


def _synthetic(cands):
    """A deterministic, tile-dependent cost surface (no schedules built)."""
    return [
        1e-6 * (1 + sum(t * (i + 3) for i, (_, t) in enumerate(c.tiles)) % 97)
        for c in cands
    ]


def _search(space, name, seed):
    def estimate(positions):
        return _synthetic([space.candidate(p) for p in positions.tolist()])

    def measure(p):
        c = space.candidate(p)
        (est,) = _synthetic([c])
        return est * (1.0 + 0.01 * (len(c.key[0]) % 5))

    loop = SearchLoop(
        space,
        estimate,
        ParallelEvaluator(measure),
        population_size=48,
        top_n=4,
        max_rounds=5,
        min_rounds=2,
        seed=seed,
    )
    return loop.run(make_strategy(name))


def _summary(result):
    return (
        result.best.key,
        result.best_time,
        result.num_estimates,
        result.num_measurements,
        result.pairs,
    )


#: Strategies whose search mutates (so the oracle patch must be called).
MUTATING = ("evolutionary", "annealing")


@pytest.fixture
def oracle_patched(monkeypatch):
    calls = []

    def oracle_position(space, position, rng, attempts=8):
        calls.append(position)
        return _oracle_position(space, position, rng, attempts)

    def oracle_positions(space, parents, draws, attempts=8):
        return [oracle_position(space, p, draws, attempts) for p in parents]

    def patch():
        monkeypatch.setattr(strategy_mod, "mutate_position", oracle_position)
        monkeypatch.setattr(strategy_mod, "mutate_positions", oracle_positions)
        monkeypatch.setattr(strategy_mod, "BulkIntegers", _ScalarDraws)
        return calls

    return patch


@pytest.mark.parametrize("name", ALL_STRATEGIES)
def test_strategies_match_the_oracle_on_the_edge_space(name, oracle_patched):
    space = _edge_space()
    fast = [_summary(_search(space, name, seed)) for seed in range(3)]
    calls = oracle_patched()
    assert [_summary(_search(space, name, seed)) for seed in range(3)] == fast
    assert bool(calls) == (name in MUTATING)


@pytest.mark.parametrize("name", ALL_STRATEGIES)
def test_tuner_results_match_the_oracle(name, oracle_patched):
    config = SessionConfig.make(
        strategy=name,
        seed=1,
        population_size=96,
        max_rounds=4,
        min_rounds=2,
        cache_enabled=False,
    )

    def tune():
        report = MCFuserTuner(A100, config=config).tune(build_workload("S6"))
        return _summary(report.search), report.tuning_seconds, report.clock.breakdown

    fast = tune()
    calls = oracle_patched()
    assert tune() == fast
    assert bool(calls) == (name in MUTATING)
