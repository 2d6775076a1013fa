"""Table-driven mutation against the original per-attempt implementation.

``oracle_mutate`` is the mutation helper as it was written before the
search space grew its mutation tables: it re-sorts the loop names, builds a
throwaway ``Candidate`` and asks the space whether it contains it. The
engine's ``mutate_candidate`` must return the same mutant (as the space's
own object) and leave the rng in the same state, and every strategy must
return the same search result with either helper.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import SessionConfig
from repro.gpu.specs import A100
from repro.search.engine import ParallelEvaluator, SearchLoop, make_strategy
from repro.search.engine import strategy as strategy_mod
from repro.search.engine.strategy import BulkIntegers, mutate_candidate
from repro.search.space import Candidate, SearchSpace, generate_space
from repro.search.tuner import MCFuserTuner
from repro.workloads import build_workload, workload_names

ALL_STRATEGIES = ("evolutionary", "random", "exhaustive", "annealing")


def oracle_mutate(space, cand, rng, attempts=8):
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
        if space.contains(mutated):
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


def _assert_same_mutant(space, expected, got, parent):
    assert got.key == expected.key
    assert got is parent or got is space.canonical(got.key)


def _check_against_oracle(space, starts, seed, steps=3):
    """Chained walks with scalar draws, then one bulk batch, both against
    the oracle on a twin generator."""
    old_rng, new_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for start in starts:
        old = new = start
        for _ in range(steps):
            parent = new
            old = oracle_mutate(space, old, old_rng)
            new = mutate_candidate(space, new, new_rng)
            _assert_same_mutant(space, old, new, parent)
            assert _state(old_rng) == _state(new_rng)
    expected = [oracle_mutate(space, c, old_rng) for c in starts]
    with BulkIntegers(new_rng, len(starts)) as draws:
        got = [mutate_candidate(space, c, draws) for c in starts]
    for parent, e, g in zip(starts, expected, got):
        _assert_same_mutant(space, e, g, parent)
    assert _state(old_rng) == _state(new_rng)
    assert old_rng.random() == new_rng.random()


def _edge_space() -> tuple[SearchSpace, Candidate]:
    """A frozen space with a single-option loop and an off-grid tile.

    Loop ``h`` keeps one Rule-3 option, so mutations drawing it skip
    without a step draw. The extra candidate's ``m`` tile (3) is not an
    option, so mutation starts it from option 0; one step up lands on the
    candidate it was derived from.
    """
    base = generate_space(build_workload("G1"), A100)
    options = dict(base.tile_options)
    options["h"] = options["h"][:1]
    m_opts = options["m"]
    source = next(c for c in base.candidates if c.tile_dict["m"] == m_opts[1])
    off_grid = Candidate.make(source.expr, {**source.tile_dict, "m": 3})
    assert 3 not in m_opts
    space = SearchSpace(
        base.chain,
        A100,
        [*base.candidates, off_grid],
        base.stats,
        options,
    )
    return space, off_grid


@pytest.mark.parametrize("name", workload_names(level="chain"))
def test_every_chain_mutates_like_the_oracle(name):
    space = generate_space(build_workload(name), A100)
    starts = space.candidates[:: max(1, len(space.candidates) // 40)]
    for seed in (0, 1, 2):
        _check_against_oracle(space, starts, seed)


def test_single_option_loop_and_off_grid_tile():
    space, off_grid = _edge_space()
    for seed in range(20):
        _check_against_oracle(space, [off_grid] * 8 + list(space.candidates[:24]), seed)
    # The off-grid start really mutates (from option 0, up to option 1).
    rng = np.random.default_rng(0)
    mutants = {mutate_candidate(space, off_grid, rng).key for _ in range(50)}
    assert any(dict(key[1])["m"] == space.tile_options["m"][1] for key in mutants)


def _synthetic(cands):
    """A deterministic, tile-dependent cost surface (no schedules built)."""
    return [
        1e-6 * (1 + sum(t * (i + 3) for i, (_, t) in enumerate(c.tiles)) % 97)
        for c in cands
    ]


def _search(space, name, seed):
    def measure(c):
        (est,) = _synthetic([c])
        return est * (1.0 + 0.01 * (len(c.key[0]) % 5))

    loop = SearchLoop(
        space,
        _synthetic,
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


@pytest.fixture
def oracle_patched(monkeypatch):
    def patch():
        monkeypatch.setattr(strategy_mod, "mutate_candidate", oracle_mutate)
        monkeypatch.setattr(strategy_mod, "BulkIntegers", _ScalarDraws)

    return patch


@pytest.mark.parametrize("name", ALL_STRATEGIES)
def test_strategies_match_the_oracle_on_the_edge_space(name, oracle_patched):
    space, _ = _edge_space()
    fast = [_summary(_search(space, name, seed)) for seed in range(3)]
    oracle_patched()
    assert [_summary(_search(space, name, seed)) for seed in range(3)] == fast


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
    oracle_patched()
    assert tune() == fast
