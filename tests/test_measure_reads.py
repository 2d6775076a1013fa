"""Guard: a tune reads simulated times only at the positions it measures.

A space simulates all of its points at once, on its first measurement, and
:meth:`~repro.search.space.SearchSpace.measure` is the one reader of those
times. Nothing in the arrays stops a search from looking at a time it never
paid to measure, so this test does: for every registered strategy, a tune
reads exactly the positions it measured (launch failures included), each
once.
"""

from __future__ import annotations

import pytest

from repro.config import SessionConfig
from repro.gpu.specs import A100
from repro.ir.chain import gemm_chain
from repro.search.engine.strategy import STRATEGY_REGISTRY
from repro.search.space import SearchSpace
from repro.search.tuner import MCFuserTuner


@pytest.mark.parametrize("strategy", sorted(STRATEGY_REGISTRY))
def test_tune_reads_times_only_where_it_measures(monkeypatch, strategy):
    reads: list[int] = []
    loops = []
    real_measure, real_search_loop = SearchSpace.measure, MCFuserTuner._search_loop

    def measure(self, position, sim):
        reads.append(position)
        return real_measure(self, position, sim)

    def search_loop(self, space, clock):
        loops.append(real_search_loop(self, space, clock))
        return loops[-1]

    monkeypatch.setattr(SearchSpace, "measure", measure)
    monkeypatch.setattr(MCFuserTuner, "_search_loop", search_loop)
    chain = gemm_chain(1, 256, 256, 64, 64, name=f"reads-{strategy}")
    report = MCFuserTuner(A100, config=SessionConfig.make(strategy=strategy)).tune(chain)

    (loop,) = loops
    assert set(reads) == set(loop.measured_positions) | loop.failed_positions
    assert len(reads) == report.search.num_measurements > 0
    if strategy == "exhaustive":
        # Every point is measured, the failures too, so the union bites.
        assert loop.failed_positions and len(reads) == len(loop.space)
