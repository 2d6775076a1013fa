"""Quick tests for the ablation driver (full run lives in benchmarks/)."""

import pytest

from repro.experiments.ablation import _search_time, ablate_chain
from repro.gpu.occupancy import SharedMemoryExceeded
from repro.gpu.specs import A100
from repro.ir.chain import gemm_chain
from repro.search.space import SearchSpace
from repro.tiling.schedule import build_schedule


@pytest.fixture(scope="module")
def row():
    chain = gemm_chain(1, 256, 256, 64, 64, name="abl-q")
    return ablate_chain(chain, A100, seed=0)


class TestAblation:
    def test_all_variants_ran(self, row):
        for value in (row.full, row.no_flat, row.no_dag_opt, row.movement_model,
                      row.random_model, row.top1):
            assert 0 < value < float("inf")

    def test_no_variant_beats_full_materially(self, row):
        for variant in (row.no_flat, row.no_dag_opt, row.movement_model, row.random_model):
            assert variant >= 0.9 * row.full

    def test_top1_never_better_than_top8(self, row):
        assert row.top1 >= 0.99 * row.full


def test_no_dag_opt_measures_unoptimized_schedules(monkeypatch):
    """The '-DAG opt' column times the schedules its space ranks: every
    measurement equals the simulated time of the schedule built without the
    extent-1 optimization."""
    measured = []
    real_measure = SearchSpace.measure

    def spy(self, position, sim):
        t = real_measure(self, position, sim)
        measured.append((self.chain, self.candidate(position), sim, t))
        return t

    monkeypatch.setattr(SearchSpace, "measure", spy)
    _search_time(gemm_chain(1, 256, 256, 64, 64, name="abl-dag"), A100, optimize=False)
    assert measured
    differs = False
    for chain, cand, sim, t in measured:
        def built(optimize):
            schedule = build_schedule(chain, cand.expr, cand.tile_dict, optimize=optimize)
            try:
                return sim.run(schedule.kernel_launch(A100))
            except SharedMemoryExceeded:
                return float("inf")

        assert t == built(False)
        differs |= t != built(True)
    # The optimization changes some measured point, so the check bites.
    assert differs
