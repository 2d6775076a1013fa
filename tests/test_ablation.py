"""Quick tests for the ablation driver (full run lives in benchmarks/)."""

import pytest

from repro.experiments.ablation import _search_time, ablate_chain
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
    """The '-DAG opt' column times the schedules its space ranks: launched
    as built without the extent-1 optimization."""
    launched = []
    real_launch_for = SearchSpace.launch_for

    def spy(self, position):
        launch = real_launch_for(self, position)
        launched.append((self.chain, self.candidate(position), launch))
        return launch

    monkeypatch.setattr(SearchSpace, "launch_for", spy)
    _search_time(gemm_chain(1, 256, 256, 64, 64, name="abl-dag"), A100, optimize=False)
    assert launched
    differs = False
    for chain, cand, launch in launched:
        def built(optimize):
            schedule = build_schedule(chain, cand.expr, cand.tile_dict, optimize=optimize)
            return schedule.kernel_launch(A100)

        assert launch == built(False)
        differs |= launch != built(True)
    # The optimization changes some measured launch, so the check bites.
    assert differs
