"""Unit tests for the analytical performance model (eqs. 2-5)."""

import dataclasses

import pytest

from repro.gpu.specs import A100
from repro.search.perf_model import AnalyticalModel, ChimeraModel, estimate_time
from repro.tiling.expr import TilingExpr
from repro.tiling.schedule import build_schedule

TILES = {"m": 32, "n": 16, "k": 16, "h": 16}


@pytest.fixture
def schedule(small_gemm):
    return build_schedule(small_gemm, TilingExpr.parse("mhnk"), TILES)


class TestEquations:
    def test_eq3_memory_term(self, schedule):
        est = estimate_time(schedule, A100)
        expected = (
            schedule.dram_read_bytes() + schedule.dram_write_bytes()
        ) / A100.mem_bandwidth
        assert est.t_mem == pytest.approx(expected)

    def test_eq4_compute_term(self, schedule):
        est = estimate_time(schedule, A100)
        assert est.t_comp == pytest.approx(schedule.total_flops() / A100.peak_flops)

    def test_eq5_alpha(self, schedule):
        est = estimate_time(schedule, A100)
        n = schedule.grid_size
        assert est.alpha == pytest.approx((n + A100.num_sms) / n)

    def test_eq2_total(self, schedule):
        est = estimate_time(schedule, A100)
        assert est.total == pytest.approx((est.t_mem + est.t_comp) * est.alpha)

    def test_alpha_approaches_one(self, small_gemm):
        small = build_schedule(small_gemm, TilingExpr.parse("mhnk"), TILES)
        tiny_tiles = {"m": 16, "n": 16, "k": 16, "h": 16}
        big_grid = build_schedule(small_gemm, TilingExpr.parse("mhnk"), tiny_tiles)
        a_small = estimate_time(small, A100).alpha
        a_big = estimate_time(big_grid, A100).alpha
        assert a_big < a_small  # more blocks -> alpha closer to 1
        assert a_big > 1.0


class TestDegenerateGrid:
    def test_fully_collapsed_grid_estimates(self, small_gemm):
        """Full-extent tiles collapse every grid loop to extent 1; the
        estimate must stay finite and well-defined."""
        tiles = {l: s for l, s in small_gemm.loops.items()}
        schedule = build_schedule(small_gemm, TilingExpr.parse("mhnk"), tiles)
        assert all(e == 1 for _, e in schedule.grid_dims if _ != "b")
        est = estimate_time(schedule, A100)
        assert est.total > 0 and est.total < float("inf")

    def test_zero_block_grid_clamped(self, schedule):
        """Regression: a degenerate schedule reporting a zero-block grid
        must not hand eq. (5) a ZeroDivisionError mid-search."""
        no_grid = dataclasses.replace(schedule, grid_dims=())  # prod(()) == 1, still fine
        est = estimate_time(no_grid, A100)
        assert est.alpha == pytest.approx(1 + A100.num_sms)
        zero_grid = dataclasses.replace(schedule, grid_dims=(("m", 0),))  # the pathological handoff
        est = estimate_time(zero_grid, A100)
        assert est.alpha == pytest.approx(1 + A100.num_sms)
        assert est.total < float("inf")


class TestModels:
    def test_analytical_positive(self, schedule):
        assert AnalyticalModel(A100)(schedule) > 0

    def test_chimera_ignores_compute(self, schedule):
        full = AnalyticalModel(A100)(schedule)
        movement = ChimeraModel(A100)(schedule)
        est = estimate_time(schedule, A100)
        assert movement == pytest.approx(est.t_mem * est.alpha)
        assert movement < full

    def test_monotone_in_bandwidth(self, schedule):
        slow_gpu = A100.with_overrides(mem_bandwidth=A100.mem_bandwidth / 4)
        assert AnalyticalModel(slow_gpu)(schedule) > AnalyticalModel(A100)(schedule)

    def test_monotone_in_peak_flops(self, schedule):
        slow_gpu = A100.with_overrides(peak_flops=A100.peak_flops / 4)
        assert AnalyticalModel(slow_gpu)(schedule) > AnalyticalModel(A100)(schedule)

    def test_model_ignores_codegen_effects(self, schedule):
        """The model is coarser than the simulator by design (Fig. 11)."""
        from repro.gpu.simulator import GPUSimulator

        model_t = AnalyticalModel(A100)(schedule)
        sim_t = GPUSimulator(A100, jitter=False).run(schedule.kernel_launch(A100))
        assert model_t != pytest.approx(sim_t)
