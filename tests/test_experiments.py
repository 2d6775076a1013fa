"""Shape tests for every experiment driver: the paper's qualitative claims
must hold on quick configurations."""

import math

import pytest

from repro.experiments import (
    fig2_roofline,
    fig7_pruning,
    fig8_subgraph,
    fig9_e2e,
    fig10_shmem,
    fig11_perf_model,
    table1_comparison,
    table4_tuning_time,
)
from repro.gpu.specs import A100, RTX3080
from repro.search.space import generate_space
from repro.workloads import attention_workloads, gemm_workloads


class TestFig2:
    @pytest.fixture(scope="class")
    def points(self):
        return fig2_roofline.matmul_points(A100, num_points=10)

    def test_monotone_phi(self, points):
        ratios = [p.phi_ops_per_byte for p in points]
        assert ratios == sorted(ratios, reverse=True)

    def test_throughput_collapses_when_memory_bound(self, points):
        assert points[0].tflops > 3 * points[-1].tflops

    def test_deep_memory_bound_tracks_roofline(self, points):
        tail = points[-1]
        ceiling = tail.phi_ops_per_byte * A100.mem_bandwidth / 1e12
        assert tail.tflops < 1.5 * ceiling

    def test_bound_classification_transitions(self, points):
        assert points[0].bound == "compute"
        assert points[-1].bound == "memory"

    def test_run_result_table(self):
        result = fig2_roofline.run(quick=True)
        assert len(result.rows) == 6
        assert "TFLOPS" in result.headers

    def test_summary_reads_the_simulators_bound(self):
        meta = fig2_roofline.run(quick=True).meta
        compute = float(meta["compute_bound_tflops"])
        memory = float(meta["memory_bound_tflops"])
        assert compute > memory > 0


class TestFig7:
    def test_paper_funnel(self):
        result = fig7_pruning.run()
        counts = [c for _, c in result.meta.items() if False] or [r[1] for r in result.rows]
        assert counts[0] == 109051904
        assert counts == sorted(counts, reverse=True)
        assert counts[-1] < 1e4  # paper: ~1e4 after all rules

    def test_rule1_cut_band(self):
        result = fig7_pruning.run()
        counts = [r[1] for r in result.rows]
        cut = 1 - counts[1] / counts[0]
        assert 0.7 < cut < 0.95  # paper: -80%


class TestFig8:
    @pytest.fixture(scope="class")
    def gemm_panel(self):
        return fig8_subgraph.run(A100, "gemm", quick=True, ansor_trials=128).meta["panel"]

    @pytest.fixture(scope="class")
    def attn_panel(self):
        return fig8_subgraph.run(A100, "attention", quick=True, ansor_trials=128).meta["panel"]

    def test_mcfuser_wins_on_average_gemm(self, gemm_panel):
        avg = {b: gemm_panel.average(b) for b in gemm_panel.baselines}
        assert avg["MCFuser"] == max(v for v in avg.values() if not math.isnan(v))
        assert avg["MCFuser"] > 1.5

    def test_mcfuser_wins_on_average_attention(self, attn_panel):
        avg = {b: attn_panel.average(b) for b in attn_panel.baselines}
        assert avg["MCFuser"] == max(v for v in avg.values() if not math.isnan(v))
        assert avg["MCFuser"] > 3.0

    def test_mcfuser_beats_chimera(self, attn_panel, gemm_panel):
        for panel in (attn_panel, gemm_panel):
            assert panel.average("MCFuser") >= 0.95 * panel.average("MCFuser-Chimera")

    def test_flashattention_only_on_attention(self, gemm_panel, attn_panel):
        assert all(
            row["FlashAttention"] is None for row in gemm_panel.speedups.values()
        )
        assert any(
            row["FlashAttention"] is not None for row in attn_panel.speedups.values()
        )

    def test_bolt_absent_on_3080(self):
        from repro.gpu.specs import RTX3080

        panel = fig8_subgraph.run(RTX3080, "gemm", quick=True, ansor_trials=64).meta["panel"]
        assert all(row["BOLT"] is None for row in panel.speedups.values())


class TestFig9:
    def test_headline_ratios(self):
        result = fig9_e2e.run(quick=True)
        panel = result.meta["panel"]
        assert panel.speedup("Bert-Small", "mcfuser+relay") > 1.15
        ansor = panel.results["Bert-Small"]["ansor"]
        mc_ansor = panel.results["Bert-Small"]["mcfuser+ansor"]
        assert ansor.time / mc_ansor.time > 1.1
        # MCFuser+Relay beats even Ansor, at a fraction of the tuning time.
        mc_relay = panel.results["Bert-Small"]["mcfuser+relay"]
        assert mc_relay.time < ansor.time
        assert mc_relay.tuning_seconds < 0.05 * ansor.tuning_seconds


class TestFig10:
    def test_quadrants(self):
        result = fig10_shmem.run(quick=True, per_chain=200)
        shares = {q: float(s.rstrip("%")) for (label, s), q in zip(result.rows, "I II III IV".split())}
        assert shares["I"] + shares["III"] > 80.0  # paper: > 90%
        assert shares["IV"] < 5.0
        assert shares["II"] < 20.0

    @pytest.mark.parametrize("gpu", [A100, RTX3080], ids=lambda g: g.name)
    def test_points_match_built_schedules(self, gpu):
        """Each point's estimate and measured bytes are those of its built
        schedule, measured on the real GPU, as Python ints."""
        chains = gemm_workloads(["G1"]) + attention_workloads(["S1"])
        points = fig10_shmem.collect_points(chains, gpu, per_chain=100)
        unbounded = gpu.with_overrides(shared_mem_per_block=1 << 30, shared_mem_per_sm=1 << 30)
        expected = []
        for chain in chains:
            space = generate_space(chain, unbounded, max_candidates=100)
            for cand in space.candidates:
                schedule = space.schedule_for(cand)
                expected.append(
                    (chain.name, cand.describe(), schedule.shm_estimate(), schedule.shm_measured(gpu))
                )
        got = [(p.chain, p.candidate, p.estimated, p.measured) for p in points]
        assert got == expected
        assert all(type(p.estimated) is int and type(p.measured) is int for p in points)


class TestFig11:
    def test_correlations_strong_but_imperfect(self):
        result = fig11_perf_model.run(quick=True)
        for row in result.rows:
            corr = float(row[1])
            assert 0.55 < corr < 0.999  # paper band: 0.80-0.92


class TestStrategies:
    def test_quality_and_cost_ordering(self):
        from repro.experiments import strategies

        result = strategies.run(quick=True)
        reports = result.meta["reports"]
        for chain in ("G2", "S2"):
            exhaustive = reports[(chain, "exhaustive")]
            evo = reports[(chain, "evolutionary")]
            # Exhaustive is ground truth; every strategy stays within 5% of
            # the paper's Algorithm 1 (and never beats exhaustive).
            for name in ("evolutionary", "random", "annealing"):
                rep = reports[(chain, name)]
                assert rep.best_time <= 1.05 * evo.best_time
                assert rep.best_time >= exhaustive.best_time * 0.999
            assert evo.tuning_seconds < exhaustive.tuning_seconds
        # One row per (workload, strategy).
        assert len(result.rows) == 2 * len(
            {s for _, s in reports}
        )


class TestTables:
    def test_table1_probes(self):
        result = table1_comparison.run()
        checks = result.meta["probe_checks"]
        assert checks["bolt_fuses_gemm_chain"]
        assert not checks["bolt_fuses_attention"]
        assert checks["fa_supports_attention"]
        assert not checks["fa_supports_k_neq_h"]

    def test_table4_tuning_hierarchy(self):
        sub = table4_tuning_time.subgraph_tuning_times(A100, quick=True, ansor_trials=256)
        gemm = sub["GEMM Chain"]
        # Ansor orders of magnitude slower than MCFuser; BOLT in between.
        assert gemm["Ansor"] > 10 * gemm["MCFuser"]
        assert gemm["MCFuser"] < 150
        assert not math.isnan(gemm["BOLT"])
        attn = sub["Self Attention"]
        assert math.isnan(attn["BOLT"])  # BOLT cannot tune attention
