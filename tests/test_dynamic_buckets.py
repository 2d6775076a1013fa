"""Shape-bucketed dynamic-shape serving (issue 8).

A workload whose sequence-length loops vary request-to-request is tuned
once per power-of-two bucket, at the bucket *ceiling*; every in-bucket
length re-expands the ceiling tiling decision on its own chain (tail
tiles masked by the execution backends, never silently padded). These
tests cover the bucket key (``bucketed_signature``), the tuner's
exact → bucket → miss ladder, cache-hit re-verification at the actual
request shape, and the serving layer's bucket hits / coalescing across
different in-bucket lengths.
"""

import numpy as np
import pytest

from conftest import QUICK
from repro.cache import ScheduleCache
from repro.cache.signature import (
    BUCKET_MIN,
    bucket_dims,
    bucket_of,
    bucketed_signature,
    workload_signature,
)
from repro.codegen.interpreter import execute_schedule
from repro.config import SessionConfig
from repro.gpu.specs import A100, RTX3080
from repro.ir.chain import attention_chain, gemm_chain
from repro.search.tuner import MCFuserTuner, VerificationError, rebind_report
from repro.serving import CompileService, MetricsRegistry, TieredCache

#: A one-worker bucketing service on the quick budget.
BUCKET_SERVICE = QUICK.evolve(serve_workers=1, dynamic="buckets")

#: Request outcomes that terminate a ticket, bucket hits included.
OUTCOMES = (
    "serve.hits.hot",
    "serve.hits.memory",
    "serve.hits.disk",
    "serve.hits.bucket",
    "serve.coalesced",
    "serve.tunes",
    "serve.shed",
    "serve.errors",
)


def ragged(m: int, name: str | None = None):
    """A gemm chain whose only varying extent is the sequence length m."""
    return gemm_chain(1, m, 96, 32, 32, name=name or f"dyn-{m}")


def quick_tuner(cache=None, verify: str = "off") -> MCFuserTuner:
    config = QUICK.evolve(dynamic="buckets", verify=verify)
    return MCFuserTuner(A100, cache=cache, config=config)


def outcome_sum(registry: MetricsRegistry) -> int:
    counters = registry.snapshot()["counters"]
    return sum(counters.get(name, 0) for name in OUTCOMES)


class TestBucketOf:
    def test_powers_of_two_are_their_own_ceiling(self):
        for size in (16, 32, 64, 512, 1024):
            assert bucket_of(size) == size

    def test_lengths_round_up(self):
        assert bucket_of(17) == 32
        assert bucket_of(100) == 128
        assert bucket_of(513) == 1024

    def test_floor_is_bucket_min(self):
        assert BUCKET_MIN == 16
        for size in (1, 2, 15, 16):
            assert bucket_of(size) == 16

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            bucket_of(0)

    def test_half_open_interval(self):
        # lengths in (ceiling/2, ceiling] share a bucket
        assert bucket_of(64) == 64
        assert bucket_of(65) == 128
        assert bucket_of(128) == 128

    def test_bucket_dims_ignores_absent_loops(self):
        chain = ragged(100)
        assert bucket_dims(chain, ("m", "q")) == {"m": 128}
        assert bucket_dims(chain) == {"m": 128, "n": 128}


class TestBucketedSignature:
    def test_same_bucket_same_signature(self):
        assert bucketed_signature(ragged(300), A100) == bucketed_signature(
            ragged(400), A100
        )

    def test_different_bucket_different_signature(self):
        assert bucketed_signature(ragged(300), A100) != bucketed_signature(
            ragged(600), A100
        )

    def test_never_aliases_exact_signature(self):
        # even a chain already sitting at its bucket ceiling must key
        # differently bucketed vs exact (the entries mean different things)
        chain = ragged(512)
        assert bucketed_signature(chain, A100) != workload_signature(chain, A100)

    def test_static_loops_still_distinguish(self):
        a = gemm_chain(1, 300, 96, 32, 32)
        b = gemm_chain(1, 300, 96, 64, 32)  # different head dim k
        assert bucketed_signature(a, A100) != bucketed_signature(b, A100)

    def test_gpu_and_variant_distinguish(self):
        chain = ragged(300)
        assert bucketed_signature(chain, A100) != bucketed_signature(chain, RTX3080)
        assert bucketed_signature(chain, A100, "mcfuser") != bucketed_signature(
            chain, A100, "chimera"
        )

    def test_dynamic_loop_selection_matters(self):
        chain = ragged(300)
        assert bucketed_signature(chain, A100, dynamic_loops=("m",)) != (
            bucketed_signature(chain, A100, dynamic_loops=("m", "n"))
        )


class TestWithLoops:
    def test_override(self):
        chain = ragged(300)
        ceiling = chain.with_loops({"m": 512})
        assert ceiling.loops["m"] == 512
        assert ceiling.loops["n"] == chain.loops["n"]
        assert ceiling.name == chain.name
        assert chain.loops["m"] == 300  # original untouched

    def test_unknown_loop_rejected(self):
        with pytest.raises(KeyError, match="unknown loop"):
            ragged(300).with_loops({"zz": 64})


class TestTunerLadder:
    def test_cold_tune_stores_under_bucket_key(self):
        cache = ScheduleCache(path=None)
        tuner = quick_tuner(cache=cache)
        chain = ragged(300)
        report = tuner.tune(chain)
        assert report.dynamic == "buckets"
        assert report.bucket == {"m": 512, "n": 128}
        assert not report.cache_hit and not report.bucket_hit
        # the report is rebound to the request shape...
        assert report.best_schedule.chain.loops["m"] == 300
        # ...but the stored entry is the ceiling decision under the bucket key
        entry, _ = cache.lookup(tuner.bucket_signature(chain))
        assert entry is not None
        assert dict(entry.tiles) == dict(report.best_schedule.tiles)

    def test_in_bucket_length_is_a_bucket_hit(self):
        cache = ScheduleCache(path=None)
        tuner = quick_tuner(cache=cache)
        cold = tuner.tune(ragged(300))
        warm = tuner.tune(ragged(400))  # same bucket (257..512]
        assert warm.cache_hit and warm.bucket_hit
        assert warm.bucket == {"m": 512, "n": 128}
        assert warm.best_schedule.chain.loops["m"] == 400
        assert dict(warm.best_schedule.tiles) == dict(cold.best_schedule.tiles)

    def test_new_bucket_tunes_again(self):
        cache = ScheduleCache(path=None)
        tuner = quick_tuner(cache=cache)
        tuner.tune(ragged(300))
        fresh = tuner.tune(ragged(600))  # bucket 1024
        assert not fresh.cache_hit and not fresh.bucket_hit
        assert fresh.bucket["m"] == 1024

    def test_exact_hit_preferred_over_bucket(self):
        cache = ScheduleCache(path=None)
        tuner = quick_tuner(cache=cache)
        plain = MCFuserTuner(A100, cache=cache, config=QUICK)
        chain = ragged(300)
        plain.tune(chain)  # stores under the exact key
        report = tuner.tune(chain)
        assert report.cache_hit and not report.bucket_hit

    def test_ceiling_tiles_divide_the_ceiling(self):
        tuner = quick_tuner(cache=ScheduleCache(path=None))
        report = tuner.tune(ragged(300))
        tiles = report.best_schedule.tiles
        for loop, ceiling in report.bucket.items():
            assert ceiling % tiles[loop] == 0, (loop, tiles[loop], ceiling)

    def test_bucket_hit_result_is_numerically_correct(self):
        cache = ScheduleCache(path=None)
        tuner = quick_tuner(cache=cache)
        tuner.tune(ragged(320))
        warm = tuner.tune(ragged(275))
        chain = warm.best_schedule.chain
        inputs = chain.random_inputs(0)
        ref = chain.reference(inputs)[chain.output]
        out = execute_schedule(warm.best_schedule, inputs, backend="scalar")[
            chain.output
        ]
        np.testing.assert_allclose(out, ref, rtol=1e-3, atol=1e-4)

    def test_dynamic_off_unchanged(self):
        cache = ScheduleCache(path=None)
        tuner = MCFuserTuner(A100, cache=cache, config=QUICK)
        report = tuner.tune(ragged(300))
        assert report.dynamic == "off" and report.bucket == {}
        assert cache.lookup(bucketed_signature(ragged(300), A100))[0] is None

    def test_unknown_dynamic_mode_rejected(self):
        with pytest.raises(ValueError, match="dynamic"):
            MCFuserTuner(A100, config=SessionConfig.make(dynamic="padding"))

    def test_rebind_report_roundtrip(self):
        tuner = quick_tuner(cache=ScheduleCache(path=None))
        report = tuner.tune(ragged(300))
        short = ragged(260)
        rebound = rebind_report(report, short)
        assert rebound.best_schedule.chain.loops["m"] == 260
        assert rebound.chain is short


class TestBucketHitVerification:
    """Satellite: ``verify="best"`` on a cache/bucket hit must re-run at
    the *actual request shape*, not the shape the entry was tuned at."""

    def test_bucket_hit_verified_at_request_shape(self, monkeypatch):
        cache = ScheduleCache(path=None)
        quick_tuner(cache=cache).tune(ragged(320))  # ceiling 512 entry

        tuner = quick_tuner(cache=cache, verify="best")
        seen = []
        real_check = MCFuserTuner.check_schedule

        def spy(self, schedule):
            seen.append(dict(schedule.chain.loops))
            return real_check(self, schedule)

        monkeypatch.setattr(MCFuserTuner, "check_schedule", spy)
        report = tuner.tune(ragged(275))
        assert report.bucket_hit and report.verified
        # verification executed the schedule at m=275, not at the 512 ceiling
        assert seen == [{"m": 275, "n": 96, "k": 32, "h": 32}]

    def test_corrupt_bucket_entry_raises_at_request_shape(self, monkeypatch):
        cache = ScheduleCache(path=None)
        quick_tuner(cache=cache).tune(ragged(320))
        tuner = quick_tuner(cache=cache, verify="best")
        monkeypatch.setattr(
            MCFuserTuner, "check_schedule", lambda self, schedule: False
        )
        with pytest.raises(VerificationError, match="disagrees"):
            tuner.tune(ragged(275))


class TestServiceBuckets:
    def test_bucket_hit_served_warm(self):
        registry = MetricsRegistry()
        with CompileService(A100, telemetry=registry, config=BUCKET_SERVICE) as svc:
            cold = svc.compile(ragged(300))
            warm = svc.compile(ragged(400))
        assert cold.source == "tuned"
        assert warm.source == "bucket"
        assert warm.report.bucket_hit and warm.report.cache_hit
        assert warm.report.best_schedule.chain.loops["m"] == 400
        counters = registry.snapshot()["counters"]
        assert counters["serve.hits.bucket"] == 1
        assert counters["serve.tunes"] == 1
        assert outcome_sum(registry) == counters["serve.requests"] == 2

    def test_exact_entry_beats_bucket_entry(self):
        """Entries written under exact keys (e.g. by a pre-bucketing
        deployment sharing the cache) win the first ladder rung."""
        tiered = TieredCache()
        off_config = QUICK.evolve(serve_workers=1)
        with CompileService(A100, cache=tiered, config=off_config) as off:
            off.compile(ragged(300))
        with CompileService(A100, cache=tiered, config=BUCKET_SERVICE) as svc:
            again = svc.compile(ragged(300))
        assert again.source == "hot"
        assert not again.report.bucket_hit

    def test_repeat_requests_serve_from_the_bucket_key(self):
        """Under pure bucketing all entries live under bucket keys, so
        even an exact-shape repeat is labelled a bucket hit (and is still
        hot-tier fast)."""
        with CompileService(A100, config=BUCKET_SERVICE) as svc:
            svc.compile(ragged(300))
            again = svc.compile(ragged(300))
        assert again.source == "bucket"
        assert again.report.best_schedule.chain.loops["m"] == 300

    def test_coalescing_across_in_bucket_lengths(self):
        """Concurrent requests for different lengths of one bucket share a
        single ceiling tune; every rider's report is rebound to its own
        shape and computes the right numbers."""
        lengths = (270, 300, 400, 511)
        registry = MetricsRegistry()
        with CompileService(A100, telemetry=registry, config=BUCKET_SERVICE) as svc:
            # submits are microseconds, the ceiling tune is seconds: all
            # four land while the first job is still in flight
            tickets = [svc.submit(ragged(m)) for m in lengths]
            results = [t.result(timeout=120) for t in tickets]
        counters = registry.snapshot()["counters"]
        assert counters["serve.tunes"] == 1
        assert counters["serve.coalesced"] == len(lengths) - 1
        for m, result in zip(lengths, results):
            chain = result.report.best_schedule.chain
            assert chain.loops["m"] == m
            inputs = chain.random_inputs(0)
            ref = chain.reference(inputs)[chain.output]
            out = execute_schedule(
                result.report.best_schedule, inputs, backend="scalar"
            )[chain.output]
            np.testing.assert_allclose(out, ref, rtol=1e-3, atol=1e-4)

    def test_attention_chains_bucket_both_seq_dims(self):
        with CompileService(A100, config=BUCKET_SERVICE) as svc:
            cold = svc.compile(attention_chain(2, 100, 100, 32, 32, name="at-100"))
            warm = svc.compile(attention_chain(2, 90, 90, 32, 32, name="at-90"))
        assert cold.source == "tuned"
        assert warm.source == "bucket"
        assert warm.report.bucket == {"m": 128, "n": 128}

    def test_dynamic_mode_validated(self):
        with pytest.raises(ValueError, match="dynamic"):
            CompileService(A100, config=SessionConfig.make(dynamic="padding"))


class TestCompileModelBuckets:
    def test_private_path_buckets_across_lengths(self):
        """Two compiles of the same FFN at different in-bucket sequence
        lengths share one set of ceiling tunes via the schedule cache."""
        from repro.cache import ScheduleCache
        from repro.frontend.executor import compile_model
        from repro.frontend.models import ffn_block

        cache = ScheduleCache(path=None)
        config = QUICK.evolve(dynamic="buckets")
        compile_model(
            ffn_block(seq=100, hidden=64, inner=96), A100, config=config, cache=cache
        )
        rerun = compile_model(
            ffn_block(seq=120, hidden=64, inner=96), A100, config=config, cache=cache
        )
        assert rerun.detail["served"].get("bucket", 0) >= 1
        # the recompiled module still computes the right numbers at seq=120
        for module in rerun.module.operator_modules:
            chain = module.schedule.chain
            inputs = chain.random_inputs(0)
            ref = chain.reference(inputs)[chain.output]
            out = module.run(inputs)[chain.output]
            np.testing.assert_allclose(out, ref, rtol=1e-3, atol=1e-4)

    def test_service_mode_mismatch_rejected(self):
        from repro.frontend.executor import compile_model

        with CompileService(A100, config=QUICK.evolve(serve_workers=1)) as svc:
            with pytest.raises(ValueError, match="dynamic"):
                compile_model(
                    "ffn-narrow",
                    A100,
                    service=svc,
                    config=svc.config.evolve(dynamic="buckets"),
                )

    def test_unknown_dynamic_rejected(self):
        from repro.frontend.executor import compile_model

        with pytest.raises(ValueError, match="dynamic"):
            compile_model("ffn-narrow", A100, config=SessionConfig.make(dynamic="padded"))
