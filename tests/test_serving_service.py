"""CompileService: coalescing, lanes, shedding, stress, CLI round-trip."""

import json
import threading
import time

import pytest

from conftest import QUICK
from repro.cache import ScheduleCache
from repro.cli import main
from repro.config import SessionConfig
from repro.frontend.executor import compile_model
from repro.gpu.specs import A100, RTX3080
from repro.ir.chain import gemm_chain
from repro.ir.graph import Graph
from repro.ir.ops import BatchMatmul, Softmax
from repro.serving import (
    CompileService,
    MetricsRegistry,
    QueueFull,
    ServiceClosed,
    TieredCache,
)

#: Request outcomes that terminate a ticket (for reconciliation sums).
OUTCOMES = (
    "serve.hits.hot",
    "serve.hits.memory",
    "serve.hits.disk",
    "serve.coalesced",
    "serve.tunes",
    "serve.shed",
    "serve.errors",
)


def chain_for(i: int):
    """Distinct-signature small chains (distinct shapes)."""
    return gemm_chain(1, 96 + 16 * i, 96, 32, 32, name=f"svc-{i}")


def quick_service(
    workers: int = 4, queue_limit: int = 256, **resources
) -> CompileService:
    """A quick-budget service with ``workers`` tune threads."""
    config = QUICK.evolve(serve_workers=workers, queue_limit=queue_limit)
    return CompileService(A100, config=config, **resources)


def outcome_sum(registry: MetricsRegistry) -> int:
    counters = registry.snapshot()["counters"]
    return sum(counters.get(name, 0) for name in OUTCOMES)


class TestBasics:
    def test_cold_then_hot(self):
        with quick_service(workers=1) as svc:
            cold = svc.compile(chain_for(0))
            warm = svc.compile(chain_for(0))
        assert cold.source == "tuned" and not cold.report.cache_hit
        assert warm.source == "hot" and warm.report.cache_hit
        assert warm.report.best_time == cold.report.best_time
        assert warm.latency_seconds < cold.latency_seconds

    def test_registry_names_resolve(self):
        with quick_service(workers=1) as svc:
            result = svc.compile("G1")
        assert result.report.best_time > 0

    def test_model_name_rejected_by_submit(self):
        with quick_service(workers=1) as svc:
            with pytest.raises(ValueError, match="model-level"):
                svc.submit("ffn-base")
            with pytest.raises(ValueError, match="chain-level"):
                svc.submit_model("G1")

    def test_unknown_lane_rejected(self):
        with quick_service(workers=1) as svc:
            with pytest.raises(ValueError, match="lane"):
                svc.submit(chain_for(0), lane="express")

    def test_closed_service_rejects_submits(self):
        svc = quick_service(workers=1)
        svc.close()
        svc.close()  # idempotent
        with pytest.raises(ServiceClosed):
            svc.submit(chain_for(0))

    def test_shared_schedule_cache_serves_disk_tier(self, tmp_path):
        base_dir = tmp_path / "store"
        with quick_service(workers=1, cache=ScheduleCache(base_dir)) as svc:
            svc.compile(chain_for(0))
        # a second service over the same directory = a later process
        with quick_service(workers=1, cache=ScheduleCache(base_dir)) as svc2:
            result = svc2.compile(chain_for(0))
        assert result.source == "disk"
        assert result.report.cache_hit


class TestCoalescing:
    def test_concurrent_identical_requests_share_one_tune(self):
        release = threading.Event()
        holder = {}

        def gated(job):
            release.wait(5)
            return holder["svc"]._default_tune(job)

        svc = quick_service(workers=1, tune_fn=gated)
        holder["svc"] = svc

        barrier = threading.Barrier(8 + 1)
        results = []

        def client():
            barrier.wait()
            results.append(svc.compile(chain_for(1)))

        threads = [threading.Thread(target=client) for _ in range(8)]
        for t in threads:
            t.start()
        barrier.wait()
        # all 8 submitted against one blocked tune; let it finish
        time.sleep(0.05)
        release.set()
        for t in threads:
            t.join()
        svc.close()
        sources = sorted(r.source for r in results)
        assert sources.count("tuned") == 1
        assert sources.count("coalesced") == 7
        counters = svc.telemetry.snapshot()["counters"]
        assert counters["serve.tunes"] == 1
        assert counters["serve.coalesced"] == 7
        best = {r.report.best_time for r in results}
        assert len(best) == 1  # everyone got the same schedule


class TestLanesAndShedding:
    def _gated_service(self, **kwargs):
        """workers=1 service whose first tune blocks until `release` is set."""
        release = threading.Event()
        order: list[str] = []
        svc = {}

        def tune(job):
            order.append(job.chain.name)
            if job.chain.name == "svc-0":
                release.wait(5)
            return svc["svc"]._default_tune(job)

        svc["svc"] = quick_service(workers=1, tune_fn=tune, **kwargs)
        return svc["svc"], release, order

    def _wait_queue_drained(self, svc):
        deadline = time.time() + 5
        while svc._queue.qsize() > 0:
            assert time.time() < deadline, "worker never picked up the job"
            time.sleep(0.005)

    def test_interactive_overtakes_background(self):
        svc, release, order = self._gated_service()
        blocker = svc.submit(chain_for(0))
        self._wait_queue_drained(svc)  # worker now blocked inside svc-0
        bg = svc.submit(chain_for(1), lane="background")
        it = svc.submit(chain_for(2), lane="interactive")
        release.set()
        for t in (blocker, bg, it):
            t.result(timeout=10)
        svc.close()
        assert order == ["svc-0", "svc-2", "svc-1"]

    def test_full_queue_sheds(self):
        svc, release, _ = self._gated_service(queue_limit=1)
        blocker = svc.submit(chain_for(0))
        self._wait_queue_drained(svc)
        queued = svc.submit(chain_for(1))  # fills the single queue slot
        shed = svc.submit(chain_for(2))  # over the bound: load-shed
        with pytest.raises(QueueFull):
            shed.result(timeout=5)
        release.set()
        assert queued.result(timeout=10).source == "tuned"
        assert blocker.result(timeout=10).source == "tuned"
        counters = svc.telemetry.snapshot()["counters"]
        assert counters["serve.shed"] == 1
        assert counters["serve.shed.interactive"] == 1
        # the shed signature is not poisoned: it can be resubmitted
        retry = svc.compile(chain_for(2))
        assert retry.source == "tuned"
        svc.close()

    def test_failed_tune_fans_out_and_unblocks_signature(self):
        calls = []
        svc = {}

        def flaky(job):
            calls.append(job.signature)
            if len(calls) == 1:
                raise RuntimeError("transient tuner failure")
            return svc["svc"]._default_tune(job)

        svc["svc"] = quick_service(workers=1, tune_fn=flaky)
        ticket = svc["svc"].submit(chain_for(3))
        with pytest.raises(RuntimeError, match="transient"):
            ticket.result(timeout=10)
        # the in-flight record is gone: the same signature tunes fine now
        result = svc["svc"].compile(chain_for(3))
        assert result.source == "tuned"
        counters = svc["svc"].telemetry.snapshot()["counters"]
        assert counters["serve.errors"] == 1
        svc["svc"].close()

    def test_fan_out_failure_fails_tickets_and_worker_survives(self, monkeypatch):
        """An exception after the tune — here in rebinding a ticket's
        report — fails the waiting ticket instead of killing the worker:
        the next request still resolves and nothing stays in flight."""
        original = CompileService._report_for_ticket
        calls = []

        def broken_rebind(self, job, report, ticket):
            calls.append(ticket)
            if len(calls) == 1:
                raise RuntimeError("injected rebind failure")
            return original(self, job, report, ticket)

        monkeypatch.setattr(CompileService, "_report_for_ticket", broken_rebind)
        registry = MetricsRegistry()
        with quick_service(workers=1, telemetry=registry) as svc:
            first = svc.submit(chain_for(70))
            with pytest.raises(RuntimeError, match="injected rebind failure"):
                first.result(timeout=5)
            second = svc.submit(chain_for(71))
            assert second.result(timeout=5).source == "tuned"
        assert registry.snapshot()["gauges"]["serve.inflight"] == 0


class TestStress:
    def test_threaded_stress_one_tune_per_signature(self):
        """N clients x M signatures: exactly one tune each, nothing lost,
        counters monotonic, accounting reconciles."""
        n_clients, n_signatures, per_client = 16, 4, 6
        chains = [chain_for(10 + i) for i in range(n_signatures)]
        registry = MetricsRegistry()
        svc = quick_service(workers=4, telemetry=registry)
        barrier = threading.Barrier(n_clients)
        results: list[list] = [[] for _ in range(n_clients)]
        snapshots: list[dict] = []
        stop = threading.Event()

        def sampler():
            while not stop.is_set():
                snapshots.append(registry.snapshot()["counters"])
                time.sleep(0.002)

        def client(i: int):
            barrier.wait()
            for r in range(per_client):
                results[i].append(svc.compile(chains[(i + r) % n_signatures]))

        sampling = threading.Thread(target=sampler)
        sampling.start()
        threads = [threading.Thread(target=client, args=(i,)) for i in range(n_clients)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        stop.set()
        sampling.join()
        svc.close()

        flat = [r for batch in results for r in batch]
        issued = n_clients * per_client
        # no lost responses
        assert len(flat) == issued
        counters = registry.snapshot()["counters"]
        # exactly one tune per distinct signature
        assert counters["serve.tunes"] == n_signatures
        assert sum(r.source == "tuned" for r in flat) == n_signatures
        # every request resolved through exactly one outcome
        assert outcome_sum(registry) == counters["serve.requests"] == issued
        assert counters.get("serve.shed", 0) == 0
        assert counters.get("serve.errors", 0) == 0
        # per-signature results agree with the one tune
        by_sig: dict[str, set] = {}
        for r in flat:
            by_sig.setdefault(r.signature, set()).add(r.report.best_time)
        assert len(by_sig) == n_signatures
        assert all(len(times) == 1 for times in by_sig.values())
        # telemetry counters never went backwards mid-run
        snapshots.append(counters)
        for before, after in zip(snapshots, snapshots[1:]):
            for name, value in before.items():
                assert after.get(name, 0) >= value, name

    def test_queue_gauges_return_to_zero(self):
        registry = MetricsRegistry()
        with quick_service(workers=2, telemetry=registry) as svc:
            tickets = [svc.submit(chain_for(20 + i)) for i in range(3)]
            for t in tickets:
                t.result(timeout=30)
        gauges = registry.snapshot()["gauges"]
        assert gauges["serve.queue.depth"] == 0
        assert gauges["serve.inflight"] == 0


class TestPrefetchAndModels:
    def test_prefetch_warms_background_lane(self):
        registry = MetricsRegistry()
        with quick_service(workers=2, telemetry=registry) as svc:
            tickets = svc.prefetch(["G1", "S1"])
            for t in tickets:
                assert t.lane == "background"
                t.result(timeout=60)
            hit = svc.compile("G1")
        assert hit.source == "hot"
        counters = registry.snapshot()["counters"]
        assert counters["serve.requests.background"] == 2
        assert counters["serve.requests.interactive"] == 1

    def test_prefetch_expands_model_workloads(self):
        with quick_service(workers=2) as svc:
            tickets = svc.prefetch(["ffn-base"])
            assert tickets  # one per fusion group
            for t in tickets:
                t.result(timeout=60)

    def test_submit_model_ticket(self):
        graph = _tiny_attention_graph()
        with quick_service(workers=2) as svc:
            ticket = svc.submit_model(graph)
            results = ticket.results(timeout=60)
            assert ticket.done()
        assert len(results) == len(ticket.partition.subgraphs) == 1
        assert results[0].report.best_time > 0

    def test_compile_model_through_service(self):
        graph = _tiny_attention_graph()
        with quick_service(workers=2) as svc:
            cold = compile_model(
                graph, A100, "mcfuser+relay", service=svc, config=svc.config
            )
            warm = compile_model(
                graph, A100, "mcfuser+relay", service=svc, config=svc.config
            )
        assert cold.detail["served"] == {"tuned": 1}
        assert warm.detail["served"] == {"hot": 1}
        assert warm.detail["cache_hits"] == 1
        assert warm.tuning_seconds < cold.tuning_seconds
        assert warm.time == cold.time  # same kernels either way

    def test_compile_model_rejects_gpu_mismatch(self):
        graph = _tiny_attention_graph()
        with quick_service(workers=1) as svc:
            with pytest.raises(ValueError, match="one service serves one GPU"):
                compile_model(graph, RTX3080, "mcfuser+relay", service=svc)


def _tiny_attention_graph() -> Graph:
    g = Graph("tiny-serve")
    g.add_input("q", (4, 64, 32))
    g.add_input("k", (4, 64, 32))
    g.add_input("v", (4, 64, 32))
    g.add(BatchMatmul(("q", "k"), "s", transpose_b=True))
    g.add(Softmax(("s",), "p"))
    g.add(BatchMatmul(("p", "v"), "o"))
    g.mark_output("o")
    return g


class TestServeCLI:
    def test_serve_then_metrics_then_stats(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "servecli")
        assert main([
            "serve", "--quick", "--clients", "4", "--requests", "2",
            "--signatures", "2", "--cache-dir", cache_dir,
        ]) == 0
        out = capsys.readouterr().out
        assert "metrics snapshot written" in out
        assert "telemetry reconciled with issued requests: True" in out

        assert main(["metrics", "--cache-dir", cache_dir]) == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert snapshot["counters"]["serve.requests"] == 8
        assert snapshot["counters"]["serve.tunes"] == 2

        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        stats_out = capsys.readouterr().out
        assert "per-variant:" in stats_out
        assert "per-tier (last serving session):" in stats_out
        assert "coalesced:" in stats_out

    def test_metrics_without_serve_run(self, tmp_path, capsys):
        assert main(["metrics", "--cache-dir", str(tmp_path / "empty")]) == 1
        assert "no metrics snapshot" in capsys.readouterr().out

    def test_serve_experiment_is_registered(self):
        from repro.experiments import ALL_EXPERIMENTS

        assert "serve" in ALL_EXPERIMENTS


class TestExecBackend:
    def test_backend_threaded_into_reports(self):
        config = QUICK.evolve(exec_backend="vectorized")
        with CompileService(A100, config=config) as svc:
            cold = svc.compile(chain_for(60))
            warm = svc.compile(chain_for(60))
        assert cold.source == "tuned"
        assert cold.report.exec_backend == "vectorized"
        assert warm.source == "hot"
        assert warm.report.exec_backend == "vectorized"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            CompileService(A100, config=SessionConfig.make(exec_backend="cuda"))
