"""Serve-load experiment: Zipf-replay load generator for the compile service.

This is the serving layer's benchmark artifact. N client threads release
from a start barrier and replay a Zipf-distributed request mix over M
distinct zoo workload signatures against one
:class:`~repro.serving.service.CompileService`. The skew mirrors fleet
traffic — a few hot shapes dominate, a long tail trickles — which is
exactly the regime request coalescing and the hot cache tier exist for.

Each client's *first* request is assigned round-robin over the mix so
every signature is exercised and the opening burst maximally overlaps;
the remaining requests are Zipf samples. The run asserts nothing itself —
it reports, and the benchmark/CI layer asserts:

* **one tune per signature** — concurrent identical requests coalesce;
* **coalesce rate** — ``coalesced / (coalesced + tunes)`` among requests
  that found no cache entry;
* **warm-hit p50 latency** — the hot-tier fast path, in microseconds;
* **reconciliation** — the telemetry counters sum exactly to the number
  of requests the generator issued (the service lost nothing).

Run it standalone (``python -m repro.experiments.serve_load``), through
the CLI (``repro serve``), or under the benchmark suite
(``benchmarks/test_serve_load.py``).
"""

from __future__ import annotations

import math
import threading
import time

import numpy as np

from repro.cache.signature import bucket_dims, bucket_of
from repro.config import SessionConfig
from repro.experiments.common import ExperimentResult, print_header
from repro.gpu.specs import A100, GPUSpec
from repro.serving.service import CompileService, ServeResult
from repro.serving.telemetry import MetricsRegistry
from repro.workloads import build_workload, serve_mix

__all__ = [
    "run",
    "main",
    "QUICK_TUNER_KWARGS",
    "ragged_lengths",
    "ragged_chains",
]

#: Reduced Algorithm-1 budget for quick mode (CI smoke) runs.
QUICK_TUNER_KWARGS = dict(population_size=64, top_n=4, max_rounds=2, min_rounds=1)

#: Request sources that mean "served from a cache tier" (``"bucket"`` is a
#: ceiling-tuned entry found under the bucketed signature — warm by
#: definition: zero enumeration, zero measurements).
_CACHE_SOURCES = ("hot", "memory", "disk", "bucket")

#: Curated ragged sequence lengths: primes, non-powers-of-two, and
#: just-below-bucket-ceiling values — the shapes that break exact-key
#: caching hardest. The generator draws from these first, then fills with
#: seeded uniform draws.
_CURATED_LENGTHS = (
    127, 384, 511, 97, 768, 1023, 160, 251, 640, 48, 896, 509, 320, 193, 960, 73,
)

#: fp32 tolerances for post-run verification of served schedules.
_VERIFY_RTOL = 1e-3
_VERIFY_ATOL = 1e-4


def _zipf_pmf(n: int, s: float) -> np.ndarray:
    """Bounded Zipf probabilities over ranks ``1..n`` (exponent ``s``)."""
    weights = 1.0 / np.arange(1, n + 1, dtype=float) ** s
    return weights / weights.sum()


def ragged_lengths(count: int, seed: int = 0, lo: int = 48, hi: int = 1024) -> list[int]:
    """``count`` distinct sequence lengths in ``[lo, hi]``, ragged on purpose.

    Starts from the curated primes/non-pow2/just-below-ceiling list, then
    fills with seeded uniform draws. Deterministic for a given seed.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    picked: list[int] = [m for m in _CURATED_LENGTHS if lo <= m <= hi][:count]
    rng = np.random.default_rng(seed + 104729)
    seen = set(picked)
    while len(picked) < count:
        m = int(rng.integers(lo, hi + 1))
        if m not in seen:
            seen.add(m)
            picked.append(m)
    return picked


def ragged_chains(lengths: list[int]) -> dict:
    """``name -> chain`` mix of two model families over varying lengths.

    Each length ``m`` yields a GEMM chain (``m`` dynamic, ``n`` fixed) and
    an attention module (``m = n = sequence length``) — the two MBCI
    shapes production ragged traffic actually varies.
    """
    from repro.ir.chain import attention_chain, gemm_chain

    chains = {}
    for m in lengths:
        chains[f"gemm@{m}"] = gemm_chain(1, m, 512, 64, 64, name=f"gemm@{m}")
        chains[f"attn@{m}"] = attention_chain(8, m, m, 64, 64, name=f"attn@{m}")
    return chains


def _family(name: str) -> str:
    """Model family of a ragged mix entry (``"gemm@511"`` → ``"gemm"``)."""
    return name.split("@", 1)[0]


def _verify_served(results: list[ServeResult], chains: dict, seed: int) -> dict:
    """Numerically verify served schedules at their exact request shapes.

    One check per distinct (workload, schedule) pair: the served schedule
    is executed under the **scalar** interpreter on the request chain and
    compared against the unfused reference. Returns counts plus the names
    that failed (empty = all good).
    """
    from repro.codegen.interpreter import execute_schedule

    checked: set[tuple[str, str]] = set()
    failures: list[str] = []
    for result in results:
        schedule = result.report.best_schedule
        key = (result.workload, schedule.describe())
        if key in checked:
            continue
        checked.add(key)
        chain = chains[result.workload]
        inputs = chain.random_inputs(seed)
        ref = chain.reference(inputs)[chain.output]
        try:
            out = execute_schedule(schedule, inputs, backend="scalar")[chain.output]
            ok = bool(np.allclose(out, ref, rtol=_VERIFY_RTOL, atol=_VERIFY_ATOL))
        except Exception:  # noqa: BLE001 - a crash is a verification failure
            ok = False
        if not ok:
            failures.append(result.workload)
    return {"verified": len(checked), "verify_failures": failures}


def run(
    clients: int = 32,
    requests_per_client: int = 8,
    workload_names: list[str] | None = None,
    signatures: int = 8,
    zipf_s: float = 1.1,
    gpu: GPUSpec = A100,
    cache=None,
    telemetry: MetricsRegistry | None = None,
    quick: bool = False,
    lengths: int = 0,
    verify_served: bool | None = None,
    config: SessionConfig | None = None,
) -> ExperimentResult:
    """Replay a Zipf workload mix from concurrent clients; report the service.

    Args:
        clients: Concurrent client threads (all released from one barrier).
        requests_per_client: Requests each client issues back-to-back.
        workload_names: Chain-level registry names to mix; defaults to
            ``serve_mix(signatures)`` (ignored when ``lengths`` is set).
        signatures: Size of the default mix (distinct workload signatures).
        zipf_s: Zipf exponent of the request skew (larger = hotter head).
        gpu: Target GPU spec.
        cache: Optional :class:`~repro.serving.tiers.TieredCache` or
            :class:`~repro.cache.cache.ScheduleCache`; default memory-only.
        telemetry: Registry to record into (created if omitted).
        quick: CI smoke mode — fewer clients/requests, and (with no
            ``config``) the reduced :data:`QUICK_TUNER_KWARGS` tune budget.
        lengths: Number of *distinct sequence lengths* to mix (ragged
            mode). Replaces the registry mix with :func:`ragged_chains`
            over :func:`ragged_lengths` — two model families per length.
        verify_served: Numerically verify every distinct served schedule
            at its exact request shape under the scalar interpreter after
            the run. Defaults to on for ragged (``lengths > 0``) runs.
        config: The service's :class:`~repro.config.SessionConfig`;
            defaults to ``SessionConfig.make(seed=0, serve_workers=4)``.
            ``search.seed`` is the base RNG seed (client ``i`` derives its
            own stream), ``serve.workers`` the tune worker-pool width, and
            ``exec.dynamic="buckets"`` serves ragged lengths from
            ceiling-tuned schedules (source ``"bucket"``, warm) and reports
            per-bucket tune counts.

    Returns:
        An :class:`ExperimentResult` with one row per workload (per model
        family and bucket for ragged runs) and a ``meta`` dict carrying
        the aggregate numbers plus the full telemetry ``snapshot`` (what
        ``repro serve`` persists for ``repro metrics``).
    """
    if quick:
        clients = min(clients, 8)
        requests_per_client = min(requests_per_client, 4)
    if config is None:
        budget = QUICK_TUNER_KWARGS if quick else {}
        config = SessionConfig.make(seed=0, serve_workers=4, **budget)
    seed = config.search.seed
    dynamic = config.exec.dynamic
    if lengths:
        mix_lengths = ragged_lengths(lengths, seed)
        chains = ragged_chains(mix_lengths)
        names = list(chains)
    else:
        mix_lengths = []
        names = list(workload_names) if workload_names else serve_mix(signatures)
        chains = {name: build_workload(name) for name in names}
    if verify_served is None:
        verify_served = bool(lengths)
    registry = telemetry if telemetry is not None else MetricsRegistry()
    service = CompileService(gpu, cache=cache, telemetry=registry, config=config)

    pmf = _zipf_pmf(len(names), zipf_s)
    barrier = threading.Barrier(clients)
    records: list[list[ServeResult]] = [[] for _ in range(clients)]
    failures: list[BaseException] = []

    def client(i: int) -> None:
        rng = np.random.default_rng(seed * 7919 + i)
        # round-robin first request: every signature sees the cold burst
        plan = [names[i % len(names)]] + [
            names[j]
            for j in rng.choice(len(names), size=requests_per_client - 1, p=pmf)
        ]
        barrier.wait()
        for name in plan:
            try:
                records[i].append(service.submit(chains[name]).result())
            except BaseException as exc:  # noqa: BLE001 - reported, not raised
                failures.append(exc)

    threads = [threading.Thread(target=client, args=(i,)) for i in range(clients)]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - t0
    # close first: it drains the queue and joins the workers, so the
    # snapshot below is final (no in-flight observation can race it)
    service.close()
    snapshot = service.metrics()

    results = [r for batch in records for r in batch]
    issued = clients * requests_per_client
    counters = snapshot["counters"]
    tunes = counters.get("serve.tunes", 0)
    coalesced = counters.get("serve.coalesced", 0)
    shed = counters.get("serve.shed", 0)
    errors = counters.get("serve.errors", 0)
    hits = sum(counters.get(f"serve.hits.{t}", 0) for t in _CACHE_SOURCES)
    cold_path = coalesced + tunes
    coalesce_rate = coalesced / cold_path if cold_path else float("nan")
    warm = snapshot["histograms"].get("serve.latency.warm", {})
    cold = snapshot["histograms"].get("serve.latency.cold", {})
    # the service must account for every issued request, exactly
    reconciled = (
        counters.get("serve.requests", 0) == issued
        and hits + coalesced + tunes + shed + errors == issued
        and len(results) + len(failures) == issued
    )

    # Row key: workload name, or "family@<=ceiling" per (model family,
    # bucket) for ragged runs — the granularity the tune-count bound is
    # stated at (one ceiling tune serves every length in the bucket).
    def row_key(name: str) -> str:
        if not lengths:
            return name
        # bucket of the varying sequence-length loop ``m`` (``n`` is a
        # fixed hidden dim for the GEMM family and tied to ``m`` for
        # attention, so ``m``'s ceiling identifies the bucket)
        ceiling = bucket_dims(chains[name])["m"]
        return f"{_family(name)}@<={ceiling}"

    row_keys: list[str] = []
    grouped: dict[str, list[ServeResult]] = {}
    for name in names:
        key = row_key(name)
        if key not in grouped:
            grouped[key] = []
            row_keys.append(key)
        grouped[key].extend(r for r in results if r.workload == chains[name].name)

    rows = []
    tunes_per_bucket: dict[str, int] = {}
    for key in sorted(row_keys) if lengths else row_keys:
        mine = grouped[key]
        n_tuned = sum(r.source == "tuned" for r in mine)
        n_coal = sum(r.source == "coalesced" for r in mine)
        n_warm = sum(r.source in _CACHE_SOURCES for r in mine)
        warm_lat = sorted(r.latency_seconds for r in mine if r.source in _CACHE_SOURCES)
        p50 = warm_lat[len(warm_lat) // 2] * 1e6 if warm_lat else float("nan")
        if lengths:
            tunes_per_bucket[key] = n_tuned
        rows.append([
            key,
            len(mine),
            n_tuned,
            n_coal,
            n_warm,
            f"{p50:.0f}" if warm_lat else "-",
        ])

    meta = {
        "clients": clients,
        "requests_per_client": requests_per_client,
        "signatures": len(names),
        "zipf_s": zipf_s,
        "requests": issued,
        "wall_seconds": wall,
        "throughput_rps": issued / wall if wall > 0 else float("nan"),
        "tunes": tunes,
        "coalesced": coalesced,
        "cache_hits": hits,
        "shed": shed,
        # failed tunes (the serve.errors counter) vs requests that raised:
        # one failed tune fails its creator plus every coalesced rider
        "errors": errors,
        "failed_requests": len(failures),
        "coalesce_rate": coalesce_rate,
        "warm_p50_us": (warm.get("p50") or float("nan")) * 1e6,
        "warm_p95_us": (warm.get("p95") or float("nan")) * 1e6,
        "cold_p50_ms": (cold.get("p50") or float("nan")) * 1e3,
        "cold_p95_ms": (cold.get("p95") or float("nan")) * 1e3,
        "reconciled": reconciled,
        "dynamic": dynamic,
        "warm_hit_rate": hits / issued if issued else float("nan"),
        "snapshot": snapshot,
    }
    if lengths:
        lo, hi = min(mix_lengths), max(mix_lengths)
        buckets = sorted({bucket_of(m) for m in mix_lengths})
        meta.update(
            distinct_lengths=len(mix_lengths),
            length_range=(lo, hi),
            distinct_buckets=len(buckets),
            # the paper-level bound: a pow2 bucketing of [lo, hi] has at
            # most ceil(log2(hi/lo)) + 1 buckets, so per (model family)
            # no more tunes than that — and per (family, bucket) exactly 1
            bucket_bound=math.ceil(math.log2(hi / lo)) + 1,
            bucket_hits=counters.get("serve.hits.bucket", 0),
            tunes_per_bucket=tunes_per_bucket,
            max_tunes_per_bucket=max(tunes_per_bucket.values(), default=0),
            tunes_per_1k_requests=1000.0 * tunes / issued if issued else float("nan"),
        )
    if verify_served:
        meta.update(_verify_served(results, chains, seed))
    return ExperimentResult(
        name="serve_load",
        headers=["workload", "requests", "tuned", "coalesced", "warm hits", "warm p50 (us)"],
        rows=rows,
        meta=meta,
    )


def fmt_stat(value: float, spec: str, suffix: str = "") -> str:
    """Format a summary number; nan (no samples on that path) prints ``-``."""
    import math

    if isinstance(value, float) and math.isnan(value):
        return "-"
    return format(value, spec) + suffix


def summary_lines(meta: dict) -> list[str]:
    """The human-readable roll-up printed by ``main()`` and ``repro serve``."""
    lines = [
        f"{meta['requests']} requests from {meta['clients']} clients over "
        f"{meta['signatures']} signatures in {meta['wall_seconds']:.2f}s "
        f"({meta['throughput_rps']:.0f} req/s)",
        f"tunes: {meta['tunes']}  coalesced: {meta['coalesced']} "
        f"(rate {fmt_stat(meta['coalesce_rate'], '.0%')})  "
        f"cache hits: {meta['cache_hits']}  "
        f"shed: {meta['shed']}  failed tunes: {meta['errors']} "
        f"({meta['failed_requests']} requests)",
        f"latency: warm p50 {fmt_stat(meta['warm_p50_us'], '.0f', 'us')} / "
        f"p95 {fmt_stat(meta['warm_p95_us'], '.0f', 'us')}   "
        f"cold p50 {fmt_stat(meta['cold_p50_ms'], '.1f', 'ms')} / "
        f"p95 {fmt_stat(meta['cold_p95_ms'], '.1f', 'ms')}",
        f"telemetry reconciled with issued requests: {meta['reconciled']}",
    ]
    if "distinct_lengths" in meta:
        lo, hi = meta["length_range"]
        lines.append(
            f"ragged mix: {meta['distinct_lengths']} lengths in [{lo}, {hi}] -> "
            f"{meta['distinct_buckets']} buckets (bound "
            f"ceil(log2(spread))+1 = {meta['bucket_bound']})  "
            f"bucket hits: {meta['bucket_hits']}  "
            f"warm hit rate: {fmt_stat(meta['warm_hit_rate'], '.1%')}  "
            f"tunes/1k req: {fmt_stat(meta['tunes_per_1k_requests'], '.0f')}  "
            f"max tunes per (family, bucket): {meta['max_tunes_per_bucket']}"
        )
    if "verified" in meta:
        n_fail = len(meta["verify_failures"])
        lines.append(
            f"numeric verification at request shapes (scalar interpreter): "
            f"{meta['verified'] - n_fail}/{meta['verified']} schedules ok"
            + (f"  FAILED: {meta['verify_failures']}" if n_fail else "")
        )
    return lines


def main(quick: bool | None = None) -> ExperimentResult:
    """Run with defaults and print the serving report."""
    import os

    if quick is None:
        quick = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")
    result = run(quick=quick)
    print_header("Serve load (Zipf replay against CompileService)")
    print(result.table())
    for line in summary_lines(result.meta):
        print(f"  {line}")
    return result


if __name__ == "__main__":  # pragma: no cover
    main()
