"""The three benchmark workloads and the per-layer probes they carry.

Each workload has the same shape: ``setup`` (timed, repeated and reported
as a median), a closed-loop timed phase of whole operations, and checks
against independent oracles run outside the timed phase. A workload
returns an :class:`Outcome`; ``run.py`` turns it into the result line.

* ``tune-cold``   — every Table II/III chain (G1-G12, S1-S9) cold-tuned on
  A100 with the default search budget, one fresh on-disk ``ScheduleCache``
  per pass. Operation: one ``MCFuserTuner.tune``.
* ``serve-ragged`` — one ``CompileService`` (``exec.dynamic="buckets"``,
  ``serve.workers=1``) answering a seeded Zipf stream from one client
  thread: 64 ragged chains served from bucket-ceiling entries plus the
  ``serve_mix(8)`` registry chains served as exact hot-tier hits.
  Operation: one ``submit(...).result()``.
* ``compile-exec`` — ``compile_model`` on four zoo models and a first run
  of every fused kernel into an empty kernel dir (set-up; each repetition
  tunes under its own seed), then repeated execution of every fused module
  of every repetition on ``OMP_NUM_THREADS`` threads. Operation: one pass
  over all of them.

Every workload cold-tunes something (the timed loop, the bucket-ceiling
pre-tunes, or ``compile_model``'s fusion-group tunes), so the simulated
metrics are defined on all three.
"""

from __future__ import annotations

import math
import os
import resource
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from repro.cache.cache import ScheduleCache
from repro.config import SessionConfig
from repro.gpu.specs import A100
from repro.search.tuner import MCFuserTuner

from spans import Recorder, summarize
from speed import SpeedClock

__all__ = ["Outcome", "WORKLOADS", "run_workload"]

#: Set-up repetitions in an untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Reduced search budget for the smoke-test size.
TINY_SEARCH = dict(population_size=64, top_n=4, max_rounds=2, min_rounds=1)

#: ``compile-exec`` models: three resolve to the ``compiled`` backend,
#: ``mlp-mixer`` (below the compiled FLOPs threshold) to ``vectorized``.
EXEC_MODELS = ("bert-small", "ffn-base", "gqa-32x8", "mlp-mixer")
TINY_EXEC_MODELS = ("gqa-32x8", "mlp-mixer")

#: Kernel-output tolerance, as in benchmarks/test_compiled_backend.py.
EXEC_RTOL = EXEC_ATOL = 1e-3
#: Served-schedule tolerance, as in repro.experiments.serve_load.
SERVE_RTOL, SERVE_ATOL = 1e-3, 1e-4

ZIPF_S = 1.1


@dataclass
class Outcome:
    """What one workload run measured."""

    #: ``(start, end)`` host times of each set-up repetition.
    setup_spans: list[tuple[float, float]] = field(default_factory=list)
    #: ``(start, end)`` of each operation of the untraced timed phase.
    op_spans: list[tuple[float, float]] = field(default_factory=list)
    #: Same, with tracing on (traced runs only).
    traced_op_spans: list[tuple[float, float]] = field(default_factory=list)
    #: Cold-tune reports of the fixed reference work (simulated metrics).
    reports: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    #: Peak resident set size at the end of the timed phase, before the
    #: oracles (which allocate reference outputs) run.
    peak_rss_mb: float = 0.0
    #: The operations run native multi-threaded kernels, which the
    #: interpreter calibration does not track: report them as raw wall.
    native_ops: bool = False
    layers: dict[str, float] = field(default_factory=dict)
    support: dict = field(default_factory=dict)

    def fail(self, count: int, why: str) -> None:
        self.failed += count
        self.problems.append(why)

    @staticmethod
    def normalized(clock: SpeedClock, spans) -> list[float]:
        return [clock.normalize(t0, t1) for t0, t1 in spans]

    def op_times(self, clock: SpeedClock, spans) -> list[float]:
        """Operation latencies as reported: speed-normalized, or raw wall
        for native operations."""
        return self.raw(spans) if self.native_ops else self.normalized(clock, spans)

    @staticmethod
    def raw(spans) -> list[float]:
        return [t1 - t0 for t0, t1 in spans]


def _config(seed: int, tiny: bool, **extra) -> SessionConfig:
    knobs = dict(TINY_SEARCH) if tiny else {}
    knobs.update(extra)
    return SessionConfig.make(seed=seed, workers=1, cost_model=False, **knobs)


def _fresh_cache_root(run_dir: str, label: str) -> str:
    """Point ``REPRO_CACHE_DIR`` (schedule store, ``kernels/*.so``,
    ``measurements.jsonl``) at a new, empty directory."""
    root = os.path.join(run_dir, label)
    os.makedirs(root)
    os.environ["REPRO_CACHE_DIR"] = root
    return root


def _sim_key(report) -> tuple:
    return (report.best_time, report.tuning_seconds, report.search.num_measurements)


def _timed_until(seconds: float, step, clock: SpeedClock) -> list[tuple[float, float]]:
    """Closed loop: run ``step`` back to back for ``seconds`` (at least
    once), with calibration slices between steps."""
    spans: list[tuple[float, float]] = []
    deadline = time.perf_counter() + seconds
    while not spans or time.perf_counter() < deadline:
        clock.tick()
        t0 = time.perf_counter()
        step()
        spans.append((t0, time.perf_counter()))
    clock.probe()
    return spans


# -- layer probes ---------------------------------------------------------------


def install_probes(rec: Recorder) -> None:
    """Wrap every layer's public entry point with a benchmark span."""
    from repro.codegen.clang_runtime import ClangRuntime
    from repro.codegen.runtime import OperatorModule
    from repro.serving.tiers import TieredCache

    # report_from_entry / rebind_report rebuild a schedule at the request
    # shape; every other binding builds search candidates.
    rec.patch_function("repro.tiling.schedule", "build_schedule",
                       "tiling.schedule.rebuild", only_in=("repro.search.tuner",))
    rec.patch_function("repro.tiling.schedule", "build_schedule", "tiling.schedule.build")
    rec.patch_function("repro.search.space", "generate_space", "search.space.generate")
    rec.patch_function("repro.search.perf_model", "estimate_time", "search.perf_model.estimate")
    rec.patch_function("repro.cache.signature", "bucketed_signature", "cache.signature.bucketed")
    rec.patch_function("repro.codegen.interpreter", "resolve_exec_backend",
                       "codegen.interpreter.resolve")
    rec.patch_function("repro.frontend.partition", "partition_graph", "frontend.partition")
    rec.patch_function("repro.codegen.program", "lower_schedule", "codegen.program.lower")
    rec.patch_function("repro.codegen.render_c", "render_program", "codegen.render_c.render")
    rec.patch_method(MCFuserTuner, "tune", "search.tune")
    rec.patch_method(MCFuserTuner, "measure_schedule", "gpu.simulator.measure")
    rec.patch_method(ScheduleCache, "put", "cache.put")
    rec.patch_method(TieredCache, "lookup", "serving.tiers.lookup")
    rec.patch_method(TieredCache, "signature_for", "cache.signature.exact")
    # The documented subclass hook behind ClangRuntime.compile that runs
    # only on an in-memory miss: disk lookup plus the cc invocation.
    rec.patch_method(ClangRuntime, "_build", "codegen.clang_runtime.build")
    rec.patch_method(OperatorModule, "run", "codegen.runtime.run")


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def layer_metrics(rec: Recorder, out: Outcome, clock: SpeedClock) -> dict[str, float]:
    """Every per-layer metric; a layer this workload never calls reads 0."""

    def per_call(name: str, scale: float, phase: str | None = None) -> float:
        return _mean(s.duration for s in rec.select(name, phase)) * scale

    def total(name: str, scale: float, phase: str | None = None) -> float:
        return sum(s.duration for s in rec.select(name, phase)) * scale

    sup = out.support
    metrics = {
        "search.space.materialize_ms": sup.get("materialize_ms", 0.0),
        "tiling.schedule.build_us": per_call("tiling.schedule.build", 1e6),
        "search.perf_model.estimate_us": per_call("search.perf_model.estimate", 1e6),
        "gpu.simulator.measure_us": per_call("gpu.simulator.measure", 1e6),
        "cache.put_us": per_call("cache.put", 1e6),
        "search.engine.self_ms": _mean(s.self_time for s in rec.select("search.tune")) * 1e3,
        "search.pruning.candidates": sum(r.pruning.after_rule4 for r in out.reports),
        "search.estimates": sum(r.search.num_estimates for r in out.reports),
        "cache.signature.exact_us": per_call("cache.signature.exact", 1e6, "loop"),
        "cache.signature.bucketed_us": per_call("cache.signature.bucketed", 1e6, "loop"),
        "serving.tiers.lookup_us": per_call("serving.tiers.lookup", 1e6, "loop"),
        "tiling.schedule.rebuild_us": per_call("tiling.schedule.rebuild", 1e6, "loop"),
        "codegen.interpreter.resolve_us": per_call("codegen.interpreter.resolve", 1e6, "loop"),
        "serving.service.self_us": _mean(
            s.self_time for s in rec.select("serving.request", "loop")) * 1e6,
        "serving.hits.exact": sup.get("hits_exact", 0),
        "serving.hits.bucket": sup.get("hits_bucket", 0),
        "frontend.partition.partition_ms": total("frontend.partition", 1e3, "setup"),
        "frontend.executor.compile_model_ms": total(
            "frontend.executor.compile_model", 1e3, "setup"),
        "codegen.program.lower_ms": total("codegen.program.lower", 1e3, "setup"),
        "codegen.render_c.render_ms": total("codegen.render_c.render", 1e3, "setup"),
        "codegen.clang_runtime.build_ms": per_call(
            "codegen.clang_runtime.build", 1e3, "setup"),
        "codegen.backend.compiled": sup.get("backends", {}).get("compiled", 0),
        "codegen.backend.vectorized": sup.get("backends", {}).get("vectorized", 0),
    }
    exec_ms = sup.get("traced_exec_ms", {})
    for model in EXEC_MODELS:
        metrics[f"codegen.exec_ms.{model}"] = exec_ms.get(model, 0.0)
    untraced = statistics.median(out.op_times(clock, out.op_spans))
    traced = statistics.median(out.op_times(clock, out.traced_op_spans))
    metrics["bench.trace_overhead_pct"] = (traced - untraced) / untraced * 100.0
    return metrics


def _materialize_ms(chains) -> float:
    """Mean wall of ``generate_space`` plus draining its candidates."""
    from repro.search.space import generate_space

    samples = []
    for chain in chains:
        t0 = time.perf_counter()
        len(generate_space(chain, A100).candidates)
        samples.append(time.perf_counter() - t0)
    return _mean(samples) * 1e3


# -- tune-cold ------------------------------------------------------------------


def tune_cold(ctx: "Context") -> Outcome:
    from repro.workloads import build_workload, workload_names

    out = Outcome()
    names = ["G1", "S6"] if ctx.tiny else workload_names(level="chain")
    config = _config(ctx.seed, ctx.tiny)
    chains: list = []

    def setup() -> None:
        chains[:] = [build_workload(name) for name in names]

    ctx.run_setup(out, setup)
    reference: dict[str, tuple] = {}
    passes = [0]

    def one_pass(phase_ops: list[tuple[float, float]]) -> None:
        cache = ScheduleCache(_fresh_cache_root(ctx.run_dir, f"pass{passes[0]}"))
        for chain in chains:
            out.attempted += 1
            ctx.clock.probe()
            t0 = time.perf_counter()
            try:
                report = MCFuserTuner(A100, cache=cache, config=config).tune(chain)
            except Exception as exc:  # noqa: BLE001 - counted, run continues
                out.fail(1, f"tune {chain.name}: {type(exc).__name__}: {exc}")
                continue
            phase_ops.append((t0, time.perf_counter()))
            if report.cache_hit:
                out.fail(1, f"{chain.name}: cold tune was served from the cache")
            if not math.isfinite(report.best_time):
                out.fail(1, f"{chain.name}: best_time {report.best_time}")
            key = _sim_key(report)
            if chain.name not in reference:
                reference[chain.name] = key
                out.reports.append(report)
            elif reference[chain.name] != key:
                out.fail(1, f"{chain.name}: same seed, different result {key} "
                            f"!= {reference[chain.name]}")
        passes[0] += 1

    def timed(phase_ops: list[tuple[float, float]]) -> None:
        # Whole passes only, and at least two: the repeat is the
        # same-seed determinism check.
        deadline = time.perf_counter() + ctx.seconds
        done = 0
        while done < 2 or time.perf_counter() < deadline:
            one_pass(phase_ops)
            done += 1
        ctx.clock.probe()

    ctx.run_timed(out, timed)
    if ctx.trace:
        out.support["materialize_ms"] = _materialize_ms(chains)
    return out


# -- serve-ragged ----------------------------------------------------------------


def serve_ragged(ctx: "Context") -> Outcome:
    from repro.experiments.serve_load import ragged_chains, ragged_lengths
    from repro.serving.service import CompileService
    from repro.workloads import build_workload, serve_mix

    out = Outcome()
    n_lengths, n_mix = (4, 2) if ctx.tiny else (32, 8)
    service_config = _config(ctx.seed, ctx.tiny, dynamic="buckets", serve_workers=1)
    warm_config = _config(ctx.seed, ctx.tiny)
    state: dict = {}

    def setup() -> None:
        if "service" in state:
            state["service"].close()
        cache = ScheduleCache(_fresh_cache_root(ctx.run_dir, f"setup{len(out.setup_spans)}"))
        service = CompileService(A100, cache=cache, config=service_config)
        ragged = ragged_chains(ragged_lengths(n_lengths, ctx.seed))
        mix = {name: build_workload(name) for name in serve_mix(n_mix)}
        # Bucket ceilings are tuned through the service itself: the first
        # request of each (family, bucket) tunes, the rest coalesce or hit.
        tickets = [service.submit(chain, lane="background") for chain in ragged.values()]
        for ticket in tickets:
            ticket.result()
            ctx.clock.tick()
        # Registry chains are warmed into the service's schedule store under
        # their exact signatures (as `repro cache warmup` would), then served
        # once so the hot tier holds them.
        for chain in mix.values():
            MCFuserTuner(A100, cache=cache, config=warm_config).tune(chain)
            service.submit(chain).result()
            ctx.clock.tick()
        # One warm request per ragged length, so lazily memoized work at the
        # request shape (lowering, backend resolution) is set-up, not loop.
        for chain in ragged.values():
            service.submit(chain).result()
        state.update(service=service, ragged=ragged, mix=mix)

    ctx.run_setup(out, setup)
    service = state["service"]
    chains = {**state["ragged"], **state["mix"]}

    # Zipf ranks follow a fixed kind pattern and the seed shuffles names
    # within each kind, so a seed changes which lengths are hot but not how
    # the hot set splits between the differently priced request kinds.
    rng = np.random.default_rng(ctx.seed)
    pools = {
        kind: [names[i] for i in rng.permutation(len(names))]
        for kind, names in (
            ("gemm", [n for n in state["ragged"] if n.startswith("gemm@")]),
            ("attn", [n for n in state["ragged"] if n.startswith("attn@")]),
            ("exact", list(state["mix"])),
        )
    }
    pattern = ("gemm", "attn", "exact", "gemm", "attn", "gemm", "attn", "gemm", "attn")
    ranked: list[str] = []
    while any(pools.values()):
        ranked.extend(pools[kind].pop() for kind in pattern if pools[kind])
    weights = 1.0 / np.arange(1, len(ranked) + 1) ** ZIPF_S
    stream = rng.choice(len(ranked), size=1 << 16, p=weights / weights.sum())
    served: dict[tuple, list] = {}

    def timed(phase_ops: list[tuple[float, float]]) -> None:
        before = service.metrics()["counters"]
        deadline = time.perf_counter() + ctx.seconds
        i = 0
        while i == 0 or time.perf_counter() < deadline:
            ctx.clock.tick()
            name = ranked[stream[i % len(stream)]]
            chain = chains[name]
            out.attempted += 1
            t0 = time.perf_counter()
            try:
                with ctx.span("serving.request"):
                    result = service.submit(chain).result()
            except Exception as exc:  # noqa: BLE001 - counted, run continues
                out.fail(1, f"request {name}: {type(exc).__name__}: {exc}")
                i += 1
                continue
            phase_ops.append((t0, time.perf_counter()))
            i += 1
            key = (name, result.report.best_schedule.describe())
            entry = served.get(key)
            if entry is None:
                served[key] = [result.report.best_schedule, 1]
            else:
                entry[1] += 1
        ctx.clock.probe()
        after = service.metrics()["counters"]
        delta = {k: after.get(k, 0) - before.get(k, 0) for k in after}
        out.support["hits_exact"] = sum(
            delta.get(f"serve.hits.{tier}", 0) for tier in ("hot", "memory", "disk"))
        out.support["hits_bucket"] = delta.get("serve.hits.bucket", 0)
        out.support["loop_tunes"] = delta.get("serve.tunes", 0)

    try:
        ctx.run_timed(out, timed)
    finally:
        service.close()
    _verify_served(out, chains, served, ctx.seed)
    if ctx.trace:
        ceilings = [r.chain for r in out.reports]
        out.support["materialize_ms"] = _materialize_ms(ceilings)
    return out


def _verify_served(out: Outcome, chains: dict, served: dict, seed: int) -> None:
    """Each distinct (request chain, schedule) pair under the scalar
    interpreter against the unfused reference; a wrong pair fails every
    request it served."""
    from repro.codegen.interpreter import execute_schedule

    for (name, _), (schedule, count) in served.items():
        chain = chains[name]
        inputs = chain.random_inputs(seed)
        ref = chain.reference(inputs)[chain.output]
        try:
            got = execute_schedule(schedule, inputs, backend="scalar")[chain.output]
            ok = bool(np.allclose(got, ref, rtol=SERVE_RTOL, atol=SERVE_ATOL))
        except Exception:  # noqa: BLE001 - a crash is a verification failure
            ok = False
        if not ok:
            out.fail(count, f"served schedule for {name} disagrees with the reference")
    out.support["verified_pairs"] = len(served)


# -- compile-exec ----------------------------------------------------------------


def compile_exec(ctx: "Context") -> Outcome:
    from repro.codegen.clang_runtime import get_runtime
    from repro.codegen.runtime import clear_kernel_cache
    from repro.frontend.executor import compile_model

    out = Outcome(native_ops=True)
    models = TINY_EXEC_MODELS if ctx.tiny else EXEC_MODELS
    per_model: dict[str, list] = {model: [] for model in models}
    inputs: dict[int, dict] = {}

    def setup() -> None:
        # Each repetition tunes under its own seed: which tiling the tuner
        # picks moves native run time a lot, so the timed loop runs every
        # repetition's kernels rather than one seed's draw.
        draw = len(out.setup_spans)
        config = _config(ctx.seed * SETUP_REPEATS + draw, ctx.tiny)
        root = _fresh_cache_root(ctx.run_dir, f"setup{draw}")
        # cc must really run: the runtime resolves to this run's empty
        # kernel dir and its in-memory tier starts empty.
        kernel_dir = get_runtime().kernel_dir()
        if not kernel_dir.startswith(root + os.sep) or (
                os.path.isdir(kernel_dir) and os.listdir(kernel_dir)):
            raise RuntimeError(f"kernel dir {kernel_dir} is not a fresh, empty dir")
        clear_kernel_cache()
        get_runtime().clear_memory_cache()
        cache = ScheduleCache(os.path.join(root, "schedules"))
        fresh = []
        for model in models:
            with ctx.span("frontend.executor.compile_model"):
                result = compile_model(model, A100, config=config, cache=cache)
            per_model[model].extend(result.module.operator_modules)
            fresh.extend(result.module.operator_modules)
            ctx.clock.tick()
        for module in {id(m): m for m in fresh}.values():
            inputs[id(module)] = module.schedule.chain.random_inputs(ctx.seed)
            module.run(inputs[id(module)])

    ctx.run_setup(out, setup, same_work=False)
    distinct = list({id(m): m for mods in per_model.values() for m in mods}.values())
    backends: dict[str, int] = {}
    for mods in per_model.values():
        for module in mods:
            backends[module.resolved_exec_backend] = (
                backends.get(module.resolved_exec_backend, 0) + 1)
    out.support["backends"] = backends
    runs_per_pass = sum(len(mods) for mods in per_model.values())
    model_times: dict[str, list[float]] = {m: [] for m in per_model}

    def one_pass() -> None:
        for model, mods in per_model.items():
            t0 = time.perf_counter()
            for module in mods:
                module.run(inputs[id(module)])
            model_times[model].append(time.perf_counter() - t0)

    # Later set-ups dropped earlier kernels from the in-memory tier; one
    # untimed pass loads them all again before timing.
    ctx.phase("warm")
    one_pass()
    out.attempted += runs_per_pass

    def timed(phase_ops: list[tuple[float, float]]) -> None:
        for samples in model_times.values():
            samples.clear()
        phase_ops.extend(_timed_until(ctx.seconds, one_pass, ctx.clock))
        out.attempted += runs_per_pass * len(phase_ops)
        key = "traced_exec_ms" if ctx.tracing else "exec_ms"
        out.support[key] = {m: statistics.median(t) * 1e3 for m, t in model_times.items()}

    ctx.run_timed(out, timed)

    passes = len(out.op_spans) + len(out.traced_op_spans) + 1
    for module in distinct:
        chain = module.schedule.chain
        feed = inputs[id(module)]
        ref = chain.reference(feed)[chain.output]
        try:
            got = module.run(feed)[chain.output]
            ok = bool(np.allclose(got, ref, rtol=EXEC_RTOL, atol=EXEC_ATOL))
        except Exception:  # noqa: BLE001 - a crash is a verification failure
            ok = False
        if not ok:
            uses = sum(m is module for mods in per_model.values() for m in mods)
            out.fail(uses * passes, f"{chain.name}: kernel output disagrees with the reference")
    if ctx.trace:
        out.support["materialize_ms"] = _materialize_ms([r.chain for r in out.reports])
    return out


WORKLOADS = {
    "tune-cold": tune_cold,
    "serve-ragged": serve_ragged,
    "compile-exec": compile_exec,
}


# -- run context -----------------------------------------------------------------


class Context:
    """Per-run settings plus the set-up / timed-phase / tracing protocol.

    Set-up runs :data:`SETUP_REPEATS` times untraced (once traced), each
    repetition from empty caches; the cold-tune reports of each repetition
    are captured, the first becomes the reference work for the simulated
    metrics and every later one must reproduce it exactly (unless the
    workload tunes a separate seed per repetition). A traced run
    traces set-up and the timed phase, then repeats the timed phase
    untraced so the difference is the tracing overhead.
    """

    def __init__(self, seed: int, seconds: float, trace: bool, tiny: bool,
                 run_dir: str, clock: SpeedClock) -> None:
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.tiny = tiny
        self.run_dir = run_dir
        self.clock = clock
        self.recorder: Recorder | None = None
        self.tracing = False
        self.in_setup = False
        self.setup_reports: list[list] = []

    def span(self, name: str):
        return self.recorder.span(name) if self.tracing else nullcontext()

    def run_setup(self, out: Outcome, setup, same_work: bool = True) -> None:
        if self.trace:
            self._start_tracing()
        self.in_setup = True
        try:
            for _ in range(1 if self.trace else SETUP_REPEATS):
                self.setup_reports.append([])
                self.clock.probe()
                t0 = time.perf_counter()
                setup()
                out.setup_spans.append((t0, time.perf_counter()))
                self.clock.probe()
        finally:
            self.in_setup = False
        keys = [[_sim_key(r) for r in reports] for reports in self.setup_reports]
        for i, other in enumerate(keys[1:], start=1):
            if same_work and other != keys[0]:
                out.fail(1, f"set-up {i} tuned differently from set-up 0 (same seed)")
        if self.setup_reports[0]:
            out.reports = self.setup_reports[0]

    def phase(self, name: str) -> None:
        """Label the spans recorded from now on (traced runs)."""
        if self.recorder is not None:
            self.recorder.phase = name

    def run_timed(self, out: Outcome, timed) -> None:
        if self.trace:
            self.phase("loop")
            try:
                timed(out.traced_op_spans)
            finally:
                self._stop_tracing()
        timed(out.op_spans)
        out.peak_rss_mb = _peak_rss_mb()

    def _start_tracing(self) -> None:
        from repro.obs import enable_tracing

        self.recorder = Recorder()
        self.recorder.phase = "setup"
        install_probes(self.recorder)
        enable_tracing()
        self.tracing = True

    def _stop_tracing(self) -> None:
        from repro.obs import disable_tracing

        self.tracing = False
        tracer = disable_tracing()
        self.recorder.unpatch()
        self.program_rollup = summarize(tracer.recorder.spans())
        self.program_spans_dropped = tracer.recorder.dropped


def run_workload(name: str, ctx: Context) -> Outcome:
    original = MCFuserTuner.tune

    def tune(tuner, chain):
        report = original(tuner, chain)
        if ctx.in_setup and not report.cache_hit:
            ctx.setup_reports[-1].append(report)
        return report

    MCFuserTuner.tune = tune
    try:
        out = WORKLOADS[name](ctx)
    finally:
        MCFuserTuner.tune = original
    if ctx.trace:
        out.layers = layer_metrics(ctx.recorder, out, ctx.clock)
        out.support["layer_rollup"] = summarize(ctx.recorder.spans)
        out.support["program_rollup"] = ctx.program_rollup
        out.support["program_spans_dropped"] = ctx.program_spans_dropped
    return out
