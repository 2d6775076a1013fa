#!/usr/bin/env python3
"""The repository benchmark: cold tuning, warm ragged serving, compiled
kernel execution.

Usage (from the repository root)::

    python3 perfbench/run.py --workload tune-cold --seed 1 --seconds 10 --trace 0

``--workload`` is one of ``tune-cold``, ``serve-ragged``, ``compile-exec``
(see ``scenarios.py``). The program is imported from ``src/`` of the same
checkout, so a directory holding only the benchmark exits non-zero.

Every run is isolated: ``REPRO_CACHE_DIR`` and ``TMPDIR`` point into a
fresh directory under ``.perfbench_out/`` (deleted at exit), and no more
threads than ``nproc`` (at most two) are used: one client thread, one
compile-service worker, ``OMP_NUM_THREADS`` native threads.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` it carries the per-layer metrics, measured by the
benchmark's own spans around each layer's public functions. Metric names
and units are declared in ``BENCHMARK.json``. The end-to-end host times
(``setup_s``, ``op_p50_ms``, ``op_p90_ms``) are scaled to a reference
machine speed measured by calibration slices interleaved with the work
(``speed.py``), except ``compile-exec``'s kernel passes: native OpenMP
kernels do not slow down by the calibration's factor, so they are raw wall
time. The line before the result carries the raw wall times
under each workload's own names (``tune_p50_s``, ``serve_p99_us``,
``exec_p50_ms``, ...). A full record of the run (the run header, both
metric sets where measured, the span rollups, the tracing overhead, the
calibration rates) is written to ``.perfbench_out/results/``.

The benchmark's own smoke test: ``python3 -m pytest perfbench/test_smoke.py``.

The simulated metrics are deterministic for a given code and seed: each
run repeats its reference tunes and compares them, and
``.perfbench_out/determinism/`` remembers them across runs, so any
difference is counted as a failure, not as noise.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from speed import SpeedClock

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("tune-cold", "serve-ragged", "compile-exec")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="tiny: two chains / four lengths / two models, reduced search "
             "budget (the smoke test's size)")
    return parser.parse_args(argv)


def isolate(args: argparse.Namespace) -> tuple[str, int]:
    """Fresh cache and temp dirs inside the checkout; thread caps."""
    threads = max(1, min(2, os.cpu_count() or 1))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    run_dir = os.path.join(
        OUT_DIR, "tmp", f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}")
    os.makedirs(os.path.join(run_dir, "tmp"))
    os.environ["REPRO_CACHE_DIR"] = os.path.join(run_dir, "cache")
    os.environ["TMPDIR"] = os.path.join(run_dir, "tmp")
    tempfile.tempdir = os.environ["TMPDIR"]
    return run_dir, threads


def source_digest() -> str:
    """Content hash of the program and the benchmark (the run's code)."""
    digest = hashlib.sha256()
    for top in (os.path.join(ROOT, "src"), HERE):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(".py"):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as fh:
                        digest.update(fh.read())
    return digest.hexdigest()


def _first_line(cmd: list[str]) -> str | None:
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=30, cwd=ROOT)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = (proc.stdout or proc.stderr).strip().splitlines()
    return lines[0] if proc.returncode == 0 and lines else None


def run_header(args: argparse.Namespace, threads: int, digest: str) -> dict:
    import numpy as np
    from repro.codegen.clang_runtime import find_compiler

    cc = find_compiler()
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        commit = _first_line(["git", "rev-parse", "HEAD"])
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "nproc": os.cpu_count(),
        "omp_num_threads": threads,
        "cc": cc,
        "cc_version": _first_line([cc, "--version"]) if cc else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": commit,
        "source_digest": digest,
    }


def percentile(samples: list[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100]."""
    ordered = sorted(samples)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def end_to_end(out, clock, import_span: tuple[float, float]) -> dict[str, float]:
    """The end-to-end metrics; host times are speed-normalized (speed.py)."""
    reports = out.reports
    ops = out.op_times(clock, out.op_spans)
    setups = out.normalized(clock, out.setup_spans)
    return {
        "setup_s": clock.normalize(*import_span) + statistics.median(setups),
        "op_p50_ms": percentile(ops, 50) * 1e3,
        "op_p90_ms": percentile(ops, 90) * 1e3,
        "peak_rss_mb": out.peak_rss_mb,
        "sim_kernel_us_geomean": math.exp(statistics.fmean(
            math.log(r.best_time * 1e6) for r in reports)),
        "sim_tuning_s_total": math.fsum(r.tuning_seconds for r in reports),
        "measurements_total": sum(r.search.num_measurements for r in reports),
    }


#: Each workload's own names for its operation latency, kept in the
#: run record next to the generic ``op_*`` metrics.
OP_NAMES = {
    "tune-cold": ("tune_p50_s", "tune_p90_s", 1e-3),
    "serve-ragged": ("serve_p50_us", "serve_p99_us", 1e3),
    "compile-exec": ("exec_p50_ms", "exec_p90_ms", 1.0),
}

SIM_METRICS = ("sim_kernel_us_geomean", "sim_tuning_s_total", "measurements_total")


def check_determinism(args, digest: str, e2e: dict, out) -> None:
    """Same code + seed + size must give bit-identical simulated metrics."""
    key = f"{args.workload}-{args.size}-seed{args.seed}-{digest[:16]}.json"
    path = os.path.join(OUT_DIR, "determinism", key)
    sim = {name: e2e[name] for name in SIM_METRICS}
    if os.path.exists(path):
        with open(path) as fh:
            previous = json.load(fh)
        if previous != sim:
            out.fail(1, f"simulated metrics changed for the same code and seed: "
                        f"{previous} != {sim}")
        return
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "w") as fh:
        json.dump(sim, fh)
    os.replace(tmp, path)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    run_dir, threads = isolate(args)
    try:
        clock = SpeedClock()
        clock.probe()
        t0 = time.perf_counter()
        sys.path.insert(0, os.path.join(ROOT, "src"))
        try:
            import numpy  # noqa: F401
            import repro  # noqa: F401
            import scenarios
        except ImportError as exc:
            print(f"perfbench: cannot import the program from {ROOT}/src: {exc}",
                  file=sys.stderr)
            return 2
        import_span = (t0, time.perf_counter())
        clock.probe()
        digest = source_digest()
        header = run_header(args, threads, digest)
        print("# perfbench header " + json.dumps(header, sort_keys=True), flush=True)

        ctx = scenarios.Context(args.seed, args.seconds, bool(args.trace),
                                args.size == "tiny", run_dir, clock)
        out = scenarios.run_workload(args.workload, ctx)
        e2e = end_to_end(out, clock, import_span)
        check_determinism(args, digest, e2e, out)
        report(args, header, out, e2e, clock, import_span)
        return 0
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def report(args, header: dict, out, e2e: dict, clock, import_span) -> None:
    """Print the result line; write the full run record."""
    p50_name, tail_name, scale = OP_NAMES[args.workload]
    tail_q = 99 if args.workload == "serve-ragged" else 90
    raw_ops = out.raw(out.op_spans)
    named = {  # raw wall times, under the workload's own metric names
        p50_name: percentile(raw_ops, 50) * 1e3 * scale,
        tail_name: percentile(raw_ops, tail_q) * 1e3 * scale,
        "setup_wall_s": import_span[1] - import_span[0]
        + statistics.median(out.raw(out.setup_spans)),
        "error_rate": out.failed / max(out.attempted, 1),
        "operations": len(raw_ops),
    }
    if out.traced_op_spans:
        named["trace_overhead_s"] = (
            statistics.median(out.op_times(clock, out.traced_op_spans))
            - statistics.median(out.op_times(clock, out.op_spans)))
    record = {
        "header": header,
        "end_to_end": e2e,
        "workload_metrics": named,
        "per_layer": out.layers,
        "attempted": out.attempted,
        "failed": out.failed,
        "problems": out.problems[:50],
        "setup_samples_s": out.normalized(clock, out.setup_spans),
        "speed": clock.summary(),
        "support": out.support,
    }
    results = os.path.join(OUT_DIR, "results")
    os.makedirs(results, exist_ok=True)
    name = f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(results, name), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True, default=str)

    for problem in out.problems[:20]:
        print(f"# problem: {problem}", file=sys.stderr)
    print("# perfbench " + json.dumps(named, sort_keys=True))
    units = load_units()
    chosen = out.layers if args.trace else e2e
    metrics = {
        name: {"value": value, "unit": units[name]} for name, value in chosen.items()
    }
    print(json.dumps({
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": metrics,
    }), flush=True)


def load_units() -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


if __name__ == "__main__":
    sys.exit(main())
