"""Native kernel builds run in parallel, off the critical path, and only
in processes that run what they compiled.

``compile_model`` defers every compiled module's build
(:func:`repro.codegen.runtime.defer_native_build`); the first module run
in the process hands all of them to :meth:`ClangRuntime.prefetch`, which
registers the in-flight entry at once and runs the disk lookup plus ``cc``
on a daemon thread. These tests pin the contract: compiling alone runs no
``cc``, the first run starts every deferred build and waits only on its
own, warm kernels cost nothing, a failed build surfaces at run time
exactly as a lazy one would, the artifact lands in the kernel dir current
at submit, nothing is built for modules that never run compiled, and a
process exiting mid-build leaves no compiler or temp file behind.
"""

import os
import signal
import subprocess
import sys
import textwrap
import threading
import time

import numpy as np
import pytest

import repro
import repro.codegen.clang_runtime as clang_runtime
from conftest import QUICK
from repro.codegen import clear_kernel_cache
from repro.codegen.clang_runtime import (
    ClangRuntime,
    CompiledKernel,
    CompileError,
    compiler_available,
    find_compiler,
)
from repro.codegen.render_c import RenderedKernel, render_program
from repro.frontend.executor import compile_model
from repro.gpu import A100
from repro.obs import enable_tracing, get_metrics

needs_cc = pytest.mark.skipif(
    not compiler_available(), reason="no C compiler (clang/cc/gcc) on PATH"
)

#: Zoo models whose one distinct fused kernel resolves to the compiled
#: backend under ``auto`` at the quick budget.
COMPILED_MODEL = "gqa-32x8"
OTHER_COMPILED_MODEL = "ffn-base"
#: A zoo model whose fused kernels all resolve to vectorized under ``auto``.
VECTORIZED_MODEL = "mlp-mixer"

WAIT_S = 60.0


class GatedRuntime(ClangRuntime):
    """A runtime whose builds start only once ``release`` is set, and
    optionally fail instead of compiling. ``background`` counts the builds
    run by :meth:`prefetch` threads."""

    def __init__(self, fail: bool = False) -> None:
        super().__init__()
        self.fail = fail
        self.release = threading.Event()
        self.count_lock = threading.Lock()
        self.builds = 0
        self.background = 0

    def _build(self, meta):
        with self.count_lock:
            self.builds += 1
            self.background += threading.current_thread().name == "kernel-build"
        assert self.release.wait(WAIT_S), "test never released the build"
        if self.fail:
            raise CompileError("synthetic toolchain failure")
        return super()._build(meta)


@pytest.fixture
def runtime(monkeypatch):
    """Install a fresh :class:`GatedRuntime` as the process-wide runtime."""
    installed = []

    def install(**kwargs) -> GatedRuntime:
        rt = GatedRuntime(**kwargs)
        monkeypatch.setattr(clang_runtime, "_RUNTIME", rt)
        installed.append(rt)
        return rt

    yield install
    for rt in installed:
        rt.release.set()
        rt.drain()


def _compiled_module(model, config=QUICK):
    result = compile_model(model, A100, config=config)
    [module] = {
        id(m): m for m in result.module.operator_modules
        if m.resolved_exec_backend == "compiled"
    }.values()
    return module


def _inputs(module):
    return module.schedule.chain.random_inputs(0)


def _run_in_thread(module, inputs):
    box: dict = {}

    def target():
        try:
            box["out"] = module.run(inputs)
        except BaseException as exc:  # noqa: BLE001 - re-raised by the test
            box["error"] = exc

    thread = threading.Thread(target=target)
    thread.start()
    return thread, box


def _await_waiter(rt):
    """Block until a run has prefetched every deferred kernel and is
    waiting on its own build."""
    deadline = time.monotonic() + WAIT_S
    while rt.stats().waits == 0 and time.monotonic() < deadline:
        time.sleep(0.005)
    assert rt.stats().waits == 1


def _check(module, out, inputs):
    chain = module.schedule.chain
    np.testing.assert_allclose(
        out[chain.output], chain.reference(inputs)[chain.output],
        rtol=2e-3, atol=2e-3,
    )


@needs_cc
class TestDeferredBuilds:
    def test_compile_only_runs_no_cc(self, runtime):
        rt = runtime()
        rt.release.set()
        _compiled_module(COMPILED_MODEL)
        _compiled_module(OTHER_COMPILED_MODEL)
        rt.drain()
        assert rt.builds == 0
        assert rt.stats().compiles == 0
        assert not os.path.exists(rt.kernel_dir()) or not os.listdir(rt.kernel_dir())

    def test_first_run_starts_every_deferred_build(self, runtime):
        rt = runtime()
        first = _compiled_module(COMPILED_MODEL)
        other = _compiled_module(OTHER_COMPILED_MODEL)
        assert rt.builds == 0
        inputs = _inputs(first)
        thread, box = _run_in_thread(first, inputs)
        _await_waiter(rt)  # the first run waits on its build in flight
        assert thread.is_alive()
        rt.release.set()
        thread.join(WAIT_S)
        assert "error" not in box
        _check(first, box["out"], inputs)
        rt.drain()
        stats = rt.stats()
        assert (stats.compiles, stats.waits) == (2, 1)
        assert rt.background == rt.builds == 2
        # The other model's kernel was built alongside: its run hits memory.
        out = other.run(_inputs(other))
        _check(other, out, _inputs(other))
        assert rt.stats().memory_hits == stats.memory_hits + 1
        assert rt.builds == 2

    def test_warm_memory_hit_starts_nothing(self, runtime):
        rt = runtime()
        rt.release.set()
        first = _compiled_module(COMPILED_MODEL)
        first.run(_inputs(first))
        assert (rt.builds, rt.stats().compiles) == (1, 1)
        # A fresh module for the same schedule renders the same kernel,
        # which the memory tier already holds.
        clear_kernel_cache()
        again = _compiled_module(COMPILED_MODEL)
        assert again is not first
        again.run(_inputs(again))
        rt.drain()
        assert (rt.builds, rt.background, rt.stats().compiles) == (1, 1, 1)

    def test_build_lands_in_kernel_dir_current_at_submit(
        self, runtime, monkeypatch, tmp_path
    ):
        rt = runtime()
        submit_dir = rt.kernel_dir()
        first = _compiled_module(COMPILED_MODEL)
        other = _compiled_module(OTHER_COMPILED_MODEL)
        thread, box = _run_in_thread(first, _inputs(first))
        _await_waiter(rt)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "moved"))
        assert rt.kernel_dir() != submit_dir
        rt.release.set()
        thread.join(WAIT_S)
        assert "error" not in box
        rt.drain()
        kernels = tmp_path / "schedule-cache" / "kernels"
        assert kernels.as_posix() == submit_dir
        for module in (first, other):
            source_hash = render_program(module.program).source_hash
            assert (kernels / f"{source_hash}.so").exists()
        assert not (tmp_path / "moved").exists()


@needs_cc
class TestFailedBuilds:
    def test_auto_falls_back_once_when_the_waited_build_fails(self, runtime):
        rt = runtime(fail=True)
        module = _compiled_module(COMPILED_MODEL)
        inputs = _inputs(module)
        thread, box = _run_in_thread(module, inputs)
        _await_waiter(rt)
        rt.release.set()
        thread.join(WAIT_S)
        assert "error" not in box
        _check(module, box["out"], inputs)
        counters = get_metrics().snapshot()["counters"]
        assert counters["exec.fallback.compiled.render-error"] == 1
        assert rt.builds == 1

    def test_pinned_compiled_raises_at_run_not_in_compile_model(self, runtime):
        rt = runtime(fail=True)
        config = QUICK.evolve(exec_backend="compiled")
        first = _compiled_module(COMPILED_MODEL, config)
        other = _compiled_module(OTHER_COMPILED_MODEL, config)
        assert rt.builds == 0
        thread, box = _run_in_thread(first, _inputs(first))
        _await_waiter(rt)
        rt.release.set()
        thread.join(WAIT_S)
        # The waited build fails at the first run...
        assert isinstance(box.get("error"), CompileError)
        assert "synthetic" in str(box["error"])
        # ...and the other one failed with nobody waiting: its entry is
        # dropped, so its first run builds again and raises there.
        rt.drain()
        assert rt.builds == 2
        with pytest.raises(CompileError, match="synthetic"):
            other.run(_inputs(other))
        assert rt.builds == 3
        assert get_metrics().snapshot()["counters"].get("exec.fallback", 0) == 0


@needs_cc
class TestNothingToPrefetch:
    @pytest.mark.parametrize("backend", ["vectorized", "scalar"])
    def test_non_compiled_modules_build_nothing(self, runtime, backend):
        rt = runtime()
        config = QUICK.evolve(exec_backend=backend)
        result = compile_model(COMPILED_MODEL, A100, config=config)
        assert result.detail["exec_backend"] == {backend: 1}
        [module] = result.module.operator_modules
        module.run(_inputs(module))
        rt.drain()
        assert rt.builds == 0

    def test_auto_vectorized_model_builds_nothing(self, runtime):
        rt = runtime()
        result = compile_model(VECTORIZED_MODEL, A100, config=QUICK)
        assert set(result.detail["exec_backend"]) == {"vectorized"}
        module = result.module.operator_modules[0]
        module.run(_inputs(module))
        rt.drain()
        assert rt.builds == 0

    def test_missing_compiler_starts_nothing(self, runtime, monkeypatch):
        rt = runtime()
        rt.release.set()
        # The exec decision still says "compiled"; the toolchain vanished.
        monkeypatch.setattr(clang_runtime, "compiler_available", lambda: True)
        monkeypatch.setenv("REPRO_CC", "/nonexistent/mcfuser-cc")
        module = _compiled_module(COMPILED_MODEL)
        inputs = _inputs(module)
        _check(module, module.run(inputs), inputs)  # auto falls back
        rt.drain()
        assert rt.background == 0


@needs_cc
class TestTracing:
    def test_background_build_span_parented_to_compile_model(self, runtime):
        rt = runtime()
        rt.release.set()
        tracer = enable_tracing()
        module = _compiled_module(COMPILED_MODEL)
        module.run(_inputs(module))
        rt.drain()
        spans = tracer.recorder.spans()
        [model] = [s for s in spans if s.name == "compile.model"]
        [build] = [s for s in spans if s.name == "compile.kernel" and s.attrs.get("prefetch")]
        assert build.parent_id == model.span_id
        assert build.trace_id == model.trace_id
        assert build.attrs["tier"] == "compile"
        assert build.thread_name == "kernel-build"


@needs_cc
def test_process_exit_kills_running_builds(tmp_path):
    """A process that exits while a deferred build's ``cc`` is running is
    not held up by it: the compiler's whole process group is killed, and
    neither a ``.so`` nor a temp file is left behind."""
    piddir = tmp_path / "pids"
    piddir.mkdir()
    wrapper = tmp_path / "slow-cc"
    wrapper.write_text(
        "#!/bin/sh\n"
        f'echo $$ > "{piddir}/$$"\n'
        "sleep 600\n"
        f'exec "{find_compiler()}" "$@"\n'
    )
    wrapper.chmod(0o755)
    script = textwrap.dedent(f"""
        import os, sys, time
        sys.path.insert(0, {os.path.dirname(__file__)!r})
        import repro.codegen.clang_runtime as clang_runtime
        from conftest import QUICK
        from repro.frontend.executor import compile_model
        from repro.gpu import A100

        compile_model({COMPILED_MODEL!r}, A100, config=QUICK)
        mixer = compile_model({VECTORIZED_MODEL!r}, A100, config=QUICK)
        module = mixer.module.operator_modules[0]
        # A vectorized run starts the deferred compiled build, then exit
        # as soon as its cc is running.
        module.run(module.schedule.chain.random_inputs(0))
        deadline = time.monotonic() + 60
        while not os.listdir({str(piddir)!r}) and time.monotonic() < deadline:
            time.sleep(0.01)
        assert os.listdir({str(piddir)!r}), "cc never started"
        assert clang_runtime.get_runtime()._inflight
    """)
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(
        os.environ, REPRO_CACHE_DIR=str(tmp_path / "cache"), PYTHONPATH=src,
        REPRO_CC=str(wrapper),
    )
    started = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True,
            text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert time.monotonic() - started < 100
        groups = [int(name) for name in os.listdir(piddir)]
        assert groups
        deadline = time.monotonic() + 10
        while any(_group_alive(g) for g in groups) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(_group_alive(g) for g in groups)
        kernels = tmp_path / "cache" / "kernels"
        assert kernels.is_dir()
        assert not [p.name for p in kernels.iterdir() if ".tmp" in p.name]
        assert not list(kernels.glob("*.so"))
    finally:
        for name in os.listdir(piddir):
            try:
                os.killpg(int(name), signal.SIGKILL)
            except OSError:
                pass


def _group_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    return True


class CountingRuntime(ClangRuntime):
    """Builds without a compiler: each ``_build`` sleeps briefly and counts
    itself, and the peak number of background builds running at once is
    recorded."""

    def __init__(self) -> None:
        super().__init__()
        self.count_lock = threading.Lock()
        self.builds: dict[str, int] = {}
        self.background_running = 0
        self.background_peak = 0

    def _build(self, meta):
        in_background = threading.current_thread().name == "kernel-build"
        with self.count_lock:
            self.builds[meta.source_hash] = self.builds.get(meta.source_hash, 0) + 1
            self.background_running += in_background
            self.background_peak = max(self.background_peak, self.background_running)
        time.sleep(0.002)
        with self.count_lock:
            self.background_running -= in_background
        return CompiledKernel(meta=meta, lib=None, fn=None)


def test_prefetch_and_compile_stress(monkeypatch):
    """More submitting threads than build slots, prefetching and compiling
    overlapping hashes under a short switch interval: every hash builds
    exactly once, every caller gets that one kernel, at most
    ``os.cpu_count()`` background builds run at once, and every build
    thread ends."""
    monkeypatch.setattr(clang_runtime, "find_compiler", lambda: "cc")
    rt = CountingRuntime()
    metas = [
        RenderedKernel("", f"k{i}", (), (), source_hash=f"h{i:03d}") for i in range(48)
    ]
    got: dict[str, set[int]] = {m.source_hash: set() for m in metas}
    errors: list[BaseException] = []
    barrier = threading.Barrier(8)

    def client(offset: int) -> None:
        try:
            barrier.wait()
            for i in range(len(metas)):
                meta = metas[(i * 7 + offset) % len(metas)]
                if (i + offset) % 2:
                    rt.prefetch(meta)
                else:
                    got[meta.source_hash].add(id(rt.compile(meta)))
        except BaseException as exc:  # noqa: BLE001 - asserted below
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=client, args=(k,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(WAIT_S)
        rt.drain()
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    assert rt.builds == {m.source_hash: 1 for m in metas}
    assert all(len(ids) <= 1 for ids in got.values())
    assert 1 <= rt.background_peak <= (os.cpu_count() or 1)
    assert not rt._inflight
    deadline = time.monotonic() + WAIT_S
    while _build_threads() and time.monotonic() < deadline:
        time.sleep(0.01)
    assert not _build_threads()


def _build_threads() -> list[threading.Thread]:
    return [t for t in threading.enumerate() if t.name == "kernel-build"]


class _BrokenTracer:
    """A tracer whose spans cannot even be opened."""

    enabled = False

    def current(self):
        return None

    def span(self, *args, **kwargs):
        raise RuntimeError("span machinery broke")


def test_failure_around_a_background_build_still_wakes_waiters(monkeypatch):
    """An error outside the build itself (here: opening its span) retires
    the in-flight entry, so ``drain`` and a coalescing ``compile`` never
    hang, the build thread reports the error, and the hash builds again
    afterwards."""
    reported: list[BaseException] = []
    monkeypatch.setattr(threading, "excepthook", lambda args: reported.append(args.exc_value))
    monkeypatch.setattr(clang_runtime, "find_compiler", lambda: "cc")
    monkeypatch.setattr(clang_runtime, "get_tracer", lambda: _BrokenTracer())
    rt = CountingRuntime()
    meta = RenderedKernel("", "k", (), (), source_hash="broken")
    rt.prefetch(meta)
    drained = threading.Thread(target=rt.drain, daemon=True)
    drained.start()
    drained.join(WAIT_S)
    assert not drained.is_alive()
    assert not rt._inflight and rt.builds == {}
    deadline = time.monotonic() + WAIT_S
    while not reported and time.monotonic() < deadline:
        time.sleep(0.005)
    assert [str(exc) for exc in reported] == ["span machinery broke"]
    assert rt.compile(meta).meta is meta
    assert rt.builds == {"broken": 1}
