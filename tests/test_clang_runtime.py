"""The compiled-kernel cache: two tiers, content-addressed, concurrency-safe.

Covers the contracts the docstring of :mod:`repro.codegen.clang_runtime`
promises: memory-tier hits never touch the filesystem, the disk tier is
shared across runtime instances (and processes), corrupted artifacts are
quarantined and recompiled, concurrent compiles of one source coalesce
into a single compiler invocation, and an unwritable cache directory
degrades to scratch-dir compilation instead of failing.
"""

import dataclasses
import os
import platform
import re
import shutil
import threading
import time

import numpy as np
import pytest

from repro.codegen.clang_runtime import (
    ClangRuntime,
    CompileError,
    CompilerNotFoundError,
    compiler_available,
    execute_program_compiled,
)
from repro.codegen.program import lower_schedule
from repro.codegen.render_c import RenderError, render_program
from repro.ir.chain import gemm_chain
from repro.tiling.expr import TilingExpr
from repro.tiling.schedule import build_schedule
from repro.utils import clear_memos

needs_cc = pytest.mark.skipif(
    not compiler_available(), reason="no C compiler (clang/cc/gcc) on PATH"
)


def _program(m=64, n=48, k=32, h=32, name="cache-gemm"):
    chain = gemm_chain(1, m, n, k, h, name=name)
    schedule = build_schedule(
        chain, TilingExpr.parse("mhnk"), {"m": 16, "n": 16, "k": 16, "h": 16}
    )
    return chain, lower_schedule(schedule)


@needs_cc
class TestCacheTiers:
    def test_memory_hit_after_compile(self, tmp_path):
        rt = ClangRuntime(cache_dir=str(tmp_path))
        _, program = _program()
        meta = render_program(program)
        first = rt.compile(meta)
        second = rt.compile(meta)
        assert first is second
        stats = rt.stats()
        assert stats.compiles == 1
        assert stats.memory_hits == 1
        assert stats.disk_hits == 0
        assert stats.entries == 1

    def test_disk_artifacts_written(self, tmp_path):
        rt = ClangRuntime(cache_dir=str(tmp_path))
        _, program = _program()
        meta = render_program(program)
        rt.compile(meta)
        assert (tmp_path / f"{meta.source_hash}.so").exists()
        # the source rides along for debuggability
        assert (tmp_path / f"{meta.source_hash}.c").read_text() == meta.source

    def test_disk_reuse_across_instances(self, tmp_path):
        _, program = _program()
        meta = render_program(program)
        ClangRuntime(cache_dir=str(tmp_path)).compile(meta)
        fresh = ClangRuntime(cache_dir=str(tmp_path))
        fresh.compile(meta)
        stats = fresh.stats()
        assert stats.compiles == 0
        assert stats.disk_hits == 1

    def test_clear_memory_cache_falls_to_disk(self, tmp_path):
        rt = ClangRuntime(cache_dir=str(tmp_path))
        _, program = _program()
        meta = render_program(program)
        rt.compile(meta)
        rt.clear_memory_cache()
        assert rt.stats().entries == 0
        rt.compile(meta)
        stats = rt.stats()
        assert stats.compiles == 1
        assert stats.disk_hits == 1

    def test_corrupted_artifact_quarantined_and_recompiled(self, tmp_path):
        _, program = _program()
        meta = render_program(program)
        so = tmp_path / f"{meta.source_hash}.so"
        so.write_bytes(b"this is not an ELF shared object")
        rt = ClangRuntime(cache_dir=str(tmp_path))
        kernel = rt.compile(meta)
        assert kernel.meta.source_hash == meta.source_hash
        stats = rt.stats()
        assert stats.compiles == 1
        assert stats.disk_hits == 0
        assert (tmp_path / f"{meta.source_hash}.so.corrupt").exists()
        # the recompiled artifact is valid for the next instance
        again = ClangRuntime(cache_dir=str(tmp_path))
        again.compile(meta)
        assert again.stats().disk_hits == 1

    def test_unwritable_cache_dir_scratch_fallback(self, tmp_path):
        blocker = tmp_path / "file-not-dir"
        blocker.write_text("occupied")
        rt = ClangRuntime(cache_dir=str(blocker))
        chain, program = _program(name="cache-scratch")
        out = execute_program_compiled(program, chain.random_inputs(0), runtime=rt)
        ref = chain.reference(chain.random_inputs(0))[chain.output]
        np.testing.assert_allclose(out[chain.output], ref, rtol=1e-4, atol=1e-5)
        assert rt.stats().compiles == 1
        assert blocker.read_text() == "occupied"

    def test_distinct_sources_distinct_entries(self, tmp_path):
        rt = ClangRuntime(cache_dir=str(tmp_path))
        _, p1 = _program(name="cache-a")
        _, p2 = _program(m=80, name="cache-b")
        m1, m2 = render_program(p1), render_program(p2)
        assert m1.source_hash != m2.source_hash
        rt.compile(m1)
        rt.compile(m2)
        assert rt.stats().compiles == 2
        assert rt.stats().entries == 2

    def test_render_is_deterministic(self):
        _, program = _program(name="cache-det")
        assert render_program(program).source_hash == render_program(program).source_hash


class TestRenderMemo:
    def test_kernel_cached_on_program(self):
        """A second render of the same program object is served from the
        object itself, without the content-keyed memo."""
        _, program = _program(name="memo-object")
        first = render_program(program)
        clear_memos()
        assert render_program(program) is first

    def test_tampered_copy_reaches_verifier(self):
        """``dataclasses.replace`` yields a new object, so a copy that drops
        the first Load is verified (and refused) instead of served."""
        _, program = _program(name="memo-tamper")
        render_program(program)
        assert program.ops[0].kind == "load"
        tampered = dataclasses.replace(program, ops=program.ops[1:])
        with pytest.raises(RenderError, match="before Load"):
            render_program(tampered)


@needs_cc
class TestCoalescing:
    N_THREADS = 6

    def test_one_compile_many_waiters(self, tmp_path):
        class SlowRuntime(ClangRuntime):
            def _build(self, meta):
                time.sleep(0.3)  # hold the in-flight slot open
                return super()._build(meta)

        rt = SlowRuntime(cache_dir=str(tmp_path))
        _, program = _program(name="cache-race")
        meta = render_program(program)
        barrier = threading.Barrier(self.N_THREADS)
        results, errors = [], []

        def worker():
            barrier.wait()
            try:
                results.append(rt.compile(meta))
            except BaseException as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(self.N_THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(results) == self.N_THREADS
        assert len({id(k) for k in results}) == 1
        stats = rt.stats()
        assert stats.compiles == 1
        assert stats.waits == self.N_THREADS - 1

    def test_error_propagates_to_waiters(self, tmp_path):
        class FailingRuntime(ClangRuntime):
            def _build(self, meta):
                time.sleep(0.2)
                raise CompileError("synthetic toolchain failure")

        rt = FailingRuntime(cache_dir=str(tmp_path))
        _, program = _program(name="cache-fail")
        meta = render_program(program)
        barrier = threading.Barrier(4)
        errors = []

        def worker():
            barrier.wait()
            try:
                rt.compile(meta)
            except CompileError as exc:
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(errors) == 4
        # a failed compile leaves no poisoned in-flight slot behind
        kernel = ClangRuntime(cache_dir=str(tmp_path)).compile(meta)
        assert kernel.meta.source_hash == meta.source_hash


class TestTypedFailures:
    def test_missing_compiler_raises_typed(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CC", "/nonexistent/mcfuser-cc")
        rt = ClangRuntime(cache_dir=str(tmp_path))
        _, program = _program(name="cache-nocc")
        with pytest.raises(CompilerNotFoundError):
            rt.compile(render_program(program))

    def test_vanished_compiler_falls_back_under_auto(self, monkeypatch, tmp_path):
        """Discovery is memoized, so a compiler deleted after discovery is
        still the one a build runs. Its ``OSError`` must surface as a
        :class:`CompileError`: ``auto`` falls back to vectorized (counted
        once as a render error), a pinned ``compiled`` raises."""
        from repro.codegen import clang_runtime, interpreter
        from repro.codegen.interpreter import execute_schedule
        from repro.obs import get_metrics

        wrapper = tmp_path / "vanishing-cc"
        wrapper.write_text("#!/bin/sh\nexec cc \"$@\"\n")
        wrapper.chmod(0o755)
        monkeypatch.setenv("REPRO_CC", str(wrapper))
        assert clang_runtime.find_compiler() == str(wrapper)
        wrapper.unlink()
        assert clang_runtime.find_compiler() == str(wrapper)  # memoized

        monkeypatch.setattr(interpreter, "COMPILED_MIN_FLOPS", 0)
        monkeypatch.setattr(
            clang_runtime, "_RUNTIME", ClangRuntime(cache_dir=str(tmp_path / "k"))
        )
        chain, program = _program(name="cache-vanished")
        inputs = chain.random_inputs(0)
        schedule = program.schedule
        assert interpreter.resolve_exec_backend(schedule, "auto") == "compiled"
        out = execute_schedule(schedule, inputs)[chain.output]
        scalar = execute_schedule(schedule, inputs, backend="scalar")[chain.output]
        np.testing.assert_allclose(out, scalar, rtol=1e-4, atol=1e-4)
        counters = get_metrics().snapshot()["counters"]
        assert counters["exec.fallback.compiled.render-error"] == 1
        assert counters["exec.fallback"] == 1

        # The failed run dropped the stale discovery; pin it again.
        wrapper.write_text("#!/bin/sh\nexec cc \"$@\"\n")
        wrapper.chmod(0o755)
        assert clang_runtime.find_compiler() == str(wrapper)
        wrapper.unlink()
        with pytest.raises(CompileError, match="cannot run compiler"):
            execute_schedule(schedule, inputs, backend="compiled")

    def test_oversized_arena_rejected_at_render(self, monkeypatch):
        """A program whose per-cell arena exceeds the cap must be refused
        with a typed error instead of emitting a kernel that mallocs
        gigabytes per grid cell. (Lowering's 1 GiB gather cap rejects
        naturally huge schedules first, so the cap is lowered to force the
        renderer's own guard.)"""
        import repro.codegen.render_c as render_c

        monkeypatch.setattr(render_c, "MAX_ARENA_BYTES", 1024)
        # The render memo would short-circuit past the patched cap if this
        # program was already rendered; give the check a cold cache.
        clear_memos()
        _, program = _program(name="cache-arena")
        with pytest.raises(RenderError, match="arena"):
            render_program(program)


def _glibc_at_least(major: int, minor: int) -> bool:
    lib, version = platform.libc_ver()
    parts = version.split(".")
    if lib != "glibc" or len(parts) < 2:
        return False
    return (int(parts[0]), int(parts[1])) >= (major, minor)


@pytest.mark.skipif(
    platform.machine() not in ("x86_64", "AMD64")
    or not _glibc_at_least(2, 35)
    or shutil.which("gcc") is None,
    reason="SIMD tanhf needs x86-64, glibc >= 2.35 (libmvec tanhf) and gcc",
)
def test_gelu_kernel_links_simd_tanhf(monkeypatch, tmp_path):
    """Guard against a silent scalar fallback: a kernel with a materialized
    gelu epilogue must call libmvec's vector ``tanhf`` (``_ZGV*_tanhf``)."""
    monkeypatch.setenv("REPRO_CC", "gcc")
    chain = gemm_chain(1, 64, 48, 32, 32, name="simd-gelu", epilogue="gelu")
    schedule = build_schedule(
        chain, TilingExpr.parse("mhnk"), {"m": 16, "n": 16, "k": 16, "h": 16}
    )
    meta = render_program(lower_schedule(schedule))
    ClangRuntime(cache_dir=str(tmp_path)).compile(meta)
    with open(os.path.join(tmp_path, f"{meta.source_hash}.so"), "rb") as fh:
        assert re.search(rb"_ZGV\w*_tanhf", fh.read())


def _logging_cc(tmp_path, real_cc):
    """A ``$REPRO_CC`` wrapper that logs every invocation and rejects
    ``-march=native`` (or every flag set once ``reject-all`` exists)."""
    log = tmp_path / "cc.log"
    script = tmp_path / "logging-cc"
    script.write_text(
        "#!/bin/sh\n"
        f'echo "$*" >> "{log}"\n'
        f'[ -e "{tmp_path}/reject-openmp" ] && case " $* " in *" -fopenmp "*) exit 1;; esac\n'
        'case " $* " in *" -march=native "*) exit 1;; esac\n'
        f'exec "{real_cc}" "$@"\n'
    )
    script.chmod(0o755)
    return script, log


def _invocations(log) -> list[str]:
    return log.read_text().splitlines() if log.exists() else []


@needs_cc
class TestFlagLadder:
    def test_working_flag_set_remembered_per_compiler(self, monkeypatch, tmp_path):
        from repro.codegen.clang_runtime import find_compiler

        script, log = _logging_cc(tmp_path, find_compiler())
        monkeypatch.setenv("REPRO_CC", str(script))
        rt = ClangRuntime(cache_dir=str(tmp_path / "kernels"))
        rt.compile(render_program(_program(name="ladder-a")[1]))
        first = _invocations(log)
        assert len(first) == 2  # -march=native rejected, then -fopenmp
        assert "-march=native" in first[0] and "-march=native" not in first[1]
        rt.compile(render_program(_program(m=80, name="ladder-b")[1]))
        [second] = _invocations(log)[len(first):]
        assert "-fopenmp" in second.split() and "-march=native" not in second

    def test_failing_remembered_set_walks_the_ladder_again(self, monkeypatch, tmp_path):
        from repro.codegen.clang_runtime import find_compiler

        script, log = _logging_cc(tmp_path, find_compiler())
        monkeypatch.setenv("REPRO_CC", str(script))
        rt = ClangRuntime(cache_dir=str(tmp_path / "kernels"))
        rt.compile(render_program(_program(name="ladder-c")[1]))
        seen = len(_invocations(log))
        (tmp_path / "reject-openmp").write_text("")
        kernel = rt.compile(render_program(_program(m=80, name="ladder-d")[1]))
        assert kernel.meta.entry
        walk = [line.split() for line in _invocations(log)[seen:]]
        # the remembered -fopenmp fails, then the ladder from the top
        assert "-fopenmp" in walk[0] and "-march=native" not in walk[0]
        assert len(walk) == 4
        assert "-fopenmp-simd" in walk[-1] and "-march=native" not in walk[-1]
        # ...and the set that worked this time is the one remembered
        seen = len(_invocations(log))
        rt.compile(render_program(_program(m=96, name="ladder-e")[1]))
        [last] = _invocations(log)[seen:]
        assert "-fopenmp-simd" in last.split()


@needs_cc
def test_build_leaves_no_temp_files(tmp_path):
    rt = ClangRuntime(cache_dir=str(tmp_path))
    meta = render_program(_program(name="cache-tmp")[1])
    rt.compile(meta)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        [f"{meta.source_hash}.c", f"{meta.source_hash}.so"]
    )
