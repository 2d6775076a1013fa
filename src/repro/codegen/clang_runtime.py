"""Compile rendered C kernels into callables, with two-tier kernel caching.

The runtime follows tinygrad's ``ops_clang`` shape: render → hash → compile
to a shared object → ``dlopen`` → call through ``ctypes``. Kernels are
content-addressed by their source hash, with

* an **in-memory** tier per :class:`ClangRuntime` — a
  ``WeakValueDictionary`` of every live :class:`CompiledKernel` plus a
  strong LRU pinning the hottest entries, so repeated executions of the
  same schedule never touch the filesystem;
* an **on-disk** tier under ``<cache dir>/kernels/<hash>.so`` (the cache
  dir honors ``$REPRO_CACHE_DIR``, like the schedule cache), published
  atomically via temp-file + ``os.replace`` so concurrent processes never
  observe a half-written artifact. A corrupted artifact (``dlopen``
  failure) is quarantined to ``<hash>.so.corrupt`` and recompiled — the
  same recovery contract as ``PersistentStore``.

Concurrent compiles of the same source within a process coalesce: the
first thread compiles, the rest wait on an in-flight event and share the
result (one compile, N waiters).

Builds can start off the critical path: :meth:`ClangRuntime.prefetch`
registers the in-flight entry at once and runs the disk lookup plus ``cc``
on a daemon thread, at most ``os.cpu_count()`` builds at a time, so builds
overlap each other and whatever the caller does next. ``compile_model``
defers its compiled modules' builds, and the first module run in the
process prefetches all of them (see
:func:`repro.codegen.runtime.defer_native_build`); that run then waits on
its own build in flight, or hits the memory tier. A background build that
fails raises nowhere: a waiter sees the error, and with no waiter the
entry is dropped and the first run builds again (and falls back, under
``auto``, exactly as without prefetching).

A process that exits with builds running does not wait on them. Each
``cc`` runs in its own process group; at exit the runtime kills those
groups and deletes the builds' temp files, so neither a stray compiler
nor a ``.<hash>.*.tmp.*`` file outlives the process. (A process killed
outright cannot clean up: it can leave temp files, never a partial
``<hash>.so``.)

The compiler is discovered as ``$REPRO_CC`` → ``clang`` → ``cc`` →
``gcc``; a missing compiler raises :class:`CompilerNotFoundError`, which
the ``auto`` backend treats as "fall back to the vectorized executor".
Discovery is memoized per ``($REPRO_CC, $PATH)`` value pair, so warm
requests do not rescan ``PATH`` while changing either variable still
re-discovers. A discovered compiler that has since vanished fails its
build with :class:`CompileError` (``auto`` falls back) and drops the
memo, so the next request discovers again.
"""

from __future__ import annotations

import atexit
import ctypes
import functools
import os
import shutil
import signal
import subprocess
import tempfile
import threading
import weakref
from dataclasses import dataclass

import numpy as np

from repro.codegen.program import TileProgram
from repro.codegen.render_c import RenderedKernel, RenderError, render_program
from repro.obs.tracer import NOOP_SPAN, get_tracer
from repro.utils import LRUCache, process_memo

__all__ = [
    "CompileError",
    "CompilerNotFoundError",
    "CompiledKernel",
    "CompilerCacheStats",
    "ClangRuntime",
    "find_compiler",
    "compiler_available",
    "get_runtime",
    "execute_program_compiled",
]

#: Strong-reference LRU capacity of the in-memory kernel tier. Everything
#: still alive elsewhere stays reachable through the weak tier regardless.
MEMORY_CACHE_CAPACITY = 64

#: Seconds before a stuck compiler invocation is killed.
COMPILE_TIMEOUT_S = 120.0


class CompileError(RenderError):
    """Compiling rendered source failed (the C toolchain rejected it)."""


class CompilerNotFoundError(CompileError):
    """No C compiler is available on this machine."""


def find_compiler() -> str | None:
    """Path of the C compiler to use, or ``None``.

    ``$REPRO_CC`` wins when set (and must resolve — a broken override is a
    configuration error worth surfacing, not silently falling through);
    otherwise the first of ``clang``, ``cc``, ``gcc`` on ``PATH``. The
    answer is memoized per ``($REPRO_CC, $PATH)``.
    """
    return _discover(os.environ.get("REPRO_CC"), os.environ.get("PATH"))


@process_memo
@functools.lru_cache(maxsize=16)
def _discover(override: str | None, path: str | None) -> str | None:
    # ``path`` is only the memo key: shutil.which reads os.environ itself.
    if override:
        return shutil.which(override)
    for name in ("clang", "cc", "gcc"):
        path = shutil.which(name)
        if path:
            return path
    return None


def compiler_available() -> bool:
    return find_compiler() is not None


def require_compiler() -> str:
    cc = find_compiler()
    if cc is None:
        raise CompilerNotFoundError(
            "no C compiler found (set $REPRO_CC or install clang/gcc); "
            "the compiled backend is unavailable"
        )
    return cc


@dataclass
class CompiledKernel:
    """A loaded kernel: the dlopen'd library plus its typed entry point."""

    meta: RenderedKernel
    lib: ctypes.CDLL
    fn: "ctypes._CFuncPtr"

    def __call__(self, arrays: list[np.ndarray]) -> int:
        ptr = ctypes.POINTER(ctypes.c_float)
        return int(self.fn(*(a.ctypes.data_as(ptr) for a in arrays)))


def _load_kernel(meta: RenderedKernel, so_path: str) -> CompiledKernel:
    lib = ctypes.CDLL(so_path)
    fn = getattr(lib, meta.entry)
    fn.restype = ctypes.c_int
    fn.argtypes = [ctypes.POINTER(ctypes.c_float)] * len(meta.arg_names)
    return CompiledKernel(meta=meta, lib=lib, fn=fn)


@dataclass
class CompilerCacheStats:
    """Counters of one runtime's kernel cache."""

    memory_hits: int = 0
    disk_hits: int = 0
    compiles: int = 0
    waits: int = 0
    entries: int = 0


#: The ``cc`` flag ladder, fastest first. ``-march=native`` unlocks the
#: host's widest vectors for the emitted ``#pragma omp simd`` inner loops
#: and ``-fopenmp`` both activates those pragmas and the grid-level
#: ``parallel for``; either may be unsupported (cross-compilers, missing
#: OpenMP runtime), so the ladder degrades down to plain ``-O3``.
#: ``-ffast-math`` is deliberately absent — the online-softmax masking
#: depends on ``-inf``/``isfinite`` semantics it would break.
FLAG_LADDER: tuple[tuple[str, ...], ...] = (
    ("-march=native", "-fopenmp"),
    ("-fopenmp",),
    ("-march=native", "-fopenmp-simd"),
    ("-fopenmp-simd",),
    (),
)


class _Inflight:
    def __init__(self) -> None:
        self.event = threading.Event()
        self.kernel: CompiledKernel | None = None
        self.error: BaseException | None = None


class ClangRuntime:
    """Compiles and caches :class:`RenderedKernel` objects.

    ``cache_dir`` overrides the on-disk tier location; by default it is
    resolved *per call* from the schedule cache's ``default_cache_dir``,
    so tests repointing ``$REPRO_CACHE_DIR`` get isolated artifact dirs
    without rebuilding the runtime. A :meth:`prefetch` resolves it when
    the build is submitted, not when its build thread starts.
    """

    def __init__(self, cache_dir: str | None = None) -> None:
        self._cache_dir = cache_dir
        self._weak: "weakref.WeakValueDictionary[str, CompiledKernel]" = (
            weakref.WeakValueDictionary()
        )
        self._strong = LRUCache(capacity=MEMORY_CACHE_CAPACITY)
        self._lock = threading.Lock()
        self._inflight: dict[str, _Inflight] = {}
        self._stats = CompilerCacheStats()
        #: compiler path -> the first :data:`FLAG_LADDER` entry it accepted.
        self._flags: dict[str, tuple[str, ...]] = {}
        # At most one background build per CPU runs at a time.
        self._slots = threading.BoundedSemaphore(os.cpu_count() or 1)
        # The kernel dir a background build writes to, pinned at submit.
        self._pinned = threading.local()
        # Running cc processes and the temp-file stems of builds in
        # progress, for shutdown(); once closed, no new cc starts.
        self._procs_lock = threading.Lock()
        self._procs: set[subprocess.Popen] = set()
        self._temps: set[str] = set()
        self._closed = False
        _LIVE_RUNTIMES.add(self)

    # -- cache plumbing --------------------------------------------------------

    def kernel_dir(self) -> str:
        pinned = getattr(self._pinned, "kernel_dir", None)
        if pinned is not None:
            return pinned
        if self._cache_dir is not None:
            return self._cache_dir
        from repro.cache import default_cache_dir

        return os.path.join(default_cache_dir(), "kernels")

    def stats(self) -> CompilerCacheStats:
        with self._lock:
            return CompilerCacheStats(
                memory_hits=self._stats.memory_hits,
                disk_hits=self._stats.disk_hits,
                compiles=self._stats.compiles,
                waits=self._stats.waits,
                entries=len(self._weak),
            )

    def clear_memory_cache(self) -> None:
        """Drop the in-memory tier (the disk tier is content-addressed and
        never needs invalidation)."""
        with self._lock:
            self._weak.clear()
            self._strong.clear()

    # -- compilation -----------------------------------------------------------

    def _compile_to(self, cc: str, src_path: str, out_path: str) -> None:
        """One compiler invocation, walking :data:`FLAG_LADDER` from the
        fastest flag set down. The first set that works is remembered per
        compiler path, so later kernels start there; should it fail, the
        rest of the ladder is walked again from the top."""
        known = self._flags.get(cc)
        ladder = [extra for extra in FLAG_LADDER if extra != known]
        if known is not None:
            ladder.insert(0, known)
        for extra in ladder:
            cmd = [cc, "-shared", "-fPIC", "-O3", src_path, "-o", out_path, *extra, "-lm"]
            returncode, stderr = self._run_cc(cmd)
            if returncode == 0:
                self._flags[cc] = extra
                return
        raise CompileError(
            f"compilation failed ({' '.join(cmd)}):\n{stderr.strip()}"
        )

    def _run_cc(self, cmd: list[str]) -> tuple[int, str]:
        """Run one compiler invocation in a new process group, tracked so
        :meth:`shutdown` can kill it together with the ``cc1``/``as``/``ld``
        it forks. Returns the exit status and stderr."""
        with self._procs_lock:
            if self._closed:
                raise CompileError("the kernel runtime has shut down")
            try:
                proc = subprocess.Popen(
                    cmd,
                    stdout=subprocess.DEVNULL,
                    stderr=subprocess.PIPE,
                    text=True,
                    start_new_session=True,
                )
            except OSError as exc:
                # The memoized compiler is gone (or no longer executable):
                # fail this build like any other, and discover afresh.
                _discover.cache_clear()
                raise CompileError(f"cannot run compiler {cmd[0]!r}: {exc}") from exc
            self._procs.add(proc)
        try:
            _, stderr = proc.communicate(timeout=COMPILE_TIMEOUT_S)
        except subprocess.TimeoutExpired as exc:
            _kill_group(proc)
            proc.communicate()
            raise CompileError(f"compiler timed out: {' '.join(cmd)}") from exc
        finally:
            with self._procs_lock:
                self._procs.discard(proc)
        return proc.returncode, stderr

    def shutdown(self) -> None:
        """Stop this runtime's builds: kill every running ``cc`` process
        group and delete the temp files of unfinished builds. Later builds
        raise :class:`CompileError`. Called for every runtime at
        interpreter exit, where daemon build threads are abandoned."""
        with self._procs_lock:
            self._closed = True
            procs, temps = list(self._procs), list(self._temps)
        for proc in procs:
            _kill_group(proc)
        for proc in procs:
            try:
                proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                pass
        for stem in temps:
            for path in (stem + ".c", stem + ".so"):
                try:
                    os.unlink(path)
                except OSError:
                    pass

    def _build(self, meta: RenderedKernel) -> CompiledKernel:
        """Disk-tier lookup, then a real compile. Caller holds no locks.

        Subclass override point — the signature must stay ``(self, meta)``;
        trace annotations go to the ambient ``compile.kernel`` span.
        """
        span = get_tracer().current() or NOOP_SPAN
        cc = require_compiler()
        kdir = self.kernel_dir()
        so_path = os.path.join(kdir, f"{meta.source_hash}.so")
        try:
            os.makedirs(kdir, exist_ok=True)
            have_dir = True
        except OSError:
            have_dir = False
        if have_dir and os.path.exists(so_path):
            try:
                kernel = _load_kernel(meta, so_path)
                with self._lock:
                    self._stats.disk_hits += 1
                span.set(tier="disk")
                return kernel
            except OSError:
                # Corrupted artifact: quarantine and fall through to a
                # fresh compile (PersistentStore's recovery contract).
                try:
                    os.replace(so_path, so_path + ".corrupt")
                except OSError:
                    pass
        with self._lock:
            self._stats.compiles += 1
        span.set(tier="compile", cc=cc)
        if have_dir:
            # Compile from a private copy of the source and publish both
            # artifacts with os.replace, so another process building the
            # same hash never reads a truncated .c or loads a partial .so.
            tmp = os.path.join(
                kdir,
                f".{meta.source_hash}.{os.getpid()}-{threading.get_ident()}.tmp",
            )
            tmp_c, tmp_so = tmp + ".c", tmp + ".so"
            with self._procs_lock:
                if self._closed:
                    raise CompileError("the kernel runtime has shut down")
                self._temps.add(tmp)
            try:
                with open(tmp_c, "w") as fh:
                    fh.write(meta.source)
                self._compile_to(cc, tmp_c, tmp_so)
                os.replace(tmp_so, so_path)
            finally:
                # The source rides along for debugging, built or not.
                if os.path.exists(tmp_c):
                    os.replace(tmp_c, os.path.join(kdir, f"{meta.source_hash}.c"))
                if os.path.exists(tmp_so):
                    os.unlink(tmp_so)
                with self._procs_lock:
                    self._temps.discard(tmp)
            return _load_kernel(meta, so_path)
        # No writable cache dir: compile into a scratch dir. The loaded
        # library stays mapped after the directory is gone.
        with tempfile.TemporaryDirectory(prefix="mcfuser-cc-") as scratch:
            src_path = os.path.join(scratch, "kernel.c")
            so_scratch = os.path.join(scratch, "kernel.so")
            with open(src_path, "w") as fh:
                fh.write(meta.source)
            self._compile_to(cc, src_path, so_scratch)
            return _load_kernel(meta, so_scratch)

    def compile(self, meta: RenderedKernel) -> CompiledKernel:
        """Return a callable kernel for ``meta``, from the fastest tier
        available. Concurrent calls for the same hash — and a build
        :meth:`prefetch` started — coalesce into one compile. The traced
        span's ``tier`` attribute records which tier served it:
        ``memory`` / ``disk`` / ``compile`` / ``coalesced``."""
        tracer = get_tracer()
        if not tracer.enabled:
            return self._compile_cached(meta, NOOP_SPAN)
        with tracer.span(
            "compile.kernel", source_hash=meta.source_hash, entry=meta.entry
        ) as span:
            return self._compile_cached(meta, span)

    def _compile_cached(self, meta: RenderedKernel, span) -> CompiledKernel:
        key = meta.source_hash
        with self._lock:
            kernel = self._weak.get(key)
            if kernel is not None:
                self._stats.memory_hits += 1
                self._strong.put(key, kernel)  # refresh recency
                span.set(tier="memory")
                return kernel
            pending = self._inflight.get(key)
            owner = pending is None
            if owner:
                pending = self._inflight[key] = _Inflight()
            else:
                self._stats.waits += 1
        if owner:
            self._settle(meta, pending)
        else:
            span.set(tier="coalesced")
            pending.event.wait()
        if pending.error is not None:
            raise pending.error
        assert pending.kernel is not None
        return pending.kernel

    def _settle(self, meta: RenderedKernel, pending: _Inflight) -> None:
        """Build ``meta`` for the in-flight entry this thread owns and hand
        the kernel or the error to its waiters."""
        try:
            kernel = self._build(meta)
        except BaseException as exc:
            self._retire(meta.source_hash, pending, error=exc)
        else:
            self._retire(meta.source_hash, pending, kernel=kernel)

    def _retire(
        self,
        key: str,
        pending: _Inflight,
        kernel: CompiledKernel | None = None,
        error: BaseException | None = None,
    ) -> None:
        """Publish ``kernel`` (or ``error``) to the waiters of ``pending``
        and drop its in-flight entry. Only the first call per entry acts.
        The entry is retired either way, so a failed build leaves no
        poisoned slot: the next compile of the hash builds again."""
        with self._lock:
            if self._inflight.get(key) is not pending:
                return
            del self._inflight[key]
            if kernel is not None:
                self._weak[key] = kernel
                self._strong.put(key, kernel)
            pending.kernel, pending.error = kernel, error
        pending.event.set()

    # -- background builds -----------------------------------------------------

    def prefetch(self, meta: RenderedKernel, parent=None) -> None:
        """Start building ``meta`` on a daemon thread and return at once.

        A memory-tier hit, a build already in flight, or a machine with no
        compiler does no work. Otherwise the in-flight entry and the kernel
        dir are settled on the calling thread, so a later :meth:`compile`
        of the hash coalesces onto this build, and the artifact lands in
        the dir that was current at submit. At most ``os.cpu_count()``
        background builds run at once. The build's ``compile.kernel`` span
        is parented to ``parent``, else to the caller's live span. A failed
        build raises nowhere: a waiting :meth:`compile` sees the error, and
        with no waiter the entry is simply dropped.
        """
        if find_compiler() is None:
            return
        key = meta.source_hash
        with self._lock:
            if key in self._weak or key in self._inflight:
                return
            pending = self._inflight[key] = _Inflight()
        kernel_dir = self.kernel_dir()
        tracer = get_tracer()
        if parent is None:
            parent = tracer.current()

        def build() -> None:
            try:
                with self._slots:
                    self._pinned.kernel_dir = kernel_dir
                    with tracer.span(
                        "compile.kernel",
                        parent=parent,
                        source_hash=key,
                        entry=meta.entry,
                        prefetch=True,
                    ) as span:
                        self._settle(meta, pending)
                        if pending.error is not None:
                            span.set(
                                error=f"{type(pending.error).__name__}: {pending.error}"
                            )
            except BaseException as exc:
                # Whatever failed around the build, its waiters must wake;
                # the thread then reports the error through excepthook.
                self._retire(key, pending, error=exc)
                raise
            finally:
                self._pinned.kernel_dir = None

        threading.Thread(target=build, name="kernel-build", daemon=True).start()

    def drain(self) -> None:
        """Block until every build in flight now has finished (or failed)."""
        with self._lock:
            pending = list(self._inflight.values())
        for entry in pending:
            entry.event.wait()


def _kill_group(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except OSError:
        pass  # already gone


#: Every runtime alive in the process, shut down at interpreter exit.
_LIVE_RUNTIMES: "weakref.WeakSet[ClangRuntime]" = weakref.WeakSet()


@atexit.register
def _shutdown_runtimes() -> None:
    for runtime in list(_LIVE_RUNTIMES):
        runtime.shutdown()


_RUNTIME: ClangRuntime | None = None
_RUNTIME_LOCK = threading.Lock()


def get_runtime() -> ClangRuntime:
    """The process-wide default runtime (lazily constructed)."""
    global _RUNTIME
    with _RUNTIME_LOCK:
        if _RUNTIME is None:
            _RUNTIME = ClangRuntime()
        return _RUNTIME


def execute_program_compiled(
    program: TileProgram,
    inputs: dict[str, np.ndarray],
    runtime: ClangRuntime | None = None,
) -> dict[str, np.ndarray]:
    """Render, compile (cached) and run a lowered program natively.

    Input validation mirrors the scalar interpreter exactly (``KeyError``
    for a missing tensor, ``ValueError`` for a shape mismatch) so the
    differential harness sees identical error behavior. Raises
    :class:`RenderError`/:class:`CompileError`/:class:`CompilerNotFoundError`
    — all one typed family — when no native kernel can be produced.
    """
    chain = program.schedule.chain
    meta = render_program(program)
    arrays: list[np.ndarray] = []
    cast = {k: np.asarray(v, dtype=np.float32) for k, v in inputs.items()}
    for name in meta.input_names:
        if name not in cast:
            raise KeyError(f"missing input {name!r}")
        expect = chain.tensor_shape(name)
        if cast[name].shape != expect:
            raise ValueError(f"input {name!r}: shape {cast[name].shape} != {expect}")
        arrays.append(np.ascontiguousarray(cast[name]))
    outputs = {
        name: np.zeros(chain.tensor_shape(name), dtype=np.float32)
        for name in meta.output_names
    }
    arrays.extend(outputs[name] for name in meta.output_names)
    kernel = (runtime or get_runtime()).compile(meta)
    rc = kernel(arrays)
    if rc != 0:
        raise MemoryError(
            f"compiled kernel for {program.schedule.describe()} failed to "
            "allocate its per-cell arena"
        )
    return outputs
