"""ScheduleCache: the signature-keyed (JSON files on disk) compilation cache.

This is the front door of the caching subsystem. The tuner and the compile
service ask :func:`resolve` *before* generating a search space; on a hit
the stored tiling decision is
re-expanded into a full :class:`~repro.tiling.schedule.Schedule` with
:func:`~repro.tiling.schedule.build_schedule` — a cheap, deterministic
rebuild that performs **zero** enumeration, pruning, or measurement. On a
miss the tuner runs the normal enumerate → prune → search pipeline and
stores the winner.

Each cache holds exactly one signature -> entry map, the
:class:`~repro.cache.store.PersistentStore`: one JSON file per entry,
read once when the cache opens; a put writes only its own entry file.
:meth:`ScheduleCache.lookup` records the hit or miss (persistently);
:meth:`ScheduleCache.peek` reads the same map without recording anything —
the serving layer's warm path. All operations are thread-safe (the
compile service's workers tune concurrently against one cache).

The default persistent location is ``$REPRO_CACHE_DIR`` when set, else
``~/.cache/mcfuser-repro``; pass ``path=None`` for a memory-only cache
(the same bounded map, never written to disk).

Keys cover the *workload* — chain structure, shapes, dtype, GPU spec,
tuner variant, and search strategy (non-default strategies get a
``variant+strategy`` key, see :func:`~repro.cache.signature.variant_key`)
— but not the search seed or Algorithm-1 budget: the cache
stores one best-known schedule per workload and serves it regardless of
how a later caller would have searched. Callers that need a fresh search
(seed-sensitivity studies, bigger budgets) must bypass the cache.
"""

from __future__ import annotations

import contextlib
import math
import os
import threading
from dataclasses import dataclass
from typing import NamedTuple

from repro.cache.signature import (
    DEFAULT_STRATEGY,
    bucket_dims,
    bucketed_signature,
    variant_key,
    workload_signature,
)
from repro.cache.store import CacheEntry, PersistentStore

__all__ = [
    "CacheStats",
    "Resolution",
    "ScheduleCache",
    "default_cache_dir",
    "default_cache",
    "resolve",
]

#: Directory of the persistent store inside the cache directory.
STORE_DIRNAME = "schedules"

#: The schema-1 whole-store document: never read, removed by ``clear``.
LEGACY_FILENAME = "schedule_cache.json"


def default_cache_dir() -> str:
    """Resolve the persistent cache directory.

    ``$REPRO_CACHE_DIR`` wins when set (tests and CI point it at temporary
    directories); otherwise ``~/.cache/mcfuser-repro``.
    """
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "mcfuser-repro")


@dataclass(frozen=True)
class CacheStats:
    """Cache counters: this session plus cumulative on-disk totals.

    ``hits``/``misses``/``stores`` count operations performed through this
    :class:`ScheduleCache` instance; ``total_hits``/``total_misses`` include
    activity persisted by earlier processes sharing the same store.
    ``disk_entries`` counts persisted entries (0 for a memory-only cache).
    ``path`` is the store directory (``None`` for a memory-only cache).
    """

    hits: int
    misses: int
    stores: int
    disk_entries: int
    total_hits: int
    total_misses: int
    path: str | None

    @property
    def hit_rate(self) -> float:
        """Session hit rate in [0, 1] (nan before any lookup)."""
        total = self.hits + self.misses
        return self.hits / total if total else float("nan")


class ScheduleCache:
    """Persistent, signature-keyed cache of tuned schedules.

    Args:
        path: Cache directory (entries live in its ``schedules/``
            subdirectory), or ``None`` for memory-only.
        max_entries: Eviction threshold of the entry map (least recently
            used entries are dropped first).

    Typical use::

        cache = ScheduleCache("~/.cache/mcfuser-repro")
        tuner = MCFuserTuner(A100, cache=cache)
        tuner.tune(chain)   # cold: full search, result stored
        tuner.tune(chain)   # warm: pure lookup, zero enumeration
    """

    def __init__(
        self,
        path: str | os.PathLike | None = None,
        max_entries: int = 512,
    ) -> None:
        self._lock = threading.RLock()
        self.path: str | None = None
        if path is not None:
            directory = os.path.expanduser(os.fspath(path))
            self.path = os.path.join(directory, STORE_DIRNAME)
        self._store = PersistentStore(self.path, max_entries=max_entries)
        self.hits = 0
        self.misses = 0
        self.stores = 0

    # -- keys ----------------------------------------------------------------

    def signature_for(self, chain, gpu, variant: str = "mcfuser") -> str:
        """The cache key this cache would use for ``(chain, gpu, variant)``."""
        return workload_signature(chain, gpu, variant)

    # -- lookup / store ------------------------------------------------------

    def get(self, chain, gpu, variant: str = "mcfuser") -> CacheEntry | None:
        """Look up a tuned schedule; records the hit/miss persistently.

        Returns the :class:`CacheEntry` on a hit, else ``None``.
        """
        return self.lookup(self.signature_for(chain, gpu, variant))

    def lookup(self, signature: str) -> CacheEntry | None:
        """Recording lookup by precomputed signature (see :meth:`get`).

        A hit refreshes the entry's recency; for a persistent cache it
        rewrites that entry's file and logs the hit, so ``repro cache
        stats`` in another process sees it. A miss is one log line.
        """
        with self._lock:
            entry = self._store.get(signature)
            if entry is None:
                self.misses += 1
                self._store.record_miss()
                return None
            self.hits += 1
            self._store.record_hit(entry)
            return entry

    def peek(self, signature: str) -> CacheEntry | None:
        """Non-recording lookup by raw signature.

        Unlike :meth:`get` this neither counts a hit/miss, refreshes
        recency, nor writes the store — it is the serving layer's warm read
        and a planning query (used by the partitioner and the warmup
        command to see what work remains).
        """
        return self._store.get(signature)

    def put(self, chain, gpu, report, signature: str | None = None) -> CacheEntry | None:
        """Store the result of one tuning run (a ``TuneReport``).

        Non-finite best times (a chain with no valid schedule measurement)
        are not cached. Returns the stored entry, or ``None`` if skipped.
        ``signature`` overrides the exact workload key — the dynamic-shape
        layer stores ceiling-tuned schedules under their *bucketed*
        signature so every in-bucket length finds them.
        """
        if not math.isfinite(report.best_time) or report.best_time <= 0:
            return None
        schedule = report.best_schedule
        # Key by variant + strategy + top-k so entries stay faithful to how
        # they were found; the default strategy keeps the bare variant for
        # backward compatibility, and cost-model-guided (top-k) tunes never
        # alias exhaustively measured ones.
        variant = variant_key(
            report.variant,
            getattr(report, "strategy", DEFAULT_STRATEGY),
            getattr(report, "measure_topk", 0),
        )
        entry = CacheEntry(
            signature=signature or self.signature_for(chain, gpu, variant),
            workload=chain.name,
            gpu=gpu.name,
            variant=variant,
            expr=schedule.expr.render(),
            tiles=dict(schedule.tiles),
            optimized=schedule.optimized,
            best_time=report.best_time,
            tuning_seconds=report.tuning_seconds,
        )
        with self._lock:
            self._store.put(entry)
            self.stores += 1
        return entry

    # -- maintenance ---------------------------------------------------------

    def stats(self) -> CacheStats:
        """Current counters (see :class:`CacheStats`)."""
        with self._lock:
            total_hits, total_misses = self._store.counters()
            return CacheStats(
                hits=self.hits,
                misses=self.misses,
                stores=self.stores,
                disk_entries=len(self._store) if self.path is not None else 0,
                total_hits=total_hits,
                total_misses=total_misses,
                path=self.path,
            )

    def entries(self) -> list[CacheEntry]:
        """Persisted entries, most recently used first (empty if memory-only)."""
        with self._lock:
            return self._store.entries() if self.path is not None else []

    def clear(self) -> None:
        """Drop every entry, the store directory and a legacy store file;
        counters reset to zero."""
        with self._lock:
            self._store.clear()
            if self.path is not None:
                with contextlib.suppress(OSError):
                    os.unlink(os.path.join(os.path.dirname(self.path), LEGACY_FILENAME))
            self.hits = 0
            self.misses = 0
            self.stores = 0


class Resolution(NamedTuple):
    """Where one request landed on the exact → bucket → miss ladder.

    Attributes:
        rung: ``"exact"`` (entry under the exact signature), ``"bucket"``
            (ceiling-tuned entry under the bucketed signature) or
            ``"miss"``.
        signature: The request's exact workload signature (``None`` when
            resolved without a cache).
        key: Where a miss is stored and what an in-flight tune is keyed
            on: the bucketed signature when ``bucket`` is non-empty, else
            ``signature``.
        bucket: ``loop -> bucket ceiling`` for the chain's dynamic loops;
            empty when bucketing is off. A miss tunes at
            ``chain.with_loops(bucket)``.
        entry: The cache entry on a hit, ``None`` on a miss.
    """

    rung: str
    signature: str | None
    key: str | None
    bucket: dict
    entry: CacheEntry | None


def resolve(reader, chain, gpu, variant: str, dynamic_loops=()) -> Resolution:
    """Walk the exact → bucket → miss ladder for one request.

    ``reader`` exposes ``signature_for`` and ``lookup``: a
    :class:`ScheduleCache` (whose lookup records the hit or miss) or the
    serving layer's non-recording view; ``None`` means no cache, so every
    request is a miss. ``dynamic_loops`` is empty when bucketing is off,
    which leaves only the exact rung.
    """
    bucket = bucket_dims(chain, dynamic_loops)
    if reader is None:
        return Resolution("miss", None, None, bucket, None)
    signature = reader.signature_for(chain, gpu, variant)
    key = bucketed_signature(chain, gpu, variant, dynamic_loops) if bucket else signature
    entry = reader.lookup(signature)
    if entry is not None:
        return Resolution("exact", signature, key, bucket, entry)
    if bucket:
        entry = reader.lookup(key)
        if entry is not None:
            return Resolution("bucket", signature, key, bucket, entry)
    return Resolution("miss", signature, key, bucket, None)


def default_cache() -> ScheduleCache:
    """A persistent cache at :func:`default_cache_dir` (the CLI default)."""
    return ScheduleCache(default_cache_dir())
