"""Storage pieces of the caching subsystem: entries, an LRU map, JSON disk.

* :class:`CacheEntry` — one tuned result, reduced to what is needed to
  rebuild the schedule without re-running search: the tiling expression
  text, the tile sizes, the DAG-optimization flag, and accounting numbers.
* :class:`PersistentStore` — the one signature -> entry map behind a
  :class:`~repro.cache.cache.ScheduleCache`: a versioned JSON file with
  atomic writes, least-recently-used eviction, and corrupted-file recovery
  (a damaged store is moved aside to ``<path>.corrupt`` and an empty store
  started, never an exception into the tuning path). With ``path=None``
  it is the same bounded map, kept in memory only.
* :class:`LRUCache` — a bounded in-memory key -> value map, used by
  codegen's compiled-kernel memo and :class:`~repro.codegen.clang_runtime.ClangRuntime`.

The persistent store also keeps *cumulative* hit/miss counters in the file
itself, so ``repro cache stats`` reports activity across processes, not
just the current session.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field

__all__ = ["SCHEMA_VERSION", "CacheDecodeError", "CacheEntry", "LRUCache", "PersistentStore"]

#: On-disk schema version. A store written by a different version is
#: discarded (moved aside), never partially interpreted.
SCHEMA_VERSION = 1


class CacheDecodeError(ValueError):
    """A cache file or entry could not be interpreted."""


@dataclass
class CacheEntry:
    """One cached tuning result, keyed by its workload signature.

    Attributes:
        signature: :func:`~repro.cache.signature.workload_signature` key.
        workload: Human-readable chain name at store time (diagnostic only —
            never part of the key).
        gpu: GPU name at store time (diagnostic only).
        variant: Tuner variant that produced the schedule.
        expr: Tiling expression in the paper's textual syntax (``"mn(k,h)"``).
        tiles: Loop name -> tile size of the winning candidate.
        optimized: Whether the extent-1 DAG optimization was applied.
        best_time: Simulated kernel time of the winning schedule (seconds).
        tuning_seconds: Simulated tuning cost originally paid for this entry.
        created_at: Unix timestamp of the original tuning run.
        last_used: Unix timestamp of the most recent lookup (drives LRU
            eviction on disk).
        hits: Number of cache lookups served by this entry.
    """

    signature: str
    workload: str
    gpu: str
    variant: str
    expr: str
    tiles: dict[str, int]
    optimized: bool
    best_time: float
    tuning_seconds: float
    created_at: float = field(default_factory=time.time)
    last_used: float = field(default_factory=time.time)
    hits: int = 0

    def to_json(self) -> dict:
        """Plain-JSON form (inverse of :meth:`from_json`)."""
        return {
            "signature": self.signature,
            "workload": self.workload,
            "gpu": self.gpu,
            "variant": self.variant,
            "expr": self.expr,
            "tiles": dict(self.tiles),
            "optimized": self.optimized,
            "best_time": self.best_time,
            "tuning_seconds": self.tuning_seconds,
            "created_at": self.created_at,
            "last_used": self.last_used,
            "hits": self.hits,
        }

    @classmethod
    def from_json(cls, data: object) -> "CacheEntry":
        """Rebuild an entry from its JSON form; malformed data raises
        :class:`CacheDecodeError` (the store treats that as corruption)."""
        if not isinstance(data, dict):
            raise CacheDecodeError(f"cache entry must be an object, got {type(data).__name__}")
        try:
            entry = cls(
                signature=str(data["signature"]),
                workload=str(data["workload"]),
                gpu=str(data["gpu"]),
                variant=str(data["variant"]),
                expr=str(data["expr"]),
                tiles={str(k): int(v) for k, v in data["tiles"].items()},
                optimized=bool(data["optimized"]),
                best_time=float(data["best_time"]),
                tuning_seconds=float(data["tuning_seconds"]),
                created_at=float(data["created_at"]),
                last_used=float(data["last_used"]),
                hits=int(data["hits"]),
            )
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise CacheDecodeError(f"malformed cache entry: {exc}") from exc
        if not entry.signature or entry.best_time <= 0 or not entry.tiles:
            raise CacheDecodeError(f"implausible cache entry for {entry.workload!r}")
        return entry


class LRUCache:
    """Bounded in-memory key -> value map with least-recently-used eviction.

    ``get`` refreshes recency; inserting beyond ``capacity`` evicts the
    least recently used entry. Capacity 0 disables the map entirely.
    """

    def __init__(self, capacity: int = 128) -> None:
        if capacity < 0:
            raise ValueError(f"LRU capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self._entries: OrderedDict[str, object] = OrderedDict()

    def get(self, key: str):
        value = self._entries.get(key)
        if value is not None:
            self._entries.move_to_end(key)
        return value

    def peek(self, key: str):
        """Lookup without refreshing recency."""
        return self._entries.get(key)

    def put(self, key: str, value) -> None:
        if self.capacity == 0:
            return
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries


class PersistentStore:
    """JSON-on-disk schedule store with versioning, eviction, and recovery.

    The whole store is one JSON document::

        {"schema": 1, "hits": 12, "misses": 3, "entries": {sig: {...}, ...}}

    Writes are atomic (temp file + ``os.replace``) so a crash mid-write
    leaves the previous store intact, and every flush first re-reads the
    file and merges — entries written by *other* processes since our load
    are kept (ours win per signature), and counters accumulate as deltas —
    so concurrent warmup processes sharing one store do not overwrite each
    other. An unreadable, unparsable, or wrong-schema file is renamed to
    ``<path>.corrupt`` and replaced by an empty store — the cache must
    degrade, never break tuning. If the directory is unwritable, the store
    silently runs memory-only; ``path=None`` asks for that from the start.

    The store is also safe under concurrent *threads*: a re-entrant lock
    serializes get/put/flush, and each flush writes through a per-call
    temp file (pid + thread id + sequence number), so two threads sharing
    one instance — or two instances sharing one path — can never interleave
    a partially written document into the visible file and trip the
    corruption-recovery path.
    """

    #: Distinguishes concurrent temp files within one process (two threads
    #: flushing "simultaneously" must never share a temp path).
    _flush_seq = itertools.count()

    def __init__(self, path: str | os.PathLike | None, max_entries: int = 512) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.path = os.fspath(path) if path is not None else None
        self.max_entries = max_entries
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        # counters already reflected on disk; (self.hits - _flushed_hits) is
        # the delta this process still owes the file.
        self._flushed_hits = 0
        self._flushed_misses = 0
        self._entries: dict[str, CacheEntry] = {}
        self._load()

    # -- loading / saving ----------------------------------------------------

    def _read_disk(self) -> tuple[dict[str, CacheEntry], int, int]:
        """Parse the store file; corruption quarantines it and reads empty."""
        if self.path is None or not os.path.exists(self.path):
            return {}, 0, 0
        try:
            with open(self.path, encoding="utf-8") as fh:
                doc = json.load(fh)
            if not isinstance(doc, dict) or doc.get("schema") != SCHEMA_VERSION:
                raise CacheDecodeError(
                    f"schema {doc.get('schema') if isinstance(doc, dict) else doc!r} "
                    f"!= {SCHEMA_VERSION}"
                )
            entries = doc.get("entries")
            if not isinstance(entries, dict):
                raise CacheDecodeError("missing entries table")
            parsed = {sig: CacheEntry.from_json(raw) for sig, raw in entries.items()}
            return parsed, int(doc.get("hits", 0)), int(doc.get("misses", 0))
        except (OSError, json.JSONDecodeError, CacheDecodeError, ValueError, TypeError):
            self._quarantine()
            return {}, 0, 0

    def _load(self) -> None:
        self._entries, self.hits, self.misses = self._read_disk()
        self._flushed_hits = self.hits
        self._flushed_misses = self.misses

    def _quarantine(self) -> None:
        """Move a corrupted store aside so the evidence survives."""
        try:
            os.replace(self.path, self.path + ".corrupt")
        except OSError:
            pass

    def flush(self) -> None:
        """Merge with the on-disk state and write atomically.

        Unwritable targets degrade silently (the store keeps working in
        memory; counters stay pending for a later successful flush). A
        memory-only store has nothing to write.
        """
        if self.path is None:
            return
        with self._lock:
            disk_entries, disk_hits, disk_misses = self._read_disk()
            # Keep entries another process added since we loaded; ours win
            # when both processes tuned the same signature.
            merged = {**disk_entries, **self._entries}
            self._entries = merged
            self._evict()
            hits = disk_hits + (self.hits - self._flushed_hits)
            misses = disk_misses + (self.misses - self._flushed_misses)
            doc = {
                "schema": SCHEMA_VERSION,
                "hits": hits,
                "misses": misses,
                "entries": {sig: e.to_json() for sig, e in self._entries.items()},
            }
            tmp = (
                f"{self.path}.tmp.{os.getpid()}"
                f".{threading.get_ident()}.{next(self._flush_seq)}"
            )
            try:
                os.makedirs(os.path.dirname(self.path) or ".", exist_ok=True)
                with open(tmp, "w", encoding="utf-8") as fh:
                    json.dump(doc, fh, indent=1, sort_keys=True)
                os.replace(tmp, self.path)
            except OSError:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                return
            self.hits = self._flushed_hits = hits
            self.misses = self._flushed_misses = misses

    # -- access --------------------------------------------------------------

    def get(self, signature: str) -> CacheEntry | None:
        with self._lock:
            return self._entries.get(signature)

    def put(self, entry: CacheEntry) -> None:
        with self._lock:
            self._entries[entry.signature] = entry
            self._evict()
            self.flush()

    def record_hit(self, entry: CacheEntry) -> None:
        """Persist one lookup served by ``entry`` (refreshes its LRU stamp).

        Deliberately flushes per hit: a warm lookup is usually the last
        cache interaction of its process (the CLI exits right after), and
        cross-process ``cache stats`` must see the hit. The rewrite is
        bounded by ``max_entries``; a process that finds per-hit writes too
        hot should shrink the store, not batch the counters.
        """
        with self._lock:
            entry.hits += 1
            entry.last_used = time.time()
            self.hits += 1
            self.flush()

    def record_miss(self) -> None:
        """Count a miss without touching the disk.

        On the cold path a miss is almost always followed by a ``put`` of
        the freshly tuned schedule, whose flush persists the counter too —
        no point paying a full-file rewrite twice per cold tune. A miss
        with no subsequent store (e.g. an untunable chain) stays pending
        until any later flush.
        """
        with self._lock:
            self.misses += 1

    def _evict(self) -> None:
        while len(self._entries) > self.max_entries:
            oldest = min(self._entries.values(), key=lambda e: e.last_used)
            del self._entries[oldest.signature]

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0
            self._flushed_hits = 0
            self._flushed_misses = 0
            if self.path is None:
                return
            try:
                os.unlink(self.path)
            except OSError:
                pass

    def entries(self) -> list[CacheEntry]:
        """All entries, most recently used first (for ``cache stats``)."""
        with self._lock:
            return sorted(
                self._entries.values(), key=lambda e: e.last_used, reverse=True
            )

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, signature: str) -> bool:
        with self._lock:
            return signature in self._entries
