"""Storage pieces of the caching subsystem: entries and their JSON disk store.

* :class:`CacheEntry` — one tuned result, reduced to what is needed to
  rebuild the schedule without re-running search: the tiling expression
  text, the tile sizes, the DAG-optimization flag, and accounting numbers.
* :class:`PersistentStore` — the one signature -> entry map behind a
  :class:`~repro.cache.cache.ScheduleCache`: one versioned JSON file per
  entry, least-recently-used eviction, and per-entry corruption recovery
  (a damaged file loses one entry, never raises into the tuning path).
  With ``path=None`` it is the same bounded map, kept in memory only.

The persistent store also keeps *cumulative* hit/miss counters in an
append-only log beside the entries, so ``repro cache stats`` reports
activity across processes, not just the current session.
"""

from __future__ import annotations

import contextlib
import json
import os
import re
import shutil
import threading
import time
from dataclasses import asdict, dataclass, field

from repro.utils import atomic_write

__all__ = ["SCHEMA_VERSION", "CacheDecodeError", "CacheEntry", "PersistentStore"]

#: On-disk schema version of one entry file. A file written under another
#: version is quarantined, never partially interpreted. Version 1 was a
#: single whole-store document; a cache directory holding one reads as cold.
SCHEMA_VERSION = 2

#: Append-only log of recorded lookups inside the store directory: one
#: ``h`` (hit) or ``m`` (miss) line per event.
COUNTERS_FILENAME = "counters.log"

#: What a signature must look like to name its entry file.
_PLAIN_NAME = re.compile(r"[A-Za-z0-9_-]+")


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
        return asdict(self)

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


class PersistentStore:
    """Schedule store with one JSON file per entry, eviction, and recovery.

    Layout of the store directory::

        <path>/<signature>.json   {"schema": 2, "signature": ..., "tiles": ...}
        <path>/counters.log       one "h" or "m" line per recorded lookup

    Opening the store scans the directory once; every read after that is in
    memory. A put writes only its own entry file (through
    :func:`~repro.utils.atomic_write`) and reads nothing, so processes
    sharing a directory never lose each other's entries; within one
    signature the last writer wins. An unreadable, unparsable or
    wrong-schema entry file is renamed to ``<signature>.json.corrupt`` and
    skipped. A failed write turns the store memory-only; ``path=None`` asks
    for that from the start. A re-entrant lock makes one instance
    thread-safe.
    """

    def __init__(self, path: str | os.PathLike | None, max_entries: int = 512) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.path = os.fspath(path) if path is not None else None
        self.max_entries = max_entries
        self._lock = threading.RLock()
        # Cumulative counters once the store is memory-only.
        self._hits = 0
        self._misses = 0
        self._entries: dict[str, CacheEntry] = {}
        self._load()

    # -- disk ----------------------------------------------------------------

    def _entry_path(self, signature: str) -> str:
        return os.path.join(self.path, signature + ".json")

    def _load(self) -> None:
        """Read every entry file once, quarantining bad ones, then evict
        down to ``max_entries``."""
        try:
            names = os.listdir(self.path) if self.path is not None else []
        except OSError:
            names = []
        for name in names:
            if not name.endswith(".json"):
                continue
            file = os.path.join(self.path, name)
            try:
                with open(file, encoding="utf-8") as fh:
                    doc = json.load(fh)
                if not isinstance(doc, dict) or doc.get("schema") != SCHEMA_VERSION:
                    raise CacheDecodeError(f"{name}: schema is not {SCHEMA_VERSION}")
                entry = CacheEntry.from_json(doc)
                if entry.signature + ".json" != name:
                    raise CacheDecodeError(f"{name} holds signature {entry.signature!r}")
            except FileNotFoundError:
                continue  # another process evicted or cleared it mid-scan
            except (OSError, ValueError):
                with contextlib.suppress(OSError):
                    os.replace(file, file + ".corrupt")
                continue
            self._entries[entry.signature] = entry
        self._evict()

    def _write(self, entry: CacheEntry) -> None:
        """Persist one entry file; a failed write turns the store memory-only."""
        if self.path is not None:
            text = json.dumps({"schema": SCHEMA_VERSION, **entry.to_json()}, sort_keys=True)
            try:
                atomic_write(self._entry_path(entry.signature), text)
            except OSError:
                self.path = None

    def _log(self, line: str) -> None:
        """Append one counter line; a failed append turns the store memory-only."""
        if self.path is not None:
            try:
                os.makedirs(self.path, exist_ok=True)
                with open(os.path.join(self.path, COUNTERS_FILENAME), "a", encoding="utf-8") as fh:
                    fh.write(line)
            except OSError:
                self.path = None

    def _evict(self) -> None:
        while len(self._entries) > self.max_entries:
            oldest = min(self._entries.values(), key=lambda e: e.last_used)
            del self._entries[oldest.signature]
            if self.path is not None:
                with contextlib.suppress(OSError):
                    os.unlink(self._entry_path(oldest.signature))

    # -- access --------------------------------------------------------------

    def get(self, signature: str) -> CacheEntry | None:
        with self._lock:
            return self._entries.get(signature)

    def put(self, entry: CacheEntry) -> None:
        """Store ``entry``, writing only its own file. A signature that is not
        a plain file name (letters, digits, ``_``, ``-``) raises ValueError."""
        if not _PLAIN_NAME.fullmatch(entry.signature):
            raise ValueError(f"signature {entry.signature!r} is not a plain file name")
        with self._lock:
            self._entries[entry.signature] = entry
            self._write(entry)
            self._evict()

    def record_hit(self, entry: CacheEntry) -> None:
        """Persist one lookup served by ``entry``: rewrite its file with the
        new ``hits``/``last_used`` and log the hit, so that ``cache stats``
        in another process sees it."""
        with self._lock:
            entry.hits += 1
            entry.last_used = time.time()
            self._hits += 1
            self._write(entry)
            self._log("h\n")

    def record_miss(self) -> None:
        """Count a miss: one line appended to the log."""
        with self._lock:
            self._misses += 1
            self._log("m\n")

    def counters(self) -> tuple[int, int]:
        """Cumulative ``(hits, misses)`` logged by every process that shared
        the store (this instance's counts when memory-only)."""
        with self._lock:
            if self.path is None:
                return self._hits, self._misses
            try:
                with open(os.path.join(self.path, COUNTERS_FILENAME), encoding="utf-8") as fh:
                    log = fh.read()
            except OSError:
                return 0, 0
            return log.count("h"), log.count("m")

    def clear(self) -> None:
        """Drop every entry and counter, and remove the store directory."""
        with self._lock:
            self._entries.clear()
            self._hits = 0
            self._misses = 0
            if self.path is not None:
                shutil.rmtree(self.path, ignore_errors=True)

    def entries(self) -> list[CacheEntry]:
        """All entries, most recently used first (for ``cache stats``)."""
        with self._lock:
            return sorted(
                self._entries.values(), key=lambda e: e.last_used, reverse=True
            )

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
