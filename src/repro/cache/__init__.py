"""Compilation cache: persistent schedule reuse.

MCFuser's headline is *rapid* tuning; this package makes repeated tuning
free. The pieces:

* :mod:`repro.cache.signature` — content hashes over (op chain, shapes,
  dtype, GPU spec, variant); the cache key everything below shares.
* :mod:`repro.cache.store`     — entry format, in-memory LRU, and the
  on-disk store (one versioned JSON file per entry) with eviction and
  per-entry corruption recovery.
* :mod:`repro.cache.cache`     — :class:`ScheduleCache`, the two-level
  front door the tuner consults before any enumeration.

Batch warmup (``repro cache warmup``, ``Session.tune_all``) is not a cache
feature: it runs through the compile service
(:mod:`repro.serving.service`), whose coalescing and worker pool tune each
distinct signature once.

See ``docs/architecture.md`` for where the cache sits in the pipeline.
"""

from repro.cache.cache import CacheStats, ScheduleCache, default_cache, default_cache_dir
from repro.cache.signature import (
    SIGNATURE_VERSION,
    chain_fingerprint,
    gpu_fingerprint,
    schedule_signature,
    workload_signature,
)
from repro.cache.store import SCHEMA_VERSION, CacheDecodeError, CacheEntry, PersistentStore

__all__ = [
    "SIGNATURE_VERSION",
    "SCHEMA_VERSION",
    "chain_fingerprint",
    "gpu_fingerprint",
    "workload_signature",
    "schedule_signature",
    "CacheDecodeError",
    "CacheEntry",
    "PersistentStore",
    "CacheStats",
    "ScheduleCache",
    "default_cache",
    "default_cache_dir",
]
