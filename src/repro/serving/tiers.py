"""TieredCache: the compile service's read view of a schedule cache.

A :class:`~repro.cache.cache.ScheduleCache` holds exactly one
signature -> entry map. The service reads that map on every request, so
its reads must be cheap: :meth:`TieredCache.lookup` is a *non-recording*
read (:meth:`~repro.cache.cache.ScheduleCache.peek`) — no hit counter, no
recency refresh, no store write. A hit is served as source ``"hot"`` (or
``"bucket"`` when found under the bucketed signature); the per-request
``serve.hits.*`` counters in the service's telemetry registry count them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.cache.cache import ScheduleCache

if TYPE_CHECKING:  # pragma: no cover
    from repro.cache.store import CacheEntry

__all__ = ["TieredCache"]


class TieredCache:
    """Non-recording reads and write-through stores over a ScheduleCache.

    Args:
        cache: The persistent (or memory-only) schedule cache; ``None``
            builds a memory-only one.
    """

    def __init__(self, cache: ScheduleCache | None = None) -> None:
        self.cache = cache if cache is not None else ScheduleCache(path=None)

    def signature_for(self, chain, gpu, variant: str = "mcfuser") -> str:
        return self.cache.signature_for(chain, gpu, variant)

    def lookup(self, signature: str) -> "CacheEntry | None":
        """The entry stored under a precomputed signature, read without
        recording anything (``None`` on a miss)."""
        return self.cache.peek(signature)

    def put(self, chain, gpu, report, signature: str | None = None) -> "CacheEntry | None":
        """Store a tuned report in the underlying cache (see
        :meth:`~repro.cache.cache.ScheduleCache.put`); ``signature``
        overrides the exact workload key (bucketed entries are stored
        under their bucket-generic signature)."""
        return self.cache.put(chain, gpu, report, signature=signature)
