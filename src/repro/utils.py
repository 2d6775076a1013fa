"""Small shared utilities: deterministic hashing, seeded RNG, table formatting,
atomic file writes, and the process-wide memos.

Everything here is dependency-free (stdlib + numpy) and used across all
subpackages. Determinism matters: the GPU simulator derives measurement
jitter from :func:`stable_hash` so that repeated "measurements" of the same
kernel are reproducible across processes (python's builtin ``hash`` is
salted per process and must not be used).
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import math
import os
import threading
from collections.abc import Hashable, Iterable, Sequence

import numpy as np

__all__ = [
    "stable_hash",
    "unit_jitter",
    "rng_for",
    "ceil_div",
    "prod",
    "geomean",
    "fmt_time",
    "fmt_bytes",
    "format_table",
    "pearson",
    "atomic_write",
    "HashedTuple",
    "LRUCache",
    "process_memo",
    "clear_memos",
]


def stable_hash(*parts: object) -> int:
    """Return a 64-bit hash of ``parts`` that is stable across processes.

    Parts are stringified with ``repr``; floats are rounded to 12 significant
    digits first so that values that survived a round-trip through
    arithmetic still hash identically.
    """
    h = hashlib.blake2b(digest_size=8)
    for part in parts:
        if isinstance(part, float):
            part = float(f"{part:.12g}")
        h.update(repr(part).encode())
        h.update(b"\x1f")
    return int.from_bytes(h.digest(), "little")


def unit_jitter(*parts: object) -> float:
    """Deterministic pseudo-random value in ``[-1, 1]`` derived from ``parts``."""
    return stable_hash(*parts) / float(2**63) - 1.0


def rng_for(*parts: object) -> np.random.Generator:
    """A numpy Generator seeded deterministically from ``parts``."""
    return np.random.default_rng(stable_hash(*parts))


def ceil_div(a: int, b: int) -> int:
    """Integer ceiling division; ``b`` must be positive."""
    if b <= 0:
        raise ValueError(f"ceil_div divisor must be positive, got {b}")
    return -(-a // b)


def prod(values: Iterable[int | float]) -> int | float:
    """Product of an iterable (1 for empty input)."""
    out: int | float = 1
    for v in values:
        out *= v
    return out


def geomean(values: Sequence[float]) -> float:
    """Geometric mean of positive values (nan for empty input)."""
    if not values:
        return float("nan")
    return float(math.exp(sum(math.log(v) for v in values) / len(values)))


def fmt_time(seconds: float) -> str:
    """Human-readable duration: 12.3us / 4.56ms / 7.89s / 2.1h."""
    if seconds != seconds:  # nan
        return "n/a"
    if seconds < 1e-3:
        return f"{seconds * 1e6:.2f}us"
    if seconds < 1.0:
        return f"{seconds * 1e3:.2f}ms"
    if seconds < 3600.0:
        return f"{seconds:.2f}s"
    return f"{seconds / 3600.0:.2f}h"


def fmt_bytes(nbytes: float) -> str:
    """Human-readable byte count (binary units)."""
    value = float(nbytes)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if abs(value) < 1024.0 or unit == "GiB":
            return f"{value:.1f}{unit}"
        value /= 1024.0
    return f"{value:.1f}GiB"


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Render an aligned plain-text table (used by the experiment drivers)."""
    cells = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * w for w in widths),
    ]
    for row in cells:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Pearson correlation coefficient (nan if degenerate)."""
    if len(xs) != len(ys):
        raise ValueError("pearson needs equal-length sequences")
    if len(xs) < 2:
        return float("nan")
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    sx = x.std()
    sy = y.std()
    if sx == 0.0 or sy == 0.0:
        return float("nan")
    return float(((x - x.mean()) * (y - y.mean())).mean() / (sx * sy))


#: Keeps two threads writing one path from ever sharing a temp file.
_tmp_seq = itertools.count()


def atomic_write(path: str | os.PathLike, text: str) -> None:
    """Write ``text`` to ``path`` so readers see the old file or the new one.

    Creates the parent directory, writes a temp file beside ``path`` (named
    with pid, thread id and a counter) and ``os.replace``-s it into place.
    On any error the temp file is unlinked and the error propagates.
    """
    path = os.fspath(path)
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = f"{path}.tmp.{os.getpid()}.{threading.get_ident()}.{next(_tmp_seq)}"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


class HashedTuple(tuple):
    """A tuple that hashes its items once, at construction.

    Equal to (and hashing like) the plain tuple of the same items, so memos
    keyed either way agree; for keys hashed on every request whose items
    hash in Python (frozen dataclasses). The idea of ``functools._HashedSeq``.
    """

    def __new__(cls, items: Iterable) -> "HashedTuple":
        self = super().__new__(cls, items)
        self._hash = tuple.__hash__(self)
        return self

    def __hash__(self) -> int:
        return self._hash


# The fields of one link in LRUCache's ring.
_PREV, _NEXT, _KEY, _VALUE = 0, 1, 2, 3


class LRUCache:
    """Bounded, locked key -> value map with least-recently-used eviction.

    ``get`` refreshes recency (a miss is ``None``); inserting beyond
    ``capacity`` evicts the least recently used entry; capacity 0 disables
    the map. A memo's miss is computed outside the lock, so concurrent
    misses on one key may both compute it.

    Entries are ``[prev, next, key, value]`` links in a ring around a root
    link, oldest after the root, indexed by one dict (as in CPython's
    pure-Python ``lru_cache``): a hit is one dict lookup plus a relink, so
    it hashes its key once.
    """

    def __init__(self, capacity: int = 128) -> None:
        if capacity < 0:
            raise ValueError(f"LRU capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self._links: dict[Hashable, list] = {}
        self._root: list = []
        self._root[:] = [self._root, self._root, None, None]
        self._lock = threading.Lock()

    def _relink_newest(self, link: list) -> None:
        """Move ``link`` from its place in the ring to just before the root."""
        prev, nxt = link[_PREV], link[_NEXT]
        prev[_NEXT] = nxt
        nxt[_PREV] = prev
        root = self._root
        last = root[_PREV]
        last[_NEXT] = root[_PREV] = link
        link[_PREV] = last
        link[_NEXT] = root

    def get(self, key: Hashable):
        with self._lock:
            link = self._links.get(key)
            if link is None:
                return None
            self._relink_newest(link)
            return link[_VALUE]

    def put(self, key: Hashable, value):
        """Store ``value`` at ``key`` and return it."""
        if self.capacity == 0:
            return value
        with self._lock:
            root = self._root
            last = root[_PREV]
            new = [last, root, key, value]
            link = self._links.setdefault(key, new)
            if link is new:
                last[_NEXT] = root[_PREV] = link
                if len(self._links) > self.capacity:
                    oldest = root[_NEXT]
                    root[_NEXT] = oldest[_NEXT]
                    oldest[_NEXT][_PREV] = root
                    del self._links[oldest[_KEY]]
            else:
                link[_VALUE] = value
                self._relink_newest(link)
        return value

    def clear(self) -> None:
        with self._lock:
            for link in self._links.values():
                link.clear()  # break the ring's cycles: values are freed now, not at GC
            self._links.clear()
            self._root[:] = [self._root, self._root, None, None]

    def __len__(self) -> int:
        return len(self._links)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._links


#: Every process-wide memo: an :class:`LRUCache` or an ``lru_cache`` function.
PROCESS_MEMOS: list = []


def process_memo(memo):
    """Register ``memo`` with :func:`clear_memos`; returns it."""
    PROCESS_MEMOS.append(memo)
    return memo


def clear_memos() -> None:
    """Empty every process-wide memo. Memo values are pure, so this changes
    no result, only what later lookups recompute."""
    for memo in PROCESS_MEMOS:
        (memo.clear if isinstance(memo, LRUCache) else memo.cache_clear)()
