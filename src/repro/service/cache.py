"""Bounded, thread-safe LRU cache for canonical-instance verdicts.

The service keys verdicts by :func:`repro.io_.serialize.instance_digest`,
so any permutation/renaming of an already-answered instance is a cache
hit.  The cache stores whatever value it is given and never copies it;
a shard stores each verdict as immutable pickled ``bytes`` (see
:class:`~repro.service.shard.ShardCore`), and the front end decodes a
private copy per response, so no caller can reach a cached payload.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any

__all__ = ["CacheStats", "LRUCache"]

_MISSING = object()


@dataclass(frozen=True)
class CacheStats:
    """Point-in-time cache counters (monotonic except ``size``)."""

    hits: int
    misses: int
    evictions: int
    size: int
    capacity: int

    @property
    def hit_ratio(self) -> float:
        """Hits over lookups (0.0 before the first lookup)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> dict[str, Any]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "size": self.size,
            "capacity": self.capacity,
            "hit_ratio": self.hit_ratio,
        }


class LRUCache:
    """Least-recently-*used* eviction under a single lock.

    All operations are O(1); ``get`` refreshes recency, ``put`` evicts
    the stalest entry once ``capacity`` is exceeded.  Counter updates
    happen under the same lock as the data, so stats are consistent.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self._capacity = capacity
        self._data: OrderedDict[Any, Any] = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def get(self, key: Any, default: Any = None) -> Any:
        """Value for ``key`` (marking it most-recent), else ``default``."""
        with self._lock:
            value = self._data.get(key, _MISSING)
            if value is _MISSING:
                self._misses += 1
                return default
            self._data.move_to_end(key)
            self._hits += 1
            return value

    def put(self, key: Any, value: Any) -> None:
        """Insert/refresh ``key``, evicting the LRU entry if over capacity."""
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
                self._data[key] = value
                return
            self._data[key] = value
            if len(self._data) > self._capacity:
                self._data.popitem(last=False)
                self._evictions += 1

    def clear(self) -> None:
        """Drop all entries (counters are preserved)."""
        with self._lock:
            self._data.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def __contains__(self, key: Any) -> bool:
        """Presence probe; does not touch recency or hit/miss counters."""
        with self._lock:
            return key in self._data

    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                size=len(self._data),
                capacity=self._capacity,
            )
