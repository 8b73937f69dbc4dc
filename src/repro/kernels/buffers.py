"""Structure-of-arrays batch buffers and their bounded caches.

Per task set and per platform, the batch quantities live in flat stdlib
``array`` storage that the numpy backend reads through zero-copy
``np.frombuffer`` views, so this module itself stays numpy-free.

Two caches make repeat batches cheap; both are bounded LRU with
hit/miss/eviction counters (mirroring the ``core/dbf.py`` profile cache
discipline):

* **task-set entries** — per :class:`~repro.core.model.TaskSet`:
  utilizations sorted non-increasing plus the processing order, keyed by
  object identity (a strong reference is held, so an id cannot be reused
  while its entry is live);
* **platform entries** — per (speeds, alpha): the alpha-scaled speed
  row and its ``max(1, ·)`` companion for the tolerance term, keyed by
  *value* so equal-speed platforms share one entry across objects.

Utilizations are computed via the same ``Task.utilization`` property the
scalar path reads (one division per task), so the buffered values are
bit-identical to what ``MachineState.admits`` sees.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Any

from ..core.model import TaskSet

__all__ = [
    "TasksetEntry",
    "PlatformEntry",
    "KernelCacheStats",
    "taskset_entry",
    "platform_entry",
    "kernel_cache_stats",
    "reset_kernel_caches",
]


@dataclass(frozen=True)
class TasksetEntry:
    """Sorted per-task-set arrays."""

    taskset: TaskSet
    #: utilizations in non-increasing order (stable on ties)
    u_sorted: array
    #: original index of the task at each sorted position
    order: tuple[int, ...]
    #: ``order`` again as a flat int64 array (zero-copy ndarray view)
    order_arr: array
    #: cached ``taskset.is_implicit`` (validated per batch, not per walk)
    implicit: bool
    #: lazily memoized zero-copy ndarray views of the two arrays above
    #: (set by the numpy backend via object.__setattr__; this module
    #: stays numpy-free)
    u_np: Any = field(default=None, compare=False)
    order_np: Any = field(default=None, compare=False)


@dataclass(frozen=True)
class PlatformEntry:
    """Alpha-scaled platform rows (machines speed-ascending)."""

    #: ``alpha * speed`` per machine — the EDF capacity / RMS bound factor
    scaled: array
    #: ``max(1.0, alpha * speed)`` — precomputed tolerance magnitude
    scaled_max1: array
    #: lazily memoized admission-crossover thresholds (numpy backend
    #: only; see ``lockstep._crossover``): per-machine EDF row, and a
    #: dict ``n -> (n+2)*m`` flat table for RMS count-dependent caps
    thr_edf_np: Any = field(default=None, compare=False)
    thr_rms: Any = field(default=None, compare=False)


@dataclass(frozen=True)
class KernelCacheStats:
    """Aggregate counters over the kernel layer's caches."""

    hits: int
    misses: int
    evictions: int
    size: int
    capacity: int

    @property
    def hit_ratio(self) -> float:
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def as_dict(self) -> dict[str, float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "size": self.size,
            "capacity": self.capacity,
            "hit_ratio": self.hit_ratio,
        }


_TS_CACHE: dict[int, TasksetEntry] = {}
_TS_CACHE_MAX = 4096
_PF_CACHE: dict[tuple[tuple[float, ...], float], PlatformEntry] = {}
_PF_CACHE_MAX = 512
_HITS = 0
_MISSES = 0
_EVICTIONS = 0


def taskset_entry(taskset: TaskSet) -> TasksetEntry:
    """The cached sorted-utilization entry for ``taskset``."""
    global _HITS, _MISSES, _EVICTIONS
    key = id(taskset)
    ent = _TS_CACHE.get(key)
    if ent is not None and ent.taskset is taskset:
        _HITS += 1
        if len(_TS_CACHE) > _TS_CACHE_MAX // 2:
            del _TS_CACHE[key]  # refresh LRU recency (matters near capacity)
            _TS_CACHE[key] = ent
        return ent
    _MISSES += 1
    u = [t.utilization for t in taskset.tasks]
    order = sorted(range(len(u)), key=u.__getitem__, reverse=True)
    ent = TasksetEntry(
        taskset=taskset,
        u_sorted=array("d", (u[i] for i in order)),
        order=tuple(order),
        order_arr=array("q", order),
        implicit=taskset.is_implicit,
    )
    if len(_TS_CACHE) >= _TS_CACHE_MAX:
        _TS_CACHE.pop(next(iter(_TS_CACHE)))
        _EVICTIONS += 1
    _TS_CACHE[key] = ent
    return ent


def platform_entry(speeds: tuple[float, ...], alpha: float) -> PlatformEntry:
    """The cached alpha-scaled rows for a speed vector."""
    global _HITS, _MISSES, _EVICTIONS
    key = (speeds, alpha)
    ent = _PF_CACHE.get(key)
    if ent is not None:
        _HITS += 1
        del _PF_CACHE[key]
        _PF_CACHE[key] = ent
        return ent
    _MISSES += 1
    scaled = array("d", (s * alpha for s in speeds))
    ent = PlatformEntry(
        scaled=scaled,
        scaled_max1=array("d", (s if s > 1.0 else 1.0 for s in scaled)),
    )
    if len(_PF_CACHE) >= _PF_CACHE_MAX:
        _PF_CACHE.pop(next(iter(_PF_CACHE)))
        _EVICTIONS += 1
    _PF_CACHE[key] = ent
    return ent


def kernel_cache_stats() -> KernelCacheStats:
    """Counters aggregated over the task-set and platform caches."""
    return KernelCacheStats(
        hits=_HITS,
        misses=_MISSES,
        evictions=_EVICTIONS,
        size=len(_TS_CACHE) + len(_PF_CACHE),
        capacity=_TS_CACHE_MAX + _PF_CACHE_MAX,
    )


def reset_kernel_caches() -> None:
    """Drop every cached entry and zero the counters (test isolation)."""
    global _HITS, _MISSES, _EVICTIONS
    _TS_CACHE.clear()
    _PF_CACHE.clear()
    _HITS = _MISSES = _EVICTIONS = 0

