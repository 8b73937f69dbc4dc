"""Array-backed batch feasibility kernels.

A second evaluation backend for the paper's tests: instead of running
:func:`repro.core.feasibility.feasibility_test` instance-at-a-time over
Task/TaskSet objects, batches of instances are evaluated by numpy over
cached flat buffers (stdlib ``array`` layout, viewed as ndarrays) — and
the results are *bit-identical* to the scalar path, an invariant
enforced by the ``backend-equivalence`` oracle check and the property
suite.

Public surface:

* :func:`test_feasibility_batch` / :func:`first_fit_batch` — batch
  counterparts of the scalar test and partitioner;
* :func:`utilization_bounds_batch` / :func:`dbf_demand_batch` — batched
  scalar-identical primitives;
* :data:`BACKENDS` / :func:`resolve_backend` — the ``scalar`` /
  ``numpy`` backend registry;
* :data:`BATCH_TESTS` — the admission tests :func:`first_fit_batch`
  evaluates in batch;
* :func:`kernel_cache_stats` / :func:`reset_kernel_caches` — the
  bounded-LRU buffer cache counters.

See ``docs/kernels.md`` for the design and the bit-identity argument.
"""

from .backends import BACKENDS, resolve_backend
from . import batch as _batch
from . import buffers as _buffers
from .batch import BATCH_TESTS, Instance, first_fit_batch, test_feasibility_batch
from .buffers import KernelCacheStats, kernel_cache_stats
from .primitives import dbf_demand_batch, utilization_bounds_batch


def reset_kernel_caches() -> None:
    """Drop every kernel-layer cache and zero the counters.

    Covers the buffers layer (task-set / platform entries), the
    Liu–Layland tables, and — when the numpy backend has been used —
    the lockstep shard-matrix and index-vector caches.
    """
    import sys

    _buffers.reset_kernel_caches()
    _batch._LL_TABLES.clear()
    lockstep = sys.modules.get(__name__ + ".lockstep")
    if lockstep is not None:
        lockstep.reset_lockstep_caches()

__all__ = [
    "BACKENDS",
    "BATCH_TESTS",
    "Instance",
    "KernelCacheStats",
    "dbf_demand_batch",
    "first_fit_batch",
    "kernel_cache_stats",
    "reset_kernel_caches",
    "resolve_backend",
    "test_feasibility_batch",
    "utilization_bounds_batch",
]
