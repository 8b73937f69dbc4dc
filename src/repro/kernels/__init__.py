"""Array-backed batch feasibility kernels.

A second evaluation backend for the paper's tests: instead of running
:func:`repro.core.feasibility.feasibility_test` instance-at-a-time over
Task/TaskSet objects, batches of instances are evaluated over cached
flat buffers (stdlib ``array`` layout) — and the results are
*bit-identical* to the scalar path, an invariant enforced by the
``backend-equivalence`` oracle check and the property suite.  A shard
wide enough for vectorizing to pay
(:func:`repro.kernels.batch.takes_lockstep`) runs in numpy lockstep
over ndarray views of the buffers; every narrower shard, such as a
lone instance of any size, walks flat Python lists
(:func:`repro.kernels.flat.solve_shard_flat`), and numpy is imported
by the first shard that takes the lockstep.

Public surface:

* :func:`test_feasibility_batch` / :func:`first_fit_batch` — batch
  counterparts of the scalar test and partitioner;
* :data:`BACKENDS` / :func:`resolve_backend` — the ``scalar`` /
  ``numpy`` backend registry;
* :data:`BATCH_TESTS` — the admission tests :func:`first_fit_batch`
  evaluates in batch (``edf``, ``rms-ll``);
* :func:`kernel_cache_stats` / :func:`reset_kernel_caches` — the
  buffer cache counters.

See ``docs/kernels.md`` for the design and the bit-identity argument.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .backends import BACKENDS, resolve_backend
    from .batch import BATCH_TESTS, Instance, first_fit_batch, test_feasibility_batch
    from .buffers import KernelCacheStats, kernel_cache_stats


def reset_kernel_caches() -> None:
    """Drop every kernel-layer cache and zero the counters.

    Covers the buffers layer (task-set / platform entries), the
    Liu–Layland tables, and — when a shard has taken the lockstep —
    its shard-matrix and index-vector caches.
    """
    import sys

    from . import batch, buffers

    buffers.reset_kernel_caches()
    batch._LL_TABLES.clear()
    lockstep = sys.modules.get(__name__ + ".lockstep")
    if lockstep is not None:
        lockstep.reset_lockstep_caches()


__all__ = [
    "BACKENDS",
    "BATCH_TESTS",
    "Instance",
    "KernelCacheStats",
    "first_fit_batch",
    "kernel_cache_stats",
    "reset_kernel_caches",
    "resolve_backend",
    "test_feasibility_batch",
]

#: Names resolved on first access, so the ``repro`` argument parser takes
#: :data:`BACKENDS` without loading the kernels or ``repro.core``.
__getattr__ = lazy_exports(
    __name__,
    {
        "BACKENDS": "backends",
        "resolve_backend": "backends",
        "BATCH_TESTS": "batch",
        "Instance": "batch",
        "first_fit_batch": "batch",
        "test_feasibility_batch": "batch",
        "KernelCacheStats": "buffers",
        "kernel_cache_stats": "buffers",
    },
)
