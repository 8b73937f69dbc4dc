"""Batched scalar-identical primitives over flat parameter arrays.

Two building blocks the batch consumers share, each bit-identical to
its scalar reference:

* :func:`utilization_bounds_batch` — per task set, the pair
  ``(total utilization, Liu–Layland bound)`` that the Theorem I.1/I.2
  admission tests compare.  The reduction is ``math.fsum`` *by spec*:
  fsum is exactly rounded and therefore order-independent, so summing
  the cached utilization-descending array gives the same bits as
  ``TaskSet.total_utilization`` summing input order.  Acceleration
  applies to the parameter gather, not the reduction.
* :func:`dbf_demand_batch` — per task set, the demand bound function at
  a shared grid of interval lengths.  Every backend takes the one path,
  :func:`repro.core.dbf.dbf_series`, which builds each row's demand
  profile once; the profile already walks the task parameters as arrays
  (scale-aware ``tol_floor((t - d)/p) + 1`` jobs, ``lt(t, d)`` deadline
  gate, fsum).

Both accept the same ``backend`` knob as the batch tests.  For
:func:`utilization_bounds_batch`, ``scalar`` calls the reference
functions and ``numpy`` only changes how the per-task parameter walk is
executed, never a floating-point result.
"""

from __future__ import annotations

import math
from typing import Sequence

from ..core.bounds import liu_layland_bound
from ..core.dbf import dbf_series
from ..core.model import TaskSet
from .backends import resolve_backend
from .buffers import taskset_entry

__all__ = ["utilization_bounds_batch", "dbf_demand_batch"]


def utilization_bounds_batch(
    tasksets: Sequence[TaskSet],
    *,
    backend: str | None = None,
) -> list[tuple[float, float]]:
    """``(total_utilization, liu_layland_bound(n))`` per task set.

    Bit-identical to ``[(ts.total_utilization,
    liu_layland_bound(len(ts))) for ts in tasksets]`` on every backend.
    """
    resolved = resolve_backend(backend)
    if resolved == "scalar":
        return [
            (ts.total_utilization, liu_layland_bound(len(ts)))
            for ts in tasksets
        ]
    out: list[tuple[float, float]] = []
    for ts in tasksets:
        ent = taskset_entry(ts)
        # fsum is exactly rounded => order-independent, so the sorted
        # buffer sums to the same bits as input order
        out.append((math.fsum(ent.u_sorted), liu_layland_bound(len(ent.order))))
    return out


def dbf_demand_batch(
    tasksets: Sequence[TaskSet],
    times: Sequence[float],
    *,
    backend: str | None = None,
) -> list[list[float]]:
    """Demand bound of each task set at each interval length.

    Row ``i`` is ``[dbf_taskset(tasksets[i].tasks, t) for t in times]``
    on every backend; ``backend`` is only checked for a known name.
    """
    resolve_backend(backend)
    grid = [float(t) for t in times]
    return [dbf_series(ts.tasks, grid) for ts in tasksets]
