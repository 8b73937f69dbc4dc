"""Batched scalar-identical primitives over flat parameter arrays.

Two building blocks the batch consumers share, each a documented
bit-identical rewrite of its scalar reference:

* :func:`utilization_bounds_batch` — per task set, the pair
  ``(total utilization, Liu–Layland bound)`` that the Theorem I.1/I.2
  admission tests compare.  The reduction is ``math.fsum`` *by spec*:
  fsum is exactly rounded and therefore order-independent, so summing
  the cached utilization-descending array gives the same bits as
  ``TaskSet.total_utilization`` summing input order.  Acceleration
  applies to the parameter gather, not the reduction.
* :func:`dbf_demand_batch` — per task set, the demand bound function at
  a shared grid of interval lengths, replaying
  :func:`repro.core.dbf.dbf_taskset`'s profile arithmetic
  (scale-aware ``tol_floor((t - d)/p) + 1`` jobs, ``lt(t, d)`` deadline
  gate, fsum) element-for-element.

Both accept the same ``backend`` knob as the batch tests; ``scalar``
calls the reference functions, ``numpy`` only changes how the per-task
parameter walk is executed, never a floating-point result.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ..core.bounds import liu_layland_bound
from ..core.dbf import dbf_taskset
from ..core.model import EPS, TaskSet
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

    Row ``i`` equals ``[dbf_taskset(tasksets[i].tasks, t) for t in
    times]`` bit-for-bit on every backend.
    """
    resolved = resolve_backend(backend)
    ts_list = list(tasksets)
    grid = [float(t) for t in times]
    if resolved == "scalar":
        return [
            [dbf_taskset(ts.tasks, t) for t in grid] for ts in ts_list
        ]
    out: list[list[float]] = []
    for ts in ts_list:
        if not len(ts):
            out.append([0.0] * len(grid))
            continue
        dl = np.array([t.deadline for t in ts.tasks], dtype=float)
        pr = np.array([t.period for t in ts.tasks], dtype=float)
        wc = np.array([t.wcet for t in ts.tasks], dtype=float)
        row = []
        for t in grid:
            # _DemandProfile.dbf, replayed on local arrays
            q = (t - dl) / pr
            jobs = np.floor(q + EPS * np.maximum(1.0, np.abs(q))) + 1.0
            tol = EPS * np.maximum(1.0, np.maximum(abs(t), np.abs(dl)))
            demand = np.where(dl > t + tol, 0.0, jobs * wc)
            row.append(math.fsum(demand))
        out.append(row)
    return out
