"""Batch feasibility evaluation — the public ``repro.kernels`` API.

:func:`test_feasibility_batch` is the batch counterpart of
:func:`repro.core.feasibility.feasibility_test` and
:func:`first_fit_batch` of
:func:`repro.core.partition.first_fit_partition`: same semantics, same
validation, *bit-identical* reports — but evaluated shard-at-a-time over
flat preallocated buffers instead of instance-at-a-time over objects.

A **shard** is the maximal sub-batch sharing one (task count, machine
speed vector) shape; instances are grouped automatically and results
scattered back to input order, so callers can mix shapes freely.  Within
a shard the ``numpy`` backend runs every instance's first-fit step as
one vectorized operation (``edf-dbf`` walks the shard through the
sequential QPA loop in :mod:`repro.kernels.dbfloop`).  Empty task sets
take the scalar path (nothing to batch).

Backend choice follows :func:`repro.kernels.backends.resolve_backend`
(``None`` means ``numpy``).  ``scalar`` is the reference loop itself, so
equivalence tests can run both through one entry point.
"""

from __future__ import annotations

from typing import Callable, Sequence

from ..core.bounds import liu_layland_bound
from ..core.certificates import partitioned_infeasibility_certificate
from ..core.feasibility import (
    _ALPHAS,
    _TEST_NAME,
    Adversary,
    FeasibilityReport,
    Scheduler,
    feasibility_test,
)
from ..core.model import Platform, TaskSet
from ..core.partition import PartitionResult, first_fit_partition
from .backends import resolve_backend
from .batchmeta import ReportMeta
from .buffers import TasksetEntry, platform_entry, taskset_entry
from .dbfloop import RawResult, solve_shard_dbf

__all__ = ["BATCH_TESTS", "Instance", "test_feasibility_batch", "first_fit_batch"]

#: One batch element: the task set and the platform to place it on.
Instance = tuple[TaskSet, Platform]

#: Admission tests :func:`first_fit_batch` evaluates in batch: the
#: paper's O(1)-state pair plus the exact constrained-deadline QPA walk
#: (see ``dbfloop``).
BATCH_TESTS = ("edf", "rms-ll", "edf-dbf")

#: The error every entry point raises on a constrained task set reaching
#: a theorem test — one string, so service error bodies cannot drift
#: between the scalar and kernel paths.
_IMPLICIT_ERROR = (
    "the theorem tests require implicit deadlines (the paper's model); "
    "for constrained deadlines partition with the 'edf-dbf' admission "
    "test instead"
)

_LL_TABLES: dict[int, list[float]] = {}
_LL_TABLES_MAX = 64


def _ll_table(n: int) -> list[float]:
    """``liu_layland_bound`` tabulated for counts ``0..n+1`` (cached)."""
    tab = _LL_TABLES.get(n)
    if tab is None:
        tab = [liu_layland_bound(c) for c in range(n + 2)]
        if len(_LL_TABLES) >= _LL_TABLES_MAX:
            _LL_TABLES.pop(next(iter(_LL_TABLES)))
        _LL_TABLES[n] = tab
    return tab


def _assemble(
    raw: RawResult,
    ent: TasksetEntry,
    platform: Platform,
    m: int,
    alpha: float,
    test_name: str,
    meta: ReportMeta | None,
) -> PartitionResult | FeasibilityReport:
    """Expand one ``dbfloop`` raw triple into the scalar result shape."""
    chosen, failed_k, loads = raw
    order = ent.order
    success = failed_k < 0
    assignment: list[int | None] = [None] * len(order)
    machine_tasks: list[list[int]] = [[] for _ in range(m)]
    for k, j in enumerate(chosen):
        ti = order[k]
        assignment[ti] = j
        machine_tasks[j].append(ti)
    result = PartitionResult(
        success=success,
        assignment=tuple(assignment),
        machine_tasks=tuple(tuple(g) for g in machine_tasks),
        loads=tuple(loads),
        failed_task=None if success else order[failed_k],
        alpha=alpha,
        test_name=test_name,
        order=order,
    )
    if meta is None:
        return result
    certificate = None
    if not success:
        certificate = partitioned_infeasibility_certificate(
            ent.taskset, platform, result
        )
    return FeasibilityReport(
        accepted=success,
        scheduler=meta.scheduler,  # type: ignore[arg-type]
        adversary=meta.adversary,  # type: ignore[arg-type]
        alpha=alpha,
        theorem=meta.theorem,
        partition=result,
        certificate=certificate,
    )


def _run_shard(
    entries: list[TasksetEntry],
    platforms: list[Platform],
    n: int,
    speeds: tuple[float, ...],
    test_name: str,
    rms: bool,
    alpha: float,
    meta: ReportMeta | None,
) -> list:
    """Evaluate one uniform (task count, speeds) shard."""
    pfe = platform_entry(speeds, alpha)
    if test_name == "edf-dbf":
        # QPA admission is a sequential fixed-point iteration, so it runs
        # as a per-instance demand walk, not in lockstep; verdicts are
        # memoized jointly with the scalar path
        m = len(speeds)
        raw = solve_shard_dbf(entries, pfe)
        return [
            _assemble(raw[t], entries[t], platforms[t], m, alpha, test_name, meta)
            for t in range(len(entries))
        ]
    from . import lockstep  # deferred: only lockstep shards need it

    ll_tab = _ll_table(n) if rms else []
    return lockstep.evaluate_shard(
        entries, platforms, pfe, alpha, rms, test_name, ll_tab, meta
    )


def _evaluate_sharded(
    instances: list[Instance],
    test_name: str,
    alpha: float,
    meta: ReportMeta | None,
    scalar_one: Callable[[TaskSet, Platform], object],
) -> list:
    """Shard by (task count, speeds), run the kernel, scatter back."""
    rms = test_name == "rms-ll"
    # uniform fast path: one platform object, one task count (the shape
    # of campaign blocks and the service's per-shard batches)
    ts0, pf0 = instances[0]
    n0 = len(ts0)
    if n0 and all(p is pf0 and len(t) == n0 for t, p in instances):
        entries = [taskset_entry(ts) for ts, _ in instances]
        platforms = [pf0] * len(instances)
        return _run_shard(
            entries,
            platforms,
            n0,
            pf0.speeds,
            test_name,
            rms,
            alpha,
            meta,
        )
    shards: dict[tuple[int, tuple[float, ...]], list[int]] = {}
    last_pf: Platform | None = None
    last_speeds: tuple[float, ...] = ()
    for i, (ts, pf) in enumerate(instances):
        if pf is not last_pf:  # batches overwhelmingly share one platform
            last_pf = pf
            last_speeds = pf.speeds
        shards.setdefault((len(ts), last_speeds), []).append(i)
    out: list = [None] * len(instances)
    for (n, speeds), idxs in shards.items():
        if n == 0:
            # nothing to batch; the scalar path is its own reference
            for i in idxs:
                out[i] = scalar_one(*instances[i])
            continue
        results = _run_shard(
            [taskset_entry(instances[i][0]) for i in idxs],
            [instances[i][1] for i in idxs],
            n,
            speeds,
            test_name,
            rms,
            alpha,
            meta,
        )
        for t, i in enumerate(idxs):
            out[i] = results[t]
    return out


def test_feasibility_batch(
    instances: Sequence[Instance],
    scheduler: Scheduler = "edf",
    adversary: Adversary = "partitioned",
    *,
    alpha: float | None = None,
    backend: str | None = None,
) -> list[FeasibilityReport]:
    """Run one theorem's feasibility test over a batch of instances.

    Semantically ``[feasibility_test(ts, pf, scheduler, adversary,
    alpha=alpha) for ts, pf in instances]`` — every report (verdict,
    partition, loads, certificate) is bit-identical to that loop — but
    instances sharing a (task count, speed vector) shape are evaluated
    together over flat buffers by the resolved backend.

    Parameters
    ----------
    alpha:
        Override the theorem's speed augmentation (must be positive).
    backend:
        ``scalar`` / ``numpy``; ``None`` means ``numpy``.
    """
    items = list(instances)
    try:
        a, theorem = _ALPHAS[(scheduler, adversary)]
    except KeyError:
        raise ValueError(
            f"unknown combination scheduler={scheduler!r} "
            f"adversary={adversary!r}"
        ) from None
    if alpha is not None:
        if alpha <= 0:
            raise ValueError("alpha must be positive")
        a = alpha
    # validate the whole batch up front, before any backend evaluates
    # anything: a constrained task set must fail identically (same
    # exception, same message, no partial work) on every backend
    for ts, _ in items:
        if not ts.is_implicit:
            raise ValueError(_IMPLICIT_ERROR)
    resolved = resolve_backend(backend)

    def scalar_one(ts: TaskSet, pf: Platform) -> FeasibilityReport:
        return feasibility_test(ts, pf, scheduler, adversary, alpha=alpha)

    if resolved == "scalar" or not items:
        return [scalar_one(ts, pf) for ts, pf in items]
    meta = ReportMeta(scheduler=scheduler, adversary=adversary, theorem=theorem)
    return _evaluate_sharded(items, _TEST_NAME[scheduler], a, meta, scalar_one)


def first_fit_batch(
    instances: Sequence[Instance],
    test: str = "edf",
    *,
    alpha: float = 1.0,
    backend: str | None = None,
) -> list[PartitionResult]:
    """Run the §III first-fit partitioner over a batch of instances.

    Semantically ``[first_fit_partition(ts, pf, test, alpha=alpha) for
    ts, pf in instances]`` with bit-identical results, restricted to the
    admission tests the kernels implement: the O(1)-state pair (``edf``,
    ``rms-ll``) and the exact constrained-deadline QPA walk
    (``edf-dbf``); other admission tests keep the scalar partitioner.
    """
    if test not in BATCH_TESTS:
        raise ValueError(
            f"first_fit_batch supports the admission tests "
            f"{', '.join(repr(t) for t in BATCH_TESTS)}, not {test!r}; "
            f"use repro.core.partition.partition for other tests"
        )
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    items = list(instances)
    resolved = resolve_backend(backend)

    def scalar_one(ts: TaskSet, pf: Platform) -> PartitionResult:
        return first_fit_partition(ts, pf, test, alpha=alpha)

    if resolved == "scalar" or not items:
        return [scalar_one(ts, pf) for ts, pf in items]
    return _evaluate_sharded(items, test, alpha, None, scalar_one)
