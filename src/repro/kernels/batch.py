"""Batch feasibility evaluation — the public ``repro.kernels`` API.

:func:`test_feasibility_batch` is the batch counterpart of
:func:`repro.core.feasibility.feasibility_test` and
:func:`first_fit_batch` of
:func:`repro.core.partition.first_fit_partition`: same semantics, same
validation, *bit-identical* reports — but evaluated shard-at-a-time over
flat preallocated buffers instead of instance-at-a-time over objects.

A **shard** is the maximal sub-batch sharing one (task count, machine
speed vector) shape; instances are grouped automatically and results
scattered back to input order, so callers can mix shapes freely.  The
``numpy`` backend picks an arm per shard.  A shard wide enough for
vectorizing to pay (:func:`takes_lockstep`: 32 instances or more,
E19's 256 say) runs every instance's first-fit step as one numpy
operation (:mod:`repro.kernels.lockstep`); every narrower shard — a
lone 128 x 64 miss, a batch of eight — walks its instances one at a
time over flat Python lists (:func:`repro.kernels.flat.solve_shard_flat`),
so a process that only sees such shards never imports numpy.

Backend choice follows :func:`repro.kernels.backends.resolve_backend`
(``None`` means ``numpy``).  ``scalar`` is the reference loop itself
(``feasibility_test`` / ``first_fit_partition`` per instance), so
equivalence tests can run both through one entry point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from ..core.bounds import liu_layland_bound
from ..core.certificates import partitioned_infeasibility_certificate
from ..core.feasibility import (
    _ALPHAS,
    _IMPLICIT_ERROR,
    _TEST_NAME,
    Adversary,
    FeasibilityReport,
    Scheduler,
    _first_fit_report,
)
from ..core.model import Platform, TaskSet
from ..core.partition import PartitionResult, first_fit_partition
from .backends import resolve_backend
from .buffers import TasksetEntry, platform_entry, taskset_entries
from .flat import RawResult, solve_shard_flat

__all__ = ["BATCH_TESTS", "Instance", "test_feasibility_batch", "first_fit_batch"]

#: One batch element: the task set and the platform to place it on.
Instance = tuple[TaskSet, Platform]

#: Admission tests :func:`first_fit_batch` evaluates in batch: the
#: paper's O(1)-state pair, the only probes the kernels speed up.
BATCH_TESTS = ("edf", "rms-ll")


@dataclass(frozen=True)
class ReportMeta:
    """Theorem-level fields every report of one batch call shares."""

    scheduler: str
    adversary: str
    theorem: str


#: A lockstep call pays a fixed cost plus ~15 numpy dispatches per
#: first-fit step, shared by the shard's width, and its first use imports
#: numpy (~14 MB, ~0.13 s); the flat loop pays per instance, task and
#: machine probed, but a probe there is a few float operations.  So the
#: lockstep needs width before it pays, and about the same width for
#: every measured shape, from 16 x 4 to 128 x 64: it ties the flat loop
#: near 16 instances and wins from 32 (docs/kernels.md, "When the
#: lockstep runs").
LOCKSTEP_MIN_WIDTH = 32


def takes_lockstep(width: int, n: int, m: int) -> bool:
    """Does a shard of ``width`` instances of ``n`` tasks on ``m``
    machines run the ``edf`` / ``rms-ll`` lockstep rather than the flat
    loop?"""
    return width >= LOCKSTEP_MIN_WIDTH


def _always(width: int, n: int, m: int) -> bool:
    return True


def _never(width: int, n: int, m: int) -> bool:
    return False


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
    """Expand one flat-loop raw triple into the scalar result shape."""
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
    alpha: float,
    meta: ReportMeta | None,
    rule: Callable[[int, int, int], bool],
) -> list:
    """Evaluate one uniform (task count, speeds) shard on the arm
    ``rule`` picks: the lockstep, or the flat loop."""
    pfe = platform_entry(speeds, alpha)
    m = len(speeds)
    rms = test_name == "rms-ll"
    ll_tab = _ll_table(n) if rms else []
    # empty task sets have no step to vectorize
    if n and rule(len(entries), n, m):
        from . import lockstep  # deferred: only wide shards need numpy

        return lockstep.evaluate_shard(
            entries, platforms, pfe, alpha, rms, test_name, ll_tab, meta
        )
    raw = solve_shard_flat(entries, pfe, ll_tab, rms)
    return [
        _assemble(raw[t], entries[t], platforms[t], m, alpha, test_name, meta)
        for t in range(len(entries))
    ]


def _shards(
    instances: list[Instance],
) -> list[tuple[int, tuple[float, ...], list[int]]]:
    """Group instance positions by (task count, speeds), first seen first."""
    # uniform fast path: one platform object, one task count (the shape
    # of campaign blocks and the service's per-shard batches)
    ts0, pf0 = instances[0]
    n0 = len(ts0)
    if all(p is pf0 and len(t) == n0 for t, p in instances):
        return [(n0, pf0.speeds, list(range(len(instances))))]
    shards: dict[tuple[int, tuple[float, ...]], list[int]] = {}
    last_pf: Platform | None = None
    last_speeds: tuple[float, ...] = ()
    for i, (ts, pf) in enumerate(instances):
        if pf is not last_pf:  # batches overwhelmingly share one platform
            last_pf = pf
            last_speeds = pf.speeds
        shards.setdefault((len(ts), last_speeds), []).append(i)
    return [(n, speeds, idxs) for (n, speeds), idxs in shards.items()]


def _evaluate_sharded(
    instances: list[Instance],
    test_name: str,
    alpha: float,
    meta: ReportMeta | None,
    rule: Callable[[int, int, int], bool],
) -> list:
    """Shard by (task count, speeds), run each shard, scatter back.

    With ``meta`` (the theorem tests) every instance passes the
    implicit-deadline gate before anything is evaluated: the flag is
    read from the buffer entry, computed in the same walk as the
    utilizations.
    """
    plan = []
    for n, speeds, idxs in _shards(instances):
        entries = taskset_entries([instances[i][0] for i in idxs])
        if meta is not None and not all(e.implicit for e in entries):
            raise ValueError(_IMPLICIT_ERROR)
        plan.append((n, speeds, idxs, entries))
    if len(plan) == 1:
        # one shard holding the whole batch, in input order
        n, speeds, _, entries = plan[0]
        return _run_shard(
            entries,
            [pf for _, pf in instances],
            n,
            speeds,
            test_name,
            alpha,
            meta,
            rule,
        )
    out: list = [None] * len(instances)
    for n, speeds, idxs, entries in plan:
        results = _run_shard(
            entries,
            [instances[i][1] for i in idxs],
            n,
            speeds,
            test_name,
            alpha,
            meta,
            rule,
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
    together over flat buffers by the resolved backend.  A constrained
    task set anywhere in the batch raises ``feasibility_test``'s
    ``ValueError`` before any instance is evaluated.

    Parameters
    ----------
    alpha:
        Override the theorem's speed augmentation (must be positive).
    backend:
        ``scalar`` / ``numpy``; ``None`` means ``numpy``.  On ``numpy`` a
        shard too narrow for the lockstep to pay (:func:`takes_lockstep`)
        runs the flat loop.
    """
    return _theorem_batch(
        instances, scheduler, adversary, alpha, backend, takes_lockstep
    )


def _lockstep_feasibility_batch(
    instances: Sequence[Instance],
    scheduler: Scheduler,
    adversary: Adversary,
    alpha: float | None = None,
) -> list[FeasibilityReport]:
    """:func:`test_feasibility_batch` on ``numpy`` with every non-empty
    shard in lockstep, whatever its width — so the ``backend-equivalence``
    oracle audits the evaluator that narrow shards skip."""
    return _theorem_batch(instances, scheduler, adversary, alpha, "numpy", _always)


def _flat_feasibility_batch(
    instances: Sequence[Instance],
    scheduler: Scheduler,
    adversary: Adversary,
    alpha: float | None = None,
) -> list[FeasibilityReport]:
    """:func:`test_feasibility_batch` on ``numpy`` with every shard on
    the flat loop, whatever its width — its counterpart for the arm that
    wide shards skip."""
    return _theorem_batch(instances, scheduler, adversary, alpha, "numpy", _never)


def _theorem_batch(
    instances: Sequence[Instance],
    scheduler: Scheduler,
    adversary: Adversary,
    alpha: float | None,
    backend: str | None,
    rule: Callable[[int, int, int], bool],
) -> list[FeasibilityReport]:
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

    if resolve_backend(backend) == "scalar" or not items:
        # a constrained set fails identically (same exception, same
        # message, no partial work) on every backend
        if not all(ts.is_implicit for ts, _ in items):
            raise ValueError(_IMPLICIT_ERROR)
        # feasibility_test past its gate: the batch was gated up front
        return [
            _first_fit_report(ts, pf, scheduler, adversary, a, theorem)
            for ts, pf in items
        ]
    meta = ReportMeta(scheduler=scheduler, adversary=adversary, theorem=theorem)
    return _evaluate_sharded(items, _TEST_NAME[scheduler], a, meta, rule)


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
    O(1)-state admission tests of :data:`BATCH_TESTS`; every other test,
    the exact QPA ``edf-dbf`` among them, keeps the scalar partitioner.
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
    if resolve_backend(backend) == "scalar" or not items:
        return [first_fit_partition(ts, pf, test, alpha=alpha) for ts, pf in items]
    return _evaluate_sharded(items, test, alpha, None, takes_lockstep)
