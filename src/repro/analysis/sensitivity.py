"""Sensitivity analysis: how much can the workload grow before a verdict flips?

Practical real-time engineering rarely asks only "schedulable?"; it asks
"with how much margin?".  Two standard margins are provided, both defined
against any acceptance predicate (first-fit at some alpha, exact
adversaries, the LP, ...):

* **system scaling margin** — the largest uniform factor by which every
  WCET can be multiplied with the instance still accepted (the inverse of
  the 'breakdown utilization' normalization);
* **per-task slack** — the largest factor for *one* task's WCET, others
  fixed; tasks with the smallest slack are the design's critical tasks.

Like the min-alpha search, the bisection brackets *verified* outcomes
(accept below, reject above) so non-monotone acceptance predicates cannot
produce a wrong answer — only a conservative edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..core.model import Platform, TaskSet
from ..core.partition import first_fit_partition

__all__ = [
    "AcceptancePredicate",
    "ff_acceptance",
    "system_scaling_margin",
    "per_task_slack",
    "critical_tasks",
]

AcceptancePredicate = Callable[[TaskSet], bool]


def ff_acceptance(
    platform: Platform, test: str = "edf", alpha: float = 1.0
) -> AcceptancePredicate:
    """Acceptance predicate: first-fit succeeds on ``platform``."""

    def accept(taskset: TaskSet) -> bool:
        return first_fit_partition(taskset, platform, test, alpha=alpha).success

    return accept


def _bisect_max_factor(
    accept_at: Callable[[float], bool],
    *,
    lo: float,
    hi_start: float,
    tol: float,
    max_doublings: int,
) -> float:
    """Largest factor (within tol) at which ``accept_at`` holds.

    Requires ``accept_at(lo)``; doubles ``hi`` until rejection.
    """
    if not accept_at(lo):
        raise ValueError(f"instance not accepted at the base factor {lo}")
    hi = hi_start
    for _ in range(max_doublings):
        if not accept_at(hi):
            break
        lo = hi
        hi *= 2.0
    else:
        return lo  # accepted everywhere we looked: effectively unbounded
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if accept_at(mid):
            lo = mid
        else:
            hi = mid
    return lo


def system_scaling_margin(
    taskset: TaskSet,
    accept: AcceptancePredicate,
    *,
    tol: float = 1e-4,
    max_doublings: int = 20,
) -> float:
    """Largest uniform WCET scaling the predicate still accepts.

    1.0 means no margin; 1.25 means every execution budget can grow 25%.

    Raises
    ------
    ValueError
        if the unscaled instance is already rejected.
    """
    if len(taskset) == 0:
        raise ValueError("empty task set has no scaling margin")
    return _bisect_max_factor(
        lambda f: accept(taskset.scaled(f)),
        lo=1.0,
        hi_start=2.0,
        tol=tol,
        max_doublings=max_doublings,
    )


def per_task_slack(
    taskset: TaskSet,
    index: int,
    accept: AcceptancePredicate,
    *,
    tol: float = 1e-4,
    max_doublings: int = 20,
) -> float:
    """Largest scaling of task ``index``'s WCET alone keeping acceptance."""
    n = len(taskset)
    if not 0 <= index < n:
        raise IndexError(index)

    base = taskset[index]

    def scaled_at(factor: float) -> TaskSet:
        tasks = list(taskset)
        tasks[index] = base.scaled(factor)
        return TaskSet(tasks)

    return _bisect_max_factor(
        lambda f: accept(scaled_at(f)),
        lo=1.0,
        hi_start=2.0,
        tol=tol,
        max_doublings=max_doublings,
    )


@dataclass(frozen=True)
class TaskSlack:
    """One task's slack result."""

    index: int
    name: str
    slack: float


def critical_tasks(
    taskset: TaskSet,
    accept: AcceptancePredicate,
    *,
    tol: float = 1e-3,
) -> list[TaskSlack]:
    """Per-task slacks, most critical (smallest slack) first."""
    out = [
        TaskSlack(
            index=i,
            name=taskset[i].name or f"tau{i}",
            slack=per_task_slack(taskset, i, accept, tol=tol),
        )
        for i in range(len(taskset))
    ]
    out.sort(key=lambda s: s.slack)
    return out
