"""The paper's partitioning algorithm (§III) and its heuristic family.

The canonical algorithm:

1. sort tasks by non-increasing utilization,
2. sort machines by non-decreasing speed,
3. first-fit: assign each task to the first machine whose single-machine
   admission test (EDF utilization or RMS Liu–Layland, with speed
   augmentation ``alpha``) still passes;
4. declare failure on the first task no machine admits.

Runs in ``O(n log n + n m)`` — each task probes machines in order and the
admission tests keep O(1) state (``rms-rta`` is the deliberate exception).

For the ablation study (experiment E8) the task order, machine order and
fit rule are all pluggable; :func:`first_fit_partition` pins the paper's
choices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

from .bounds import AdmissionTest, MachineState, admission_test
from .model import Platform, TaskSet

__all__ = [
    "TaskOrder",
    "MachineOrder",
    "FitRule",
    "PartitionResult",
    "partition",
    "first_fit_partition",
    "verify_partition",
]

TaskOrder = Literal["util-desc", "util-asc", "deadline-asc", "input"]
MachineOrder = Literal["speed-asc", "speed-desc"]
FitRule = Literal["first", "best", "worst", "next"]


@dataclass(frozen=True)
class PartitionResult:
    """Outcome of a partitioning run.

    All task indices refer to positions in the *original* task set; all
    machine indices refer to positions in the platform's canonical
    (speed-ascending) order.
    """

    success: bool
    #: per original task index: machine index, or None if never placed
    assignment: tuple[int | None, ...]
    #: per machine: original task indices in assignment order
    machine_tasks: tuple[tuple[int, ...], ...]
    #: per machine: total assigned utilization
    loads: tuple[float, ...]
    #: original index of the first task that could not be placed (None on success)
    failed_task: int | None
    #: speed augmentation the partitioner ran with
    alpha: float
    #: admission test name ("edf", "rms-ll", ...)
    test_name: str
    #: the order (original indices) tasks were processed in
    order: tuple[int, ...]

    @property
    def n_assigned(self) -> int:
        return sum(1 for a in self.assignment if a is not None)

    def tasks_on(self, machine_index: int) -> tuple[int, ...]:
        """Original task indices assigned to ``machine_index``."""
        return self.machine_tasks[machine_index]


def _task_order(taskset: TaskSet, rule: TaskOrder) -> list[int]:
    if rule == "util-desc":
        return taskset.order_by_utilization(descending=True)
    if rule == "util-asc":
        return taskset.order_by_utilization(descending=False)
    if rule == "deadline-asc":
        # deadline-monotonic processing order (Han–Zhao / Chen first-fit);
        # sort() is stable, so ties keep input position
        idx = list(range(len(taskset)))
        idx.sort(key=lambda i: taskset[i].deadline)
        return idx
    if rule == "input":
        return list(range(len(taskset)))
    raise ValueError(f"unknown task order {rule!r}")


def _machine_order(platform: Platform, rule: MachineOrder) -> list[int]:
    # Platform stores machines speed-ascending already.
    if rule == "speed-asc":
        return list(range(len(platform)))
    if rule == "speed-desc":
        return list(range(len(platform) - 1, -1, -1))
    raise ValueError(f"unknown machine order {rule!r}")


def partition(
    taskset: TaskSet,
    platform: Platform,
    test: AdmissionTest | str = "edf",
    *,
    alpha: float = 1.0,
    task_order: TaskOrder = "util-desc",
    machine_order: MachineOrder = "speed-asc",
    fit: FitRule = "first",
) -> PartitionResult:
    """Partition ``taskset`` onto ``platform`` with a pluggable strategy.

    Parameters
    ----------
    test:
        Single-machine admission test (name or instance).
    alpha:
        Speed augmentation: each machine of speed ``s`` is treated as
        having speed ``alpha * s`` (§II).
    task_order, machine_order, fit:
        Strategy knobs; defaults are the paper's algorithm.

    Returns
    -------
    PartitionResult
        ``success`` is False iff some task could not be placed; the
        partitioner stops at the first failure (the paper's behaviour) and
        reports it in ``failed_task``.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if isinstance(test, str):
        test = admission_test(test)

    t_order = _task_order(taskset, task_order)
    m_order = _machine_order(platform, machine_order)
    m = len(platform)
    states: list[MachineState] = test.open_machines(
        [platform[j].speed * alpha for j in range(m)]
    )
    assignment: list[int | None] = [None] * len(taskset)
    machine_tasks: list[list[int]] = [[] for _ in range(m)]
    failed: int | None = None
    next_pointer = 0  # for fit == "next"

    for ti in t_order:
        task = taskset[ti]
        chosen: int | None = None
        if fit == "first":
            for j in m_order:
                if states[j].admits(task):
                    chosen = j
                    break
        elif fit == "next":
            for off in range(m):
                j = m_order[(next_pointer + off) % m]
                if states[j].admits(task):
                    chosen = j
                    next_pointer = (next_pointer + off) % m
                    break
        elif fit in ("best", "worst"):
            best_fill = None
            for j in m_order:
                st = states[j]
                if not st.admits(task):
                    continue
                fill = st.load / st.speed
                if (
                    best_fill is None
                    or (fit == "best" and fill > best_fill)
                    or (fit == "worst" and fill < best_fill)
                ):
                    best_fill = fill
                    chosen = j
        else:
            raise ValueError(f"unknown fit rule {fit!r}")

        if chosen is None:
            failed = ti
            break
        states[chosen].add(task)
        assignment[ti] = chosen
        machine_tasks[chosen].append(ti)

    return PartitionResult(
        success=failed is None,
        assignment=tuple(assignment),
        machine_tasks=tuple(tuple(ts) for ts in machine_tasks),
        loads=tuple(st.load for st in states),
        failed_task=failed,
        alpha=alpha,
        test_name=test.name,
        order=tuple(t_order),
    )


def first_fit_partition(
    taskset: TaskSet,
    platform: Platform,
    test: AdmissionTest | str = "edf",
    *,
    alpha: float = 1.0,
) -> PartitionResult:
    """The paper's algorithm: tasks by non-increasing utilization, machines
    by non-decreasing speed, first-fit (§III)."""
    return partition(
        taskset,
        platform,
        test,
        alpha=alpha,
        task_order="util-desc",
        machine_order="speed-asc",
        fit="first",
    )


def verify_partition(
    result: PartitionResult,
    taskset: TaskSet,
    platform: Platform,
    test: AdmissionTest | str | None = None,
) -> bool:
    """Re-check a successful partition with one-shot set tests.

    Returns True iff every machine's assigned set passes the admission
    test at the result's speed augmentation and every task is assigned
    exactly once.  Used by the test suite as an independent oracle on the
    incremental states.
    """
    if not result.success:
        return False
    if isinstance(test, str):
        test = admission_test(test)
    if test is None:
        test = admission_test(result.test_name)
    seen: set[int] = set()
    for j, idxs in enumerate(result.machine_tasks):
        tasks = [taskset[i] for i in idxs]
        if not test.feasible(tasks, platform[j].speed * result.alpha):
            return False
        seen.update(idxs)
    if seen != set(range(len(taskset))):
        return False
    for i, a in enumerate(result.assignment):
        if a is None or i not in result.machine_tasks[a]:
            return False
    return True
