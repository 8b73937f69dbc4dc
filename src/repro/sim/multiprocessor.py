"""Partitioned multiprocessor simulation.

Under partitioned scheduling each machine runs its assigned tasks in
isolation (no migration — the defining property, §I), so a platform
simulation is ``m`` independent uniprocessor simulations sharing the task
set's indexing.  This is what lets the library cross-validate the
feasibility tests end-to-end: a partition accepted at speed augmentation
``alpha`` must produce zero deadline misses when simulated on the
``alpha``-augmented platform (experiment E13).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from ..core.model import Platform, TaskSet
from ..core.partition import PartitionResult
from .hyperperiod import default_horizon
from .trace import Trace
from .uniprocessor import release_sources, simulate_uniprocessor

__all__ = ["PartitionedSimulation", "simulate_partitioned"]


@dataclass(frozen=True)
class PartitionedSimulation:
    """Traces of every machine plus aggregate verdicts."""

    traces: tuple[Trace, ...]
    #: per original task index: machine it ran on
    assignment: tuple[int, ...]
    alpha: float

    @property
    def any_miss(self) -> bool:
        return any(tr.any_miss for tr in self.traces)

    @property
    def total_misses(self) -> int:
        return sum(len(tr.misses) for tr in self.traces)

    @property
    def total_jobs(self) -> int:
        return sum(len(tr.jobs) for tr in self.traces)


def simulate_partitioned(
    taskset: TaskSet,
    platform: Platform,
    assignment: PartitionResult | Sequence[int],
    policy: Literal["edf", "rms"] = "edf",
    *,
    alpha: float = 1.0,
    horizon: float | None = None,
    release: Literal["periodic", "sporadic"] = "periodic",
    rng: np.random.Generator | None = None,
    jitter: float = 0.2,
    stop_on_first_miss: bool = False,
    preemption_overhead: float = 0.0,
) -> PartitionedSimulation:
    """Simulate a partitioned schedule on the (optionally augmented) platform.

    Parameters
    ----------
    assignment:
        A successful :class:`~repro.core.partition.PartitionResult` or an
        explicit per-task machine-index sequence.
    alpha:
        Speed augmentation: machine ``j`` runs at ``alpha * s_j`` (§II) —
        pass the feasibility test's alpha to check its acceptance
        guarantee in execution.
    horizon:
        Simulation span (defaults to each machine's local hyperperiod /
        fallback horizon over its own tasks).

    Raises
    ------
    ValueError
        for failed partitions or malformed assignments.
    """
    if isinstance(assignment, PartitionResult):
        if not assignment.success:
            raise ValueError("cannot simulate a failed partition")
        mapping = [a for a in assignment.assignment]
        if any(a is None for a in mapping):
            raise ValueError("partition result leaves tasks unassigned")
        mapping = [int(a) for a in mapping]  # type: ignore[arg-type]
    else:
        mapping = [int(a) for a in assignment]
    if len(mapping) != len(taskset):
        raise ValueError(
            f"assignment covers {len(mapping)} tasks, task set has {len(taskset)}"
        )
    m = len(platform)
    if any(not 0 <= a < m for a in mapping):
        raise ValueError("assignment refers to a machine outside the platform")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    sources = release_sources(
        taskset.tasks, range(len(taskset)), release, rng, jitter
    )

    per_machine: list[list[int]] = [[] for _ in range(m)]
    for i, a in enumerate(mapping):
        per_machine[a].append(i)

    traces: list[Trace] = []
    for j in range(m):
        local = [taskset[i] for i in per_machine[j]]
        if not local:
            local_horizon = 0.0  # an idle machine's empty trace
        else:
            local_horizon = horizon if horizon is not None else default_horizon(local)
        traces.append(
            simulate_uniprocessor(
                taskset.tasks,
                platform[j].speed * alpha,
                policy,
                [sources[i] for i in per_machine[j]],
                local_horizon,
                stop_on_first_miss=stop_on_first_miss,
                preemption_overhead=preemption_overhead,
            )
        )
    return PartitionedSimulation(
        traces=tuple(traces), assignment=tuple(mapping), alpha=alpha
    )
