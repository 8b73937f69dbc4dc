"""Global (migratory) scheduling on related machines.

The paper's "any adversary" may migrate jobs freely; this simulator makes
that concrete: a single ready queue, and at every event the ``m``
highest-priority ready jobs run, highest priority on the fastest machine
(the standard discipline for global scheduling on uniform machines).
Fully preemptive and migratory; a job never runs on two machines at once.
The event loop is :func:`~repro.sim.engine.run_schedule`, the same one
the uniprocessor simulator runs on a single machine.

Global policies are *not* optimal and synchronous release is not
necessarily their worst case — so unlike the partitioned simulator this
one certifies nothing; it demonstrates behaviour.  Two classics it
reproduces (see the test suite):

* the **Dhall effect**: global RM/EDF can miss deadlines at total
  utilization barely above 1 on m machines where partitioning is trivial;
* the converse: task sets no partition can schedule that migration
  handles comfortably (three 2/3-utilization tasks on two unit machines).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..core.model import Task
from .engine import run_schedule
from .jobs import JobSource
from .policies import SchedulingPolicy
from .trace import JobRecord

__all__ = ["GlobalSegment", "GlobalTrace", "simulate_global"]


@dataclass(frozen=True)
class GlobalSegment:
    """One job running on one machine for an interval."""

    machine: int
    start: float
    end: float
    task_index: int
    job_id: int

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class GlobalTrace:
    """Execution record of a global schedule."""

    speeds: tuple[float, ...]
    horizon: float
    policy_name: str
    segments: tuple[GlobalSegment, ...]
    jobs: tuple[JobRecord, ...]

    @property
    def any_miss(self) -> bool:
        return any(j.missed for j in self.jobs)

    @property
    def misses(self) -> tuple[JobRecord, ...]:
        return tuple(j for j in self.jobs if j.missed)

    @property
    def migrations(self) -> int:
        """Number of times a job resumed on a different machine."""
        last: dict[tuple[int, int], int] = {}
        count = 0
        for seg in sorted(self.segments, key=lambda s: s.start):
            key = (seg.task_index, seg.job_id)
            if key in last and last[key] != seg.machine:
                count += 1
            last[key] = seg.machine
        return count


def simulate_global(
    tasks: Sequence[Task],
    speeds: Sequence[float],
    policy: SchedulingPolicy | str,
    sources: Sequence[JobSource],
    horizon: float,
) -> GlobalTrace:
    """Simulate global preemptive scheduling over ``[0, horizon]``.

    Machines are used fastest-first: the k-th highest-priority ready job
    runs on the k-th fastest machine.
    """
    if not speeds or any(s <= 0 for s in speeds):
        raise ValueError("speeds must be positive and non-empty")
    end_time, policy_name, runs, records = run_schedule(
        tasks, speeds, policy, sources, horizon
    )
    return GlobalTrace(
        speeds=tuple(speeds),
        horizon=end_time,
        policy_name=policy_name,
        segments=tuple(
            [
                GlobalSegment(machine, start, end, job.task_index, job.job_id)
                for machine, (starts, ends, owners) in enumerate(runs)
                for start, end, job in zip(starts, ends, owners)
            ]
        ),
        jobs=tuple(records),
    )
