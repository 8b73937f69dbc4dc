"""Execution traces: what actually ran, when, on which machine.

Traces are the simulator's auditable output — every claim the library
makes about schedulability can be checked against them by the validator
(:mod:`repro.sim.validators`) without trusting the simulator's internals.
One trace type serves every simulator: a uniprocessor schedule is the
one-machine case of a global schedule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

__all__ = ["Segment", "JobRecord", "Trace"]


@dataclass(frozen=True, slots=True)
class Segment:
    """A maximal interval during which one job ran uninterrupted on one
    machine."""

    machine: int
    start: float
    end: float
    task_index: int
    job_id: int

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class JobRecord:
    """Lifecycle summary of one job."""

    task_index: int
    job_id: int
    release: float
    deadline: float  # absolute
    work: float
    #: completion time, or None if still unfinished at the horizon
    completion: float | None
    #: True iff the deadline was missed (late completion, or unfinished
    #: with the deadline inside the horizon)
    missed: bool

    @property
    def response_time(self) -> float | None:
        if self.completion is None:
            return None
        return self.completion - self.release


@dataclass(frozen=True)
class Trace:
    """Complete execution record of machines of ``speeds`` over
    ``[0, horizon]``.

    ``on_miss`` records how the run treated a job whose deadline passed
    with work left: ``'continue'`` kept it ready, ``'abort'`` dropped it
    at the deadline.  ``segments`` are grouped by machine, each machine's
    in time order.
    """

    speeds: tuple[float, ...]
    horizon: float
    policy_name: str
    on_miss: Literal["continue", "abort"]
    segments: tuple[Segment, ...]
    jobs: tuple[JobRecord, ...]

    @property
    def any_miss(self) -> bool:
        return any(j.missed for j in self.jobs)

    @property
    def misses(self) -> tuple[JobRecord, ...]:
        return tuple(j for j in self.jobs if j.missed)

    @property
    def busy_time(self) -> float:
        """Machine time spent executing, summed over machines."""
        return sum(s.duration for s in self.segments)

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

    def max_response_time(self, task_index: int) -> float | None:
        """Largest observed response time of a task's completed jobs."""
        times = [
            j.response_time
            for j in self.jobs
            if j.task_index == task_index and j.response_time is not None
        ]
        return max(times) if times else None
