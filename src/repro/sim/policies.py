"""Preemptive uniprocessor scheduling policies.

A policy is a priority key over ready jobs; the simulator always runs the
ready job with the smallest key and re-evaluates at every release (full
preemption).  Keys are total orders (ties broken by job identity) so
schedules are deterministic and replayable.  A key reads only what a job
carries from its release (never its remaining work), so the simulator
computes it once per job.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Sequence

from ..core.model import Task
from .jobs import Job

__all__ = ["SchedulingPolicy", "EDFPolicy", "RMSPolicy", "policy_by_name"]


class SchedulingPolicy(ABC):
    """Priority-key scheduling policy (lower key = higher priority)."""

    name: str = ""

    @abstractmethod
    def key(self, job: Job, tasks: Sequence[Task]) -> tuple:
        """Total-order priority key for ``job``."""


class EDFPolicy(SchedulingPolicy):
    """Earliest Deadline First — dynamic priorities by absolute deadline.

    Optimal on a uniprocessor (Theorem II.2 is its exact test for
    implicit-deadline sporadic tasks).
    """

    name = "edf"

    def key(self, job: Job, tasks: Sequence[Task]) -> tuple:
        return (job.deadline, job.release, job.task_index, job.job_id)


class RMSPolicy(SchedulingPolicy):
    """Rate-Monotonic — static priorities, shorter period first.

    All jobs of one task share the same priority relative to other tasks'
    jobs (the property that motivates RMS in the paper's §I).
    """

    name = "rms"

    def key(self, job: Job, tasks: Sequence[Task]) -> tuple:
        return (tasks[job.task_index].period, job.task_index, job.job_id)


_POLICIES: dict[str, SchedulingPolicy] = {
    p.name: p for p in (EDFPolicy(), RMSPolicy())
}


def policy_by_name(name: str) -> SchedulingPolicy:
    """Look up a policy (``edf`` or ``rms``)."""
    try:
        return _POLICIES[name]
    except KeyError:
        raise KeyError(
            f"unknown policy {name!r}; known: {sorted(_POLICIES)}"
        ) from None
