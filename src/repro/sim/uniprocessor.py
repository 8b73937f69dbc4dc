"""Preemptive uniprocessor simulator.

Simulates a single speed-``s`` machine executing jobs from a set of
release sources under a priority policy (EDF or RMS), fully preemptively:
at every release or completion the highest-priority ready job runs.  A
machine of speed ``s`` retires ``s`` units of work per unit time, so a
job with ``remaining`` work finishes after ``remaining / s``.

This is the global simulator on one machine: both run the event loop
:func:`~repro.sim.engine.run_schedule`, here on ``[speed]``.
"""

from __future__ import annotations

from typing import Literal, Sequence

import numpy as np

from ..core.model import Task, TaskSet
from .engine import run_schedule
from .hyperperiod import default_horizon
from .jobs import JobSource, PeriodicSource, SporadicSource
from .policies import SchedulingPolicy
from .trace import Trace

__all__ = ["simulate_uniprocessor", "simulate_taskset_on_machine"]


def simulate_uniprocessor(
    tasks: Sequence[Task],
    speed: float,
    policy: SchedulingPolicy | str,
    sources: Sequence[JobSource],
    horizon: float,
    *,
    stop_on_first_miss: bool = False,
    preemption_overhead: float = 0.0,
    on_miss: Literal["continue", "abort"] = "continue",
) -> Trace:
    """Simulate one machine over ``[0, horizon]``.

    Jobs that miss their deadline keep executing (misses are recorded,
    not fatal) unless ``stop_on_first_miss`` cuts the run short — useful
    when only the boolean outcome matters.

    ``on_miss='abort'`` models firm deadlines: a job is discarded the
    moment its deadline passes with work left (recorded as missed and
    incomplete), freeing the machine for still-viable jobs.  The default
    ``'continue'`` (hard-deadline accounting, late completion recorded)
    matches the analytical model.

    ``preemption_overhead`` charges that much extra *work* to a job each
    time it resumes after being preempted (a CRPD-style cache/pipeline
    penalty).  The charge is folded into the job's recorded work, so the
    trace validators' accounting stays exact; the analytical tests ignore
    overheads (they assume it is already inside the WCETs), which is what
    lets experiments quantify how much overhead an accepted partition can
    absorb.

    Returns a one-machine :class:`~repro.sim.trace.Trace`; validate it
    with :func:`~repro.sim.validators.validate_trace` for independent
    assurance.
    """
    if speed <= 0:
        raise ValueError("speed must be positive")
    return run_schedule(
        tasks,
        [speed],
        policy,
        sources,
        horizon,
        stop_on_first_miss=stop_on_first_miss,
        preemption_overhead=preemption_overhead,
        on_miss=on_miss,
    )


def release_sources(
    tasks: Sequence[Task],
    indices: Sequence[int],
    release: Literal["periodic", "sporadic"],
    rng: np.random.Generator | None,
    jitter: float,
) -> list[JobSource]:
    """One release source per task, labelled with its task-set index (see
    :func:`simulate_taskset_on_machine`); sources draw from ``rng`` only
    as they advance."""
    if release == "periodic":
        return [PeriodicSource(task, i) for task, i in zip(tasks, indices)]
    if release == "sporadic":
        if rng is None:
            raise ValueError("sporadic release requires an rng")
        return [
            SporadicSource(task, i, rng, jitter=jitter)
            for task, i in zip(tasks, indices)
        ]
    raise ValueError(f"unknown release pattern {release!r}")


def simulate_taskset_on_machine(
    tasks: TaskSet | Sequence[Task],
    speed: float,
    policy: SchedulingPolicy | str = "edf",
    *,
    horizon: float | None = None,
    release: Literal["periodic", "sporadic"] = "periodic",
    rng: np.random.Generator | None = None,
    jitter: float = 0.2,
    stop_on_first_miss: bool = False,
    preemption_overhead: float = 0.0,
    on_miss: Literal["continue", "abort"] = "continue",
) -> Trace:
    """Convenience wrapper: build sources and pick a horizon.

    ``release='periodic'`` uses synchronous periodic releases (the worst
    case); ``'sporadic'`` adds random inter-release gaps and requires
    ``rng``.  The default horizon is the hyperperiod when available, else
    ten times the longest period.
    """
    task_list = list(tasks)
    if horizon is None:
        horizon = default_horizon(task_list)
    sources = release_sources(
        task_list, range(len(task_list)), release, rng, jitter
    )
    return simulate_uniprocessor(
        task_list,
        speed,
        policy,
        sources,
        horizon,
        stop_on_first_miss=stop_on_first_miss,
        preemption_overhead=preemption_overhead,
        on_miss=on_miss,
    )
