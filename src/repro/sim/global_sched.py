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

from typing import Sequence

from ..core.model import Task
from .engine import run_schedule
from .jobs import JobSource
from .policies import SchedulingPolicy
from .trace import Trace

__all__ = ["simulate_global"]


def simulate_global(
    tasks: Sequence[Task],
    speeds: Sequence[float],
    policy: SchedulingPolicy | str,
    sources: Sequence[JobSource],
    horizon: float,
) -> Trace:
    """Simulate global preemptive scheduling over ``[0, horizon]``.

    Machines are used fastest-first: the k-th highest-priority ready job
    runs on the k-th fastest machine.
    """
    if not speeds or any(s <= 0 for s in speeds):
        raise ValueError("speeds must be positive and non-empty")
    return run_schedule(tasks, speeds, policy, sources, horizon)
