"""Deterministic discrete-event core shared by the simulators.

:func:`run_schedule` is the one event loop behind both simulators: the
uniprocessor simulator runs it on one machine, the global simulator on
``m``.  It advances from event to event (releases, completions,
deadline cuts, the horizon); between events the running jobs are fixed,
so execution is exact up to floating-point addition and no time quantum
is involved.
"""

from __future__ import annotations

import gc
import heapq
from contextlib import contextmanager
from typing import Generic, Iterator, Literal, Sequence, TypeVar

from ..core.model import Task
from .jobs import Job, JobSource
from .policies import SchedulingPolicy, policy_by_name
from .trace import JobRecord, Segment, Trace

__all__ = ["TIME_EPS", "EventQueue", "collector_paused", "run_schedule"]

#: Absolute tolerance for comparing simulation times.  All simulation
#: quantities are O(periods), so an absolute epsilon is appropriate.
TIME_EPS: float = 1e-9

T = TypeVar("T")


class EventQueue(Generic[T]):
    """A time-ordered queue with deterministic FIFO tie-breaking.

    Events pushed at equal times pop in push order (a monotone sequence
    number breaks ties), which keeps simulations replayable.
    """

    __slots__ = ("_heap", "_seq")

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, T]] = []
        self._seq = 0

    def push(self, time: float, payload: T) -> None:
        heapq.heappush(self._heap, (time, self._seq, payload))
        self._seq += 1

    def pop(self) -> tuple[float, T]:
        time, _, payload = heapq.heappop(self._heap)
        return time, payload

    def peek_time(self) -> float:
        """Time of the earliest event; +inf when empty."""
        if not self._heap:
            return float("inf")
        return self._heap[0][0]

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)


@contextmanager
def collector_paused() -> Iterator[None]:
    """Pause the cyclic garbage collector for a block, handing the
    caller's setting back however the block ends.

    For blocks that allocate many tracked objects and make no cycles:
    there the collector would only re-walk the growing heap on each full
    collection, and reference counting frees everything anyway.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if collecting:
            gc.enable()


def run_schedule(
    tasks: Sequence[Task],
    speeds: Sequence[float],
    policy: SchedulingPolicy | str,
    sources: Sequence[JobSource],
    horizon: float,
    *,
    stop_on_first_miss: bool = False,
    preemption_overhead: float = 0.0,
    on_miss: Literal["continue", "abort"] = "continue",
) -> Trace:
    """Run a preemptive priority schedule on machines of ``speeds``.

    At every event the ``m`` highest-priority ready jobs run, the k-th on
    the k-th fastest machine (ties in speed keep machine order); a job
    never runs on two machines at once.  A machine of speed ``s`` retires
    ``s`` units of work per unit time.  ``stop_on_first_miss``,
    ``preemption_overhead`` and ``on_miss`` act on each running job as
    documented on :func:`~repro.sim.uniprocessor.simulate_uniprocessor`.

    Returns the :class:`~repro.sim.trace.Trace` over ``[0, end]``, where
    ``end`` is ``horizon`` or the time ``stop_on_first_miss`` cut the run.
    Its segments are maximal (back-to-back intervals of one job merged),
    grouped by machine in time order; its records hold one
    :class:`~repro.sim.trace.JobRecord` per released job in release
    order.
    """
    if horizon < 0:
        raise ValueError("horizon must be non-negative")
    if preemption_overhead < 0:
        raise ValueError("preemption_overhead must be non-negative")
    if isinstance(policy, str):
        policy = policy_by_name(policy)

    m = len(speeds)
    # per machine, columns of intervals: the last one is extended in place
    # while its job keeps running
    runs: list[tuple[list[float], list[float], list[Job]]] = [([], [], []) for _ in speeds]
    fastest_first = sorted(range(m), key=lambda j: -speeds[j])
    fleet = [(speeds[j], *runs[j]) for j in fastest_first]

    releases: EventQueue[int] = EventQueue()
    for si, src in enumerate(sources):
        if src.peek() < horizon - TIME_EPS:
            releases.push(src.peek(), si)

    t = 0.0
    # (priority key, release order, job): a job's key is fixed at release,
    # and release order breaks ties as a scan of the ready list would
    ready: list[tuple[tuple, int, Job]] = []
    all_jobs: list[Job] = []
    completions: list[float | None] = []  # by release order
    miss_detected = False

    def admit_releases(now: float) -> None:
        while releases.peek_time() <= now + TIME_EPS:
            _, si = releases.pop()
            src = sources[si]
            job = src.pop()
            ready.append((policy.key(job, tasks), len(all_jobs), job))
            all_jobs.append(job)
            completions.append(None)
            nxt = src.peek()
            if nxt < horizon - TIME_EPS:
                releases.push(nxt, si)

    # every Job, JobRecord and Segment is a tracked object, and none of
    # them is in a cycle
    with collector_paused():
        admit_releases(t)
        last_running: list[Job] = []
        while True:
            if on_miss == "abort":
                # firm deadlines: drop expired jobs before dispatching
                expired = [
                    e for e in ready if e[2].deadline <= t + TIME_EPS and e[2].remaining > 0
                ]
                for e in expired:
                    ready.remove(e)
                    if stop_on_first_miss:
                        miss_detected = True
                if miss_detected:
                    break

            if not ready:
                nxt = releases.peek_time()
                if nxt >= horizon - TIME_EPS:
                    break
                t = nxt
                admit_releases(t)
                continue

            # heapq.nsmallest(1, ...) is min() behind a Python-level call
            running = [min(ready)] if m == 1 else heapq.nsmallest(m, ready)
            if preemption_overhead > 0.0:
                # resumption after preemption: charge the overhead as extra work
                was_running, last_running = last_running, [e[2] for e in running]
                for job in last_running:
                    if job not in was_running and job.remaining < job.work - TIME_EPS:
                        job.remaining += preemption_overhead
                        job.work += preemption_overhead
            next_release = releases.peek_time()
            event = min(next_release, horizon)
            for (_, _, job), (speed, _, _, _) in zip(running, fleet):
                finish = t + job.remaining / speed
                if finish < event:
                    event = finish
            if on_miss == "abort":
                # cut execution at a deadline; the expiry sweep drops the job next
                for _, _, job in running:
                    if job.deadline < event - TIME_EPS:
                        event = max(t, job.deadline)

            advance = event > t + TIME_EPS
            for entry, (speed, starts, ends, owners) in zip(running, fleet):
                _, seq, job = entry
                finish = t + job.remaining / speed
                if advance:
                    if owners and owners[-1] is job and abs(ends[-1] - t) <= TIME_EPS:
                        ends[-1] = event
                    else:
                        starts.append(t)
                        ends.append(event)
                        owners.append(job)
                    job.remaining -= (event - t) * speed
                if abs(event - finish) <= TIME_EPS or job.remaining <= TIME_EPS * job.work:
                    job.remaining = 0.0
                    completions[seq] = event
                    ready.remove(entry)
                    if stop_on_first_miss and event > job.deadline + TIME_EPS:
                        miss_detected = True
            t = event
            if miss_detected:
                break

            if stop_on_first_miss and any(e[2].deadline < t - TIME_EPS for e in ready):
                miss_detected = True
                break

            if t >= horizon - TIME_EPS:
                break
            if next_release <= t + TIME_EPS:
                admit_releases(t)

        end_time = t if miss_detected else horizon
        records = []
        for job, comp in zip(all_jobs, completions):
            if comp is not None:
                missed = comp > job.deadline + TIME_EPS
            else:
                # unfinished: a miss iff its deadline fell within the simulated span
                missed = job.deadline <= end_time + TIME_EPS
            records.append(
                JobRecord(
                    task_index=job.task_index,
                    job_id=job.job_id,
                    release=job.release,
                    deadline=job.deadline,
                    work=job.work,
                    completion=comp,
                    missed=missed,
                )
            )
        return Trace(
            speeds=tuple(speeds),
            horizon=end_time,
            policy_name=policy.name,
            on_miss=on_miss,
            segments=tuple(
                [
                    Segment(machine, start, end, job.task_index, job.job_id)
                    for machine, (starts, ends, owners) in enumerate(runs)
                    for start, end, job in zip(starts, ends, owners)
                ]
            ),
            jobs=tuple(records),
        )
