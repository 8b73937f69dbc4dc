"""Independent trace validator.

:func:`validate_trace` re-derives every invariant a correct preemptive
schedule must satisfy *from the trace alone*, without trusting the
simulator: interval sanity per machine, per-job work accounting weighted
by the speed of the machine each interval ran on, completion and miss
bookkeeping, and dispatch compliance — between consecutive events the
k-th highest-priority ready job runs on the k-th fastest machine.  A
uniprocessor trace is the one-machine case, where dispatch compliance is
the priority rule with preemption at releases and no idling while a job
is ready.

The validator spells out each policy's priority order itself rather than
asking :mod:`repro.sim.policies`, so a fault planted in a policy cannot
hide from it.  The test suite runs it over randomized simulations;
experiments run it as a sanity rail.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from operator import itemgetter
from typing import Sequence

from ..core.model import Task
from .engine import TIME_EPS, collector_paused
from .trace import JobRecord, Trace

__all__ = ["validate_trace"]

_WORK_EPS = 1e-6

# event kinds of the chronological sweep
_RELEASE, _LEAVE, _START, _END = range(4)


def _priority_keys(trace: Trace, tasks: Sequence[Task]) -> list[tuple]:
    """Each job's priority key in record order; lower runs first."""
    if trace.policy_name == "edf":
        return [(r.deadline, r.release, r.task_index, r.job_id) for r in trace.jobs]
    if trace.policy_name == "rms":
        return [(tasks[r.task_index].period, r.task_index, r.job_id) for r in trace.jobs]
    raise KeyError(f"no priority order known for policy {trace.policy_name!r}")


def _name(rec: JobRecord) -> tuple[int, int]:
    return (rec.task_index, rec.job_id)


def validate_trace(trace: Trace, tasks: Sequence[Task]) -> list[str]:
    """Every invariant of ``trace`` on its machines; [] when clean.

    * per machine: every segment has a positive duration, lies inside
      ``[0, horizon]`` and overlaps no other;
    * per job: every segment has a record and starts no earlier than the
      release; the job never runs on two machines at once; its executed
      work equals ``work`` when complete and does not exceed it when not;
      completion equals the last segment's end; the miss flag agrees
      with the completion, or with the horizon when unfinished;
    * dispatch: between consecutive event times the k-th
      highest-priority ready job runs on the k-th fastest machine (ties
      in speed in machine order) and the remaining machines idle.  A job
      is ready from its release until its completion; an unfinished job
      that missed leaves at its deadline on ``on_miss='abort'`` traces
      only.  Dispatch is reported at its first violation, past which the
      replay has nothing sound to compare against.

    Releases and segments are replayed in one chronological pass, with
    the collector paused as in :func:`~repro.sim.engine.run_schedule`.
    """
    with collector_paused():
        return _violations(trace, tasks)


def _violations(trace: Trace, tasks: Sequence[Task]) -> list[str]:
    errors: list[str] = []
    jobs = trace.jobs
    segments = trace.segments
    speeds = trace.speeds
    horizon = trace.horizon
    m = len(speeds)
    index = {(r.task_index, r.job_id): i for i, r in enumerate(jobs)}
    keys = _priority_keys(trace, tasks)

    # (time, kind, segment, job); segment is -1 for job events
    events: list[tuple[float, int, int, int]] = []
    executed = [0.0] * len(jobs)
    last_end = [-1.0] * len(jobs)
    seg_job = [-1] * len(segments)
    for k, seg in enumerate(segments):
        machine, start, end = seg.machine, seg.start, seg.end
        if end <= start:
            errors.append(f"segment {k}: non-positive duration {seg}")
        if start < -TIME_EPS or end > horizon + TIME_EPS:
            errors.append(f"segment {k}: outside [0, horizon] {seg}")
        if not 0 <= machine < m:
            errors.append(f"segment {k}: no machine {machine} among {m}")
            continue
        i = index.get((seg.task_index, seg.job_id), -1)
        if i < 0:
            errors.append(f"segment {k}: no job record for {(seg.task_index, seg.job_id)}")
            continue
        rec = jobs[i]
        if start < rec.release - TIME_EPS:
            errors.append(
                f"segment {k}: job {_name(rec)} ran at {start} before release {rec.release}"
            )
        seg_job[k] = i
        executed[i] += (end - start) * speeds[machine]
        if end > last_end[i]:
            last_end[i] = end
        events.append((start, _START, k, i))
        events.append((end, _END, k, i))

    abort = trace.on_miss == "abort"
    for i, rec in enumerate(jobs):
        done, work = executed[i], rec.work
        events.append((rec.release, _RELEASE, -1, i))
        if rec.completion is not None:
            if abs(done - work) > _WORK_EPS * max(1.0, work):
                errors.append(
                    f"job {_name(rec)}: completed with {done} executed, work is {work}"
                )
            if last_end[i] >= 0 and abs(last_end[i] - rec.completion) > TIME_EPS:
                errors.append(
                    f"job {_name(rec)}: completion {rec.completion} != last segment "
                    f"end {last_end[i]}"
                )
            expect_missed = rec.completion > rec.deadline + TIME_EPS
            events.append((rec.completion, _LEAVE, -1, i))
        else:
            if done > work * (1.0 + _WORK_EPS) + _WORK_EPS:
                errors.append(
                    f"job {_name(rec)}: executed {done} exceeds work {work} yet incomplete"
                )
            expect_missed = rec.deadline <= horizon + TIME_EPS
            if abort and expect_missed:
                events.append((rec.deadline, _LEAVE, -1, i))
        if rec.missed != expect_missed:
            errors.append(
                f"job {_name(rec)}: missed flag {rec.missed} inconsistent with "
                f"completion {rec.completion}, deadline {rec.deadline} and "
                f"horizon {horizon}"
            )

    events.sort(key=itemgetter(0))
    following = [e[0] for e in events[1:]]
    following.append(horizon)
    fastest_first = sorted(range(m), key=lambda j: -speeds[j])
    ready: list[tuple[tuple, int]] = []  # (priority key, job), ascending
    on_machine = [-1] * m  # segment running on each machine
    on_job = [-1] * len(jobs)  # segment running each job
    dispatch_ok = True
    for (t, kind, k, i), nxt in zip(events, following):
        if kind == _RELEASE:
            insort(ready, (keys[i], i))
        elif kind == _LEAVE:
            at = bisect_left(ready, (keys[i], i))
            if at < len(ready) and ready[at][1] == i:
                del ready[at]
        elif kind == _START:
            j = segments[k].machine
            prev = on_machine[j]
            if prev >= 0 and segments[prev].end > t + TIME_EPS:
                errors.append(f"machine {j}: segment {k} overlaps segment {prev} at {t}")
            on_machine[j] = k
            prev = on_job[i]
            if prev >= 0 and segments[prev].end > t + TIME_EPS:
                errors.append(f"job {_name(jobs[i])}: executes on two machines at {t}")
            on_job[i] = k
        else:
            j = segments[k].machine
            if on_machine[j] == k:
                on_machine[j] = -1
            if on_job[i] == k:
                on_job[i] = -1
        if dispatch_ok and nxt > t + TIME_EPS and t < horizon - TIME_EPS:
            for rank, j in enumerate(fastest_first):
                k = on_machine[j]
                have = seg_job[k] if k >= 0 else -1
                want = ready[rank][1] if rank < len(ready) else -1
                if have != want:
                    where = f"[{t}, {min(nxt, horizon)}] on machine {j}"
                    errors.append(_dispatch_error(trace, keys, where, rank, want, k, have))
                    dispatch_ok = False
                    break
    return errors


def _dispatch_error(
    trace: Trace, keys: list[tuple], where: str, rank: int, want: int, seg: int, have: int
) -> str:
    """Describe a machine not running job ``want``, the ready job of
    priority ``rank`` (-1: it should idle), over the span ``where``; it
    runs segment ``seg`` of job ``have`` instead (-1 for both: it idles)."""
    if seg < 0:
        wanted = _name(trace.jobs[want])
        return f"idle gap {where} while job {wanted} (priority rank {rank}) was ready"
    running = trace.segments[seg]
    ran = (running.task_index, running.job_id)
    if want < 0:
        return f"{where}: job {ran} runs on a machine that should idle"
    rec = trace.jobs[want]
    if keys[want] > keys[have]:
        return f"{where}: job {ran} runs instead of job {_name(rec)} (priority rank {rank})"
    if running.start < rec.release - TIME_EPS:
        return (
            f"{where}: higher-priority release of {_name(rec)} at {rec.release} "
            f"did not preempt {ran}"
        )
    return (
        f"{where}: job {ran} runs while higher-priority job {_name(rec)} "
        f"(priority rank {rank}) was ready"
    )
