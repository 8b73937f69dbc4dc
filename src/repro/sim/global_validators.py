"""Independent validators for global (migratory) schedule traces.

Global schedules have two invariants partitioned ones don't:

* a job must never execute on two machines at the same instant
  (constraint (2) of the paper's LP is the fluid version of this);
* per-job work accounting must weight each interval by the speed of the
  machine it ran on (speeds differ across a job's lifetime).

The dispatch check replays the trace between consecutive release and
segment boundaries: throughout each such interval the k-th
highest-priority ready job must run on the k-th fastest machine.
"""

from __future__ import annotations

from typing import Sequence

from ..core.model import Task
from .engine import TIME_EPS
from .global_sched import GlobalSegment, GlobalTrace
from .jobs import Job
from .policies import policy_by_name

__all__ = ["validate_global_trace"]

_WORK_EPS = 1e-6


def validate_global_trace(trace: GlobalTrace, tasks: Sequence[Task]) -> list[str]:
    """Structural invariants of a global schedule; [] when clean."""
    errors: list[str] = []
    records = {(r.task_index, r.job_id): r for r in trace.jobs}

    # per-machine non-overlap
    for machine in range(len(trace.speeds)):
        prev_end = 0.0
        for seg in sorted(
            (s for s in trace.segments if s.machine == machine),
            key=lambda s: s.start,
        ):
            if seg.end <= seg.start:
                errors.append(f"machine {machine}: empty segment {seg}")
            if seg.start < prev_end - TIME_EPS:
                errors.append(
                    f"machine {machine}: overlapping segments at {seg.start}"
                )
            prev_end = max(prev_end, seg.end)

    # per-job: no parallel self-execution, release respected, work adds up
    by_job: dict[tuple[int, int], list] = {}
    for seg in trace.segments:
        by_job.setdefault((seg.task_index, seg.job_id), []).append(seg)
    for key, segs in by_job.items():
        rec = records.get(key)
        if rec is None:
            errors.append(f"job {key}: segments without a record")
            continue
        segs.sort(key=lambda s: s.start)
        prev_end = -1.0
        executed = 0.0
        for seg in segs:
            if seg.start < rec.release - TIME_EPS:
                errors.append(f"job {key}: ran before release at {seg.start}")
            if seg.start < prev_end - TIME_EPS:
                errors.append(
                    f"job {key}: executes on two machines around {seg.start}"
                )
            prev_end = max(prev_end, seg.end)
            executed += seg.duration * trace.speeds[seg.machine]
        if rec.completion is not None:
            if abs(executed - rec.work) > _WORK_EPS * max(1.0, rec.work):
                errors.append(
                    f"job {key}: executed {executed} but work is {rec.work}"
                )
        elif executed > rec.work * (1 + _WORK_EPS):
            errors.append(f"job {key}: over-executed while incomplete")

    for key, rec in records.items():
        if rec.completion is not None:
            expect = rec.completion > rec.deadline + TIME_EPS
            if rec.missed != expect:
                errors.append(f"job {key}: inconsistent miss flag")
    return errors + _dispatch_errors(trace, tasks)


def _dispatch_errors(trace: GlobalTrace, tasks: Sequence[Task]) -> list[str]:
    """The k-th highest-priority ready job runs on the k-th fastest
    machine (ties in speed in machine order), at every instant."""
    policy = policy_by_name(trace.policy_name)
    fastest_first = sorted(range(len(trace.speeds)), key=lambda j: -trace.speeds[j])
    recs = sorted(trace.jobs, key=lambda r: r.release)
    segs = sorted(trace.segments, key=lambda s: s.start)
    cuts = sorted(
        {0.0, trace.horizon}
        | {r.release for r in recs}
        | {s.start for s in segs}
        | {s.end for s in segs}
    )
    ready: dict[tuple[int, int], tuple[tuple, float | None]] = {}
    running: dict[tuple[int, int], GlobalSegment] = {}
    next_rec = next_seg = 0
    for a, b in zip(cuts, cuts[1:]):
        if b - a <= TIME_EPS or b > trace.horizon + TIME_EPS:
            continue
        mid = (a + b) / 2
        while next_rec < len(recs) and recs[next_rec].release < mid:
            r = recs[next_rec]
            next_rec += 1
            shim = Job(r.task_index, r.job_id, r.release, r.deadline, r.work, r.work)
            ready[(r.task_index, r.job_id)] = (policy.key(shim, tasks), r.completion)
        while next_seg < len(segs) and segs[next_seg].start < mid:
            seg = segs[next_seg]
            next_seg += 1
            running[(seg.task_index, seg.job_id)] = seg
        ready = {k: v for k, v in ready.items() if v[1] is None or v[1] > mid}
        running = {k: seg for k, seg in running.items() if seg.end > mid}
        ranked = sorted(ready, key=lambda k: ready[k][0])
        for rank, (key, machine) in enumerate(zip(ranked, fastest_first)):
            seg = running.get(key)
            if seg is None or seg.machine != machine:
                return [
                    f"at {mid}: job {key}, priority rank {rank} among ready "
                    f"jobs, is not on machine {machine}"
                ]
    return []
