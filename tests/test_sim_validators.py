"""The validator must catch corrupted one-machine traces (negative tests)."""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.model import Task
from repro.sim.global_sched import simulate_global
from repro.sim.jobs import PeriodicSource
from repro.sim.policies import RMSPolicy
from repro.sim.trace import JobRecord, Segment, Trace
from repro.sim.uniprocessor import simulate_taskset_on_machine
from repro.sim.validators import validate_trace

TASKS = [Task(2, 6), Task(2, 8)]


@pytest.fixture
def clean_trace():
    return simulate_taskset_on_machine(TASKS, 1.0, "edf", horizon=24)


def _replace_segments(trace: Trace, segments) -> Trace:
    return dataclasses.replace(trace, segments=tuple(segments))


def _replace_jobs(trace: Trace, jobs) -> Trace:
    return dataclasses.replace(trace, jobs=tuple(jobs))


class TestValidateTrace:
    def test_clean_trace_passes(self, clean_trace):
        assert validate_trace(clean_trace, TASKS) == []

    def test_detects_overlapping_segments(self, clean_trace):
        segs = list(clean_trace.segments)
        bad = Segment(
            machine=0,
            start=segs[0].start,
            end=segs[0].end + 0.5,
            task_index=segs[0].task_index,
            job_id=segs[0].job_id,
        )
        corrupted = _replace_segments(clean_trace, [bad] + segs[1:])
        assert any("overlap" in e for e in validate_trace(corrupted, TASKS))

    def test_detects_execution_before_release(self, clean_trace):
        jobs = [
            dataclasses.replace(j, release=j.release + 1.0)
            if j.job_id == 0 and j.task_index == 0
            else j
            for j in clean_trace.jobs
        ]
        corrupted = _replace_jobs(clean_trace, jobs)
        errors = validate_trace(corrupted, TASKS)
        assert any("before release" in e for e in errors)

    def test_detects_wrong_executed_amount(self, clean_trace):
        # shrink one segment: completed job no longer accounts for its work
        segs = list(clean_trace.segments)
        segs[0] = Segment(
            machine=0,
            start=segs[0].start,
            end=segs[0].end - 0.5,
            task_index=segs[0].task_index,
            job_id=segs[0].job_id,
        )
        corrupted = _replace_segments(clean_trace, segs)
        errors = validate_trace(corrupted, TASKS)
        assert errors  # either work mismatch or completion mismatch

    def test_detects_inconsistent_miss_flag(self, clean_trace):
        jobs = [
            dataclasses.replace(j, missed=True) for j in clean_trace.jobs
        ]
        corrupted = _replace_jobs(clean_trace, jobs)
        errors = validate_trace(corrupted, TASKS)
        assert any("missed flag" in e for e in errors)

    def test_detects_phantom_segment(self, clean_trace):
        phantom = Segment(machine=0, start=20.0, end=21.0, task_index=9, job_id=0)
        corrupted = _replace_segments(
            clean_trace, list(clean_trace.segments) + [phantom]
        )
        errors = validate_trace(corrupted, TASKS)
        assert any("no job record" in e for e in errors)


class TestPolicyCompliance:
    def test_detects_priority_inversion(self):
        # hand-built trace: the long-deadline job runs while a
        # short-deadline job is ready
        tasks = [Task(2, 10), Task(2, 4)]
        segments = (
            Segment(machine=0, start=0.0, end=2.0, task_index=0, job_id=0),  # wrong: t1 ready
            Segment(machine=0, start=2.0, end=4.0, task_index=1, job_id=0),
        )
        jobs = (
            JobRecord(0, 0, 0.0, 10.0, 2.0, 2.0, False),
            JobRecord(1, 0, 0.0, 4.0, 2.0, 4.0, False),
        )
        trace = Trace(
            speeds=(1.0,),
            horizon=10.0,
            policy_name="edf",
            on_miss="continue",
            segments=segments,
            jobs=jobs,
        )
        errors = validate_trace(trace, tasks)
        assert any("higher-priority" in e for e in errors)

    def test_detects_non_work_conserving_idle(self):
        tasks = [Task(2, 10)]
        segments = (Segment(machine=0, start=3.0, end=5.0, task_index=0, job_id=0),)
        jobs = (JobRecord(0, 0, 0.0, 10.0, 2.0, 5.0, False),)
        trace = Trace(
            speeds=(1.0,),
            horizon=10.0,
            policy_name="edf",
            on_miss="continue",
            segments=segments,
            jobs=jobs,
        )
        errors = validate_trace(trace, tasks)
        assert any("idle gap" in e for e in errors)

    def test_detects_missed_preemption(self):
        # job released mid-segment with higher priority, not preempted
        tasks = [Task(4, 20), Task(1, 3)]
        segments = (
            Segment(machine=0, start=0.0, end=4.0, task_index=0, job_id=0),
            Segment(machine=0, start=4.0, end=5.0, task_index=1, job_id=0),
        )
        jobs = (
            JobRecord(0, 0, 0.0, 20.0, 4.0, 4.0, False),
            JobRecord(1, 0, 1.0, 4.0, 1.0, 5.0, True),
        )
        trace = Trace(
            speeds=(1.0,),
            horizon=20.0,
            policy_name="edf",
            on_miss="continue",
            segments=segments,
            jobs=jobs,
        )
        errors = validate_trace(trace, tasks)
        assert any("did not preempt" in e for e in errors)


class TestMissedJobReadiness:
    """An unfinished job that missed its deadline stays ready on a
    continue-mode trace and leaves at the deadline on an abort-mode one."""

    TASKS = [Task(5, 8, deadline=4)]

    @staticmethod
    def _trace(on_miss):
        # a 5-unit job due at 4 runs over [0, 4], then the machine idles
        return Trace(
            speeds=(1.0,),
            horizon=8.0,
            policy_name="edf",
            on_miss=on_miss,
            segments=(Segment(machine=0, start=0.0, end=4.0, task_index=0, job_id=0),),
            jobs=(JobRecord(0, 0, 0.0, 4.0, 5.0, None, True),),
        )

    def test_continue_mode_idle_after_the_deadline_is_flagged(self):
        errors = validate_trace(self._trace("continue"), self.TASKS)
        assert any("idle gap [4.0, 8.0]" in e for e in errors)

    def test_abort_mode_idle_after_the_deadline_passes(self):
        assert validate_trace(self._trace("abort"), self.TASKS) == []


class TestPlantedEngineFault:
    """A fault planted in the policy the simulator dispatches by is caught,
    because the validator derives priorities itself."""

    TASKS = [Task(1, 8) for _ in range(4)]  # equal periods: every pick is a tie

    @pytest.fixture(autouse=True)
    def _rms_inverted_on_ties(self, monkeypatch):
        def key(self, job, tasks):
            return (tasks[job.task_index].period, -job.task_index, job.job_id)

        monkeypatch.setattr(RMSPolicy, "key", key)

    def test_caught_on_one_machine(self):
        trace = simulate_taskset_on_machine(self.TASKS, 1.0, "rms", horizon=16)
        assert not trace.any_miss  # the fault breaks no deadline
        errors = validate_trace(trace, self.TASKS)
        assert any("higher-priority job (0, 0) (priority rank 0)" in e for e in errors)

    def test_caught_on_three_machines(self):
        sources = [PeriodicSource(t, i) for i, t in enumerate(self.TASKS)]
        trace = simulate_global(self.TASKS, [1.0, 1.0, 1.0], "rms", sources, 16.0)
        assert not trace.any_miss
        errors = validate_trace(trace, self.TASKS)
        assert any("higher-priority job (0, 0) (priority rank 0)" in e for e in errors)
