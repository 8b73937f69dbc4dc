"""Negative tests: the validator must catch corrupted multi-machine traces."""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.model import Task
from repro.sim.global_sched import simulate_global
from repro.sim.jobs import PeriodicSource
from repro.sim.trace import Segment, Trace
from repro.sim.validators import validate_trace

TASKS = [Task(2, 6), Task(2, 8)]


@pytest.fixture
def clean():
    sources = [PeriodicSource(t, i) for i, t in enumerate(TASKS)]
    return simulate_global(TASKS, [1.0, 1.0], "edf", sources, 24.0)


def with_segments(trace: Trace, segments) -> Trace:
    return dataclasses.replace(trace, segments=tuple(segments))


class TestGlobalValidators:
    def test_clean_trace_passes(self, clean):
        assert validate_trace(clean, TASKS) == []

    def test_detects_machine_overlap(self, clean):
        segs = list(clean.segments)
        first = segs[0]
        clone = Segment(
            machine=first.machine,
            start=first.start,
            end=first.end + 0.5,
            task_index=1 - first.task_index,
            job_id=0,
        )
        errors = validate_trace(
            with_segments(clean, segs + [clone]), TASKS
        )
        assert any("overlap" in e for e in errors)

    def test_detects_parallel_self_execution(self, clean):
        segs = list(clean.segments)
        first = segs[0]
        other_machine = 1 - first.machine
        ghost = Segment(
            machine=other_machine,
            start=first.start,
            end=first.end,
            task_index=first.task_index,
            job_id=first.job_id,
        )
        errors = validate_trace(
            with_segments(clean, segs + [ghost]), TASKS
        )
        assert any("two machines" in e for e in errors)

    def test_detects_pre_release_execution(self, clean):
        jobs = [
            dataclasses.replace(j, release=j.release + 1.0)
            if (j.task_index, j.job_id) == (0, 0)
            else j
            for j in clean.jobs
        ]
        corrupted = dataclasses.replace(clean, jobs=tuple(jobs))
        errors = validate_trace(corrupted, TASKS)
        assert any("before release" in e for e in errors)

    def test_detects_phantom_segments(self, clean):
        phantom = Segment(
            machine=0, start=20.0, end=21.0, task_index=9, job_id=0
        )
        errors = validate_trace(
            with_segments(clean, list(clean.segments) + [phantom]), TASKS
        )
        assert any("no job record" in e for e in errors)

    def test_detects_wrong_work_accounting(self, clean):
        segs = [
            Segment(
                machine=s.machine,
                start=s.start,
                end=s.end - 0.5 if i == 0 else s.end,
                task_index=s.task_index,
                job_id=s.job_id,
            )
            for i, s in enumerate(clean.segments)
        ]
        errors = validate_trace(with_segments(clean, segs), TASKS)
        assert errors

    def test_detects_inconsistent_miss_flag(self, clean):
        jobs = tuple(dataclasses.replace(j, missed=True) for j in clean.jobs)
        corrupted = dataclasses.replace(clean, jobs=jobs)
        errors = validate_trace(corrupted, TASKS)
        assert any("missed flag" in e for e in errors)

    def test_detects_dispatch_out_of_priority_order(self):
        # one machine runs job (1, 0) first although (0, 0) has the
        # earlier deadline; the work accounting alone still adds up
        tasks = [Task(2, 6), Task(2, 8)]
        sources = [PeriodicSource(t, i) for i, t in enumerate(tasks)]
        trace = simulate_global(tasks, [1.0], "edf", sources, 6.0)
        first, second = trace.segments[:2]
        swapped = [
            dataclasses.replace(first, task_index=second.task_index, job_id=second.job_id),
            dataclasses.replace(second, task_index=first.task_index, job_id=first.job_id),
        ]
        errors = validate_trace(
            with_segments(trace, swapped + list(trace.segments[2:])), tasks
        )
        assert any("priority rank 0" in e for e in errors)
