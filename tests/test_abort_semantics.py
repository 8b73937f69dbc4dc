"""Tests for firm-deadline (abort-on-miss) simulation semantics."""

from __future__ import annotations

import pytest

from repro.core.model import Task
from repro.sim.uniprocessor import simulate_taskset_on_machine
from repro.sim.validators import validate_trace


class TestAbortOnMiss:
    def test_schedulable_sets_unaffected(self):
        tasks = [Task(2, 6), Task(2, 8)]
        cont = simulate_taskset_on_machine(tasks, 1.0, "edf", horizon=24)
        abort = simulate_taskset_on_machine(
            tasks, 1.0, "edf", horizon=24, on_miss="abort"
        )
        assert cont.segments == abort.segments
        assert cont.jobs == abort.jobs

    def test_aborted_job_is_incomplete_and_missed(self):
        # two jobs due at 4 needing 6 total: one is cut at its deadline
        tasks = [Task(3, 4), Task(3, 4)]
        trace = simulate_taskset_on_machine(
            tasks, 1.0, "edf", horizon=4, on_miss="abort"
        )
        missed = [j for j in trace.jobs if j.missed]
        assert len(missed) == 1
        assert missed[0].completion is None

    def test_abort_frees_capacity_for_later_jobs(self):
        """In continue mode an overrunning job steals from successors;
        abort mode contains the damage to the offending job."""
        tasks = [Task(5, 4, deadline=4)]  # each job needs 5 in a window of 4
        cont = simulate_taskset_on_machine(tasks, 1.0, "edf", horizon=20)
        abort = simulate_taskset_on_machine(
            tasks, 1.0, "edf", horizon=20, on_miss="abort"
        )
        # continue: backlog snowballs, everything released late misses
        assert all(j.missed for j in cont.jobs if j.deadline <= 20)
        # abort: every job gets its own window; all still miss (5 > 4) but
        # each executes exactly 4 units then dies at its deadline
        for job in abort.jobs:
            if job.deadline <= 20:
                assert job.missed and job.completion is None
        # executed work per aborted job is its full window
        per_job = {}
        for seg in abort.segments:
            per_job.setdefault(seg.job_id, 0.0)
            per_job[seg.job_id] += seg.duration
        assert all(v == pytest.approx(4.0) for v in per_job.values())

    def test_abort_rescues_followers(self):
        # an infeasible heavy job would (in continue mode) delay a light
        # task past its deadline; aborting it saves the light task
        from repro.sim.jobs import PeriodicSource
        from repro.sim.uniprocessor import simulate_uniprocessor

        tasks = [Task(6, 100, deadline=5, name="doomed"), Task(2, 8, name="light")]
        src = lambda: [
            PeriodicSource(tasks[0], 0),
            PeriodicSource(tasks[1], 1, offset=4.0),
        ]
        cont = simulate_uniprocessor(tasks, 1.0, "edf", src(), 13.0)
        abort = simulate_uniprocessor(
            tasks, 1.0, "edf", src(), 13.0, on_miss="abort"
        )
        light_cont = next(j for j in cont.jobs if j.task_index == 1)
        light_abort = next(j for j in abort.jobs if j.task_index == 1)
        assert light_abort.completion < light_cont.completion
        assert not light_abort.missed

    def test_abort_traces_validate(self):
        tasks = [Task(3, 4), Task(3, 5), Task(1, 7)]  # overloaded
        trace = simulate_taskset_on_machine(
            tasks, 1.0, "edf", horizon=140, on_miss="abort"
        )
        assert trace.any_miss
        assert validate_trace(trace, tasks) == []

    def test_stop_on_first_miss_with_abort(self):
        tasks = [Task(3, 4), Task(3, 5)]
        trace = simulate_taskset_on_machine(
            tasks, 1.0, "edf", horizon=100, on_miss="abort",
            stop_on_first_miss=True,
        )
        assert trace.any_miss
        assert trace.horizon < 100
