"""Behavioural tests for the uniprocessor simulator."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.model import Task
from repro.sim.jobs import PeriodicSource
from repro.sim.uniprocessor import simulate_taskset_on_machine, simulate_uniprocessor
from repro.sim.validators import validate_trace


class TestBasicExecution:
    def test_single_job_runs_to_completion(self):
        tasks = [Task(3, 10)]
        trace = simulate_taskset_on_machine(tasks, 1.0, "edf", horizon=10)
        assert len(trace.jobs) == 1
        job = trace.jobs[0]
        assert job.completion == pytest.approx(3.0)
        assert not job.missed
        assert trace.busy_time == pytest.approx(3.0)

    def test_speed_divides_execution_time(self):
        tasks = [Task(3, 10)]
        trace = simulate_taskset_on_machine(tasks, 3.0, "edf", horizon=10)
        assert trace.jobs[0].completion == pytest.approx(1.0)

    def test_two_jobs_sequential_edf(self):
        tasks = [Task(2, 4), Task(2, 8)]
        trace = simulate_taskset_on_machine(tasks, 1.0, "edf", horizon=8)
        # t0 (deadline 4) runs first, then t1
        first = next(j for j in trace.jobs if j.task_index == 0 and j.job_id == 0)
        second = next(j for j in trace.jobs if j.task_index == 1 and j.job_id == 0)
        assert first.completion == pytest.approx(2.0)
        assert second.completion == pytest.approx(4.0)

    def test_preemption_by_earlier_deadline(self):
        # long job starts; short-period task released later preempts (EDF)
        tasks = [Task(5, 20), Task(1, 3)]
        sources = [
            PeriodicSource(tasks[0], 0),
            PeriodicSource(tasks[1], 1, offset=1.0),
        ]
        trace = simulate_uniprocessor(tasks, 1.0, "edf", sources, horizon=10)
        # task 1's job released at 1 with deadline 4 preempts task 0 (deadline 20)
        seg_tasks = [(s.task_index, s.start) for s in trace.segments]
        assert seg_tasks[0] == (0, 0.0)
        assert seg_tasks[1][0] == 1 and seg_tasks[1][1] == pytest.approx(1.0)

    def test_rms_static_preemption(self):
        tasks = [Task(4, 10), Task(1, 2)]
        trace = simulate_taskset_on_machine(tasks, 1.0, "rms", horizon=10)
        # task 1 (period 2) preempts task 0 at every release
        t1_jobs = [j for j in trace.jobs if j.task_index == 1]
        assert all(j.completion == pytest.approx(j.release + 1) for j in t1_jobs)
        assert not trace.any_miss

    def test_idle_time_between_bursts(self):
        tasks = [Task(1, 10)]
        trace = simulate_taskset_on_machine(tasks, 1.0, "edf", horizon=20)
        assert trace.busy_time == pytest.approx(2.0)
        assert len(trace.jobs) == 2

    def test_horizon_truncates_releases(self):
        tasks = [Task(1, 4)]
        trace = simulate_taskset_on_machine(tasks, 1.0, "edf", horizon=9)
        # releases at 0, 4, 8 -> 8 is within horizon
        assert len(trace.jobs) == 3


class TestDeadlineMisses:
    def test_overload_misses(self):
        tasks = [Task(3, 4), Task(3, 5)]  # U = 1.35
        trace = simulate_taskset_on_machine(tasks, 1.0, "edf", horizon=20)
        assert trace.any_miss

    def test_boundary_exactly_meets(self):
        tasks = [Task(2, 4), Task(2, 4)]  # U = 1.0, same deadline
        trace = simulate_taskset_on_machine(tasks, 1.0, "edf", horizon=8)
        assert not trace.any_miss

    def test_stop_on_first_miss_shortens_run(self):
        tasks = [Task(3, 4), Task(3, 5)]
        full = simulate_taskset_on_machine(tasks, 1.0, "edf", horizon=100)
        short = simulate_taskset_on_machine(
            tasks, 1.0, "edf", horizon=100, stop_on_first_miss=True
        )
        assert short.any_miss
        assert short.horizon <= full.horizon
        assert len(short.jobs) <= len(full.jobs)

    def test_incomplete_job_without_deadline_in_span_not_missed(self):
        tasks = [Task(8, 100)]
        trace = simulate_taskset_on_machine(tasks, 1.0, "edf", horizon=5)
        job = trace.jobs[0]
        assert job.completion is None
        assert not job.missed  # deadline 100 beyond horizon 5


class TestInputValidation:
    def test_negative_speed(self):
        with pytest.raises(ValueError):
            simulate_taskset_on_machine([Task(1, 2)], 0.0, "edf", horizon=5)

    def test_negative_horizon(self):
        with pytest.raises(ValueError):
            simulate_uniprocessor([Task(1, 2)], 1.0, "edf", [], -1.0)

    def test_sporadic_needs_rng(self):
        with pytest.raises(ValueError):
            simulate_taskset_on_machine(
                [Task(1, 2)], 1.0, "edf", release="sporadic", horizon=5
            )

    def test_unknown_release(self):
        with pytest.raises(ValueError):
            simulate_taskset_on_machine(
                [Task(1, 2)], 1.0, "edf", release="burst", horizon=5  # type: ignore[arg-type]
            )


class TestAgainstTheory:
    """The simulator must reproduce Theorems II.2 and II.3."""

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=5),
                st.sampled_from([4, 5, 6, 8, 10, 12]),
            ),
            min_size=1,
            max_size=5,
        ),
        st.sampled_from([1.0, 1.5, 2.0]),
    )
    @settings(max_examples=80, deadline=None)
    def test_edf_utilization_theorem(self, spec, speed):
        """Theorem II.2: sum w <= s  <=>  EDF meets all deadlines
        (synchronous periodic, over the hyperperiod; <= is exact for
        implicit deadlines)."""
        tasks = [Task(float(c), float(p)) for c, p in spec]
        total = sum(t.utilization for t in tasks)
        trace = simulate_taskset_on_machine(tasks, speed, "edf")
        if total <= speed * (1 - 1e-9):
            assert not trace.any_miss
        elif total > speed * (1 + 1e-9):
            assert trace.any_miss
        # exactly at the boundary: schedulable (closed condition)
        else:
            assert not trace.any_miss

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=3),
                st.sampled_from([5, 8, 10, 16, 20]),
            ),
            min_size=1,
            max_size=5,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_rms_liu_layland_sufficiency(self, spec):
        """Theorem II.3: LL-bound acceptance => RMS meets all deadlines."""
        tasks = [Task(float(c), float(p)) for c, p in spec]
        n = len(tasks)
        total = sum(t.utilization for t in tasks)
        if total <= n * (2 ** (1 / n) - 1):
            trace = simulate_taskset_on_machine(tasks, 1.0, "rms")
            assert not trace.any_miss

    def test_every_random_trace_validates(self, rng):
        for _ in range(25):
            n = int(rng.integers(1, 6))
            tasks = [
                Task(float(rng.integers(1, 4)), float(rng.integers(3, 16)))
                for _ in range(n)
            ]
            policy = "edf" if rng.random() < 0.5 else "rms"
            trace = simulate_taskset_on_machine(
                tasks, float(rng.uniform(0.5, 2.0)), policy
            )
            assert validate_trace(trace, tasks) == []

    def test_sporadic_traces_validate(self, rng):
        tasks = [Task(1, 4), Task(2, 7), Task(1, 9)]
        trace = simulate_taskset_on_machine(
            tasks, 1.0, "edf", release="sporadic", rng=rng, horizon=100
        )
        assert validate_trace(trace, tasks) == []
        assert not trace.any_miss  # U < 1 and sporadic only adds slack
