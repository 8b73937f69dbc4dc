"""Tests for the global (migratory) scheduling simulator."""

from __future__ import annotations

import pytest

from repro.core.model import Platform, Task, TaskSet
from repro.core.partition import first_fit_partition
from repro.sim.global_sched import simulate_global
from repro.sim.validators import validate_trace
from repro.sim.jobs import PeriodicSource
from repro.sim.multiprocessor import simulate_partitioned


def periodic_sources(tasks):
    return [PeriodicSource(t, i) for i, t in enumerate(tasks)]


def run_global(tasks, speeds, policy="edf", horizon=None):
    if horizon is None:
        import math

        horizon = float(math.lcm(*(int(t.period) for t in tasks)))
    return simulate_global(tasks, speeds, policy, periodic_sources(tasks), horizon)


class TestBasics:
    def test_single_machine_matches_uniprocessor_semantics(self):
        tasks = [Task(2, 4), Task(2, 8)]
        trace = run_global(tasks, [1.0])
        assert not trace.any_miss
        assert trace.migrations == 0

    def test_parallel_execution_on_two_machines(self):
        tasks = [Task(2, 4), Task(2, 4)]
        trace = run_global(tasks, [1.0, 1.0])
        assert not trace.any_miss
        # both jobs run simultaneously from t=0
        first_two = sorted(trace.segments, key=lambda s: s.start)[:2]
        assert first_two[0].start == first_two[1].start == 0.0
        assert validate_trace(trace, tasks) == []

    def test_highest_priority_gets_fastest_machine(self):
        tasks = [Task(2, 4, name="hot"), Task(2, 8, name="cold")]
        trace = run_global(tasks, [1.0, 3.0])
        seg0 = min(trace.segments, key=lambda s: (s.start, -trace.speeds[s.machine]))
        assert seg0.task_index == 0  # earliest deadline on the speed-3 machine
        assert trace.speeds[seg0.machine] == 3.0

    def test_validation_inputs(self):
        tasks = [Task(1, 4)]
        with pytest.raises(ValueError):
            simulate_global(tasks, [], "edf", periodic_sources(tasks), 4.0)
        with pytest.raises(ValueError):
            simulate_global(tasks, [1.0], "edf", periodic_sources(tasks), -1.0)

    def test_migration_counting(self):
        # one long job + interfering short jobs on two unequal machines
        # force at least some migration under EDF
        tasks = [Task(6, 12), Task(2, 4)]
        trace = run_global(tasks, [1.0, 2.0], horizon=12.0)
        assert validate_trace(trace, tasks) == []
        assert trace.migrations >= 0  # structurally valid either way


class TestMigrationBeatsPartitioning:
    def test_three_two_thirds_tasks(self):
        """The canonical partitioned-infeasible set (three tasks of
        u=2/3 on two unit machines): no partition exists and the paper's
        LP adversary is feasible (a McNaughton wrap schedules it) — yet
        *global EDF*, despite free migration, also fails (EDF is not
        optimal on multiprocessors).  This is exactly why the paper
        compares against the LP rather than any concrete global policy."""
        from repro.core.lp import lp_feasible

        tasks = [Task(8, 12), Task(8, 12), Task(8, 12)]
        platform = Platform.from_speeds([1.0, 1.0])
        taskset = TaskSet(tasks)
        assert not first_fit_partition(taskset, platform, "edf").success
        assert lp_feasible(taskset, platform)
        trace = run_global(tasks, [1.0, 1.0], horizon=12.0)
        # two jobs hog both machines until t=8; the third cannot finish
        # 8 units of work in the remaining 4
        assert trace.any_miss
        assert validate_trace(trace, tasks) == []

    def test_migration_schedules_light_spillover(self):
        """A set no *single* machine could interleave but migration
        handles: total U just under 2 with per-task u <= 1, light tasks —
        global EDF meets every deadline here."""
        tasks = [Task(3, 4), Task(3, 4), Task(1, 2)]  # U = 1.75 wait <= 2
        trace = run_global(tasks, [1.0, 1.0], horizon=8.0)
        assert not trace.any_miss
        assert validate_trace(trace, tasks) == []


class TestDhallEffect:
    def test_global_edf_dhall_misses_where_partitioning_succeeds(self):
        """Dhall's effect: m light tasks + one heavy task.  Global EDF
        runs the light jobs first (earlier deadlines) and strands the
        heavy one; a partition dedicates a machine to the heavy task."""
        m = 2
        light = [Task(1, 10, name=f"light{i}") for i in range(m)]
        heavy = Task(11.5, 12, name="heavy")  # u ~ 0.958
        tasks = light + [heavy]
        speeds = [1.0] * m

        trace = run_global(tasks, speeds, "edf", horizon=60.0)
        assert trace.any_miss, "Dhall instance should break global EDF"
        assert validate_trace(trace, tasks) == []

        platform = Platform.from_speeds(speeds)
        taskset = TaskSet(tasks)
        result = first_fit_partition(taskset, platform, "edf")
        assert result.success
        sim = simulate_partitioned(taskset, platform, result, "edf", horizon=60.0)
        assert not sim.any_miss

    def test_no_parallel_self_execution_ever(self, rng):
        """Property: across random instances, a job never runs on two
        machines at once and work always accounts (validator clean)."""
        for _ in range(20):
            n = int(rng.integers(2, 6))
            tasks = [
                Task(float(rng.integers(1, 4)), float(rng.integers(4, 12)))
                for _ in range(n)
            ]
            speeds = rng.uniform(0.5, 2.0, size=int(rng.integers(1, 4))).tolist()
            trace = run_global(tasks, speeds, "edf", horizon=48.0)
            assert validate_trace(trace, tasks) == []

    def test_global_rms_also_validates(self, rng):
        tasks = [Task(1, 4), Task(2, 6), Task(2, 9)]
        trace = run_global(tasks, [1.0, 1.0], "rms", horizon=36.0)
        assert validate_trace(trace, tasks) == []
