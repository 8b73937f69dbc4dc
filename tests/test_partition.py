"""Unit and property tests for repro.core.partition."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.model import Platform, Task, TaskSet
from repro.core.partition import (
    first_fit_partition,
    partition,
    verify_partition,
)


def ts(*utils):
    return TaskSet(Task.from_utilization(u, 10.0 * (i + 1)) for i, u in enumerate(utils))


class TestFirstFitBasics:
    def test_single_task_single_machine(self):
        r = first_fit_partition(ts(0.5), Platform.from_speeds([1.0]))
        assert r.success
        assert r.assignment == (0,)
        assert r.loads == (pytest.approx(0.5),)

    def test_task_too_big_fails(self):
        r = first_fit_partition(ts(1.5), Platform.from_speeds([1.0]))
        assert not r.success
        assert r.failed_task == 0
        assert r.assignment == (None,)

    def test_speed_augmentation_rescues(self):
        platform = Platform.from_speeds([1.0])
        assert not first_fit_partition(ts(1.5), platform).success
        assert first_fit_partition(ts(1.5), platform, alpha=2.0).success

    def test_prefers_slowest_feasible_machine(self):
        platform = Platform.from_speeds([1.0, 10.0])
        r = first_fit_partition(ts(0.5), platform)
        assert r.assignment == (0,)  # slow machine first

    def test_big_task_goes_to_fast_machine(self):
        platform = Platform.from_speeds([1.0, 10.0])
        r = first_fit_partition(ts(5.0, 0.5), platform)
        assert r.success
        assert r.assignment[0] == 1
        assert r.assignment[1] == 0

    def test_processes_tasks_in_decreasing_utilization(self):
        taskset = ts(0.1, 0.9, 0.5)
        r = first_fit_partition(taskset, Platform.from_speeds([2.0]))
        assert [taskset[i].utilization for i in r.order] == [0.9, 0.5, 0.1]

    def test_stops_at_first_failure(self):
        # 0.9 placed; 0.8 fails; 0.1 never attempted
        taskset = ts(0.1, 0.9, 0.8)
        r = first_fit_partition(taskset, Platform.from_speeds([1.0]))
        assert not r.success
        assert r.failed_task == 2  # the 0.8 task (original index 2)
        assert r.assignment == (None, 0, None)

    def test_machine_tasks_consistent_with_assignment(self):
        taskset = ts(0.6, 0.6, 0.3, 0.2)
        platform = Platform.from_speeds([1.0, 1.0])
        r = first_fit_partition(taskset, platform)
        assert r.success
        for j, idxs in enumerate(r.machine_tasks):
            for i in idxs:
                assert r.assignment[i] == j

    def test_empty_taskset(self):
        r = first_fit_partition(TaskSet([]), Platform.from_speeds([1.0]))
        assert r.success
        assert r.n_assigned == 0

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            first_fit_partition(ts(0.5), Platform.from_speeds([1.0]), alpha=0.0)

    def test_rms_ll_admission(self):
        # two tasks of 0.45 exceed the 2-task LL bound 0.828 on one machine
        taskset = ts(0.45, 0.45)
        platform = Platform.from_speeds([1.0, 1.0])
        r = first_fit_partition(taskset, platform, "rms-ll")
        assert r.success
        assert r.assignment[0] != r.assignment[1]

    def test_result_metadata(self):
        r = first_fit_partition(ts(0.5), Platform.from_speeds([1.0]), alpha=1.5)
        assert r.alpha == 1.5
        assert r.test_name == "edf"


class TestStrategyKnobs:
    def test_unknown_orders_rejected(self):
        taskset, platform = ts(0.5), Platform.from_speeds([1.0])
        with pytest.raises(ValueError):
            partition(taskset, platform, task_order="bogus")  # type: ignore[arg-type]
        with pytest.raises(ValueError):
            partition(taskset, platform, machine_order="bogus")  # type: ignore[arg-type]
        with pytest.raises(ValueError):
            partition(taskset, platform, fit="bogus")  # type: ignore[arg-type]

    def test_machine_order_desc(self):
        platform = Platform.from_speeds([1.0, 10.0])
        r = partition(ts(0.5), platform, machine_order="speed-desc")
        assert r.assignment == (1,)

    def test_best_fit_picks_fullest(self):
        platform = Platform.from_speeds([1.0, 1.0])
        # place 0.5 (m0 by first-fit part of best: both empty, equal fill -> first),
        # then 0.3 best-fit -> machine with 0.5 (fuller)
        r = partition(ts(0.5, 0.3), platform, fit="best")
        assert r.assignment[0] == r.assignment[1]

    def test_worst_fit_spreads(self):
        platform = Platform.from_speeds([1.0, 1.0])
        r = partition(ts(0.5, 0.3), platform, fit="worst")
        assert r.assignment[0] != r.assignment[1]

    def test_next_fit_advances_pointer(self):
        platform = Platform.from_speeds([1.0, 1.0, 1.0])
        r = partition(ts(0.9, 0.9, 0.9), platform, fit="next")
        assert r.success
        assert sorted(a for a in r.assignment) == [0, 1, 2]

    def test_input_task_order(self):
        taskset = ts(0.1, 0.9)
        r = partition(taskset, Platform.from_speeds([1.0]), task_order="input")
        assert list(r.order) == [0, 1]


class TestVerifyPartition:
    def test_successful_partition_verifies(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 12))
            utils = rng.uniform(0.05, 0.6, size=n)
            taskset = TaskSet(
                Task.from_utilization(float(u), float(rng.uniform(5, 50)))
                for u in utils
            )
            platform = Platform.from_speeds(rng.uniform(0.5, 3.0, size=4).tolist())
            for test in ("edf", "rms-ll"):
                r = first_fit_partition(taskset, platform, test, alpha=2.5)
                if r.success:
                    assert verify_partition(r, taskset, platform)

    def test_failed_partition_does_not_verify(self):
        r = first_fit_partition(ts(1.5), Platform.from_speeds([1.0]))
        assert not verify_partition(r, ts(1.5), Platform.from_speeds([1.0]))


class TestFirstFitProperties:
    @given(
        st.lists(st.floats(min_value=0.01, max_value=1.5), min_size=1, max_size=14),
        st.lists(st.floats(min_value=0.2, max_value=4.0), min_size=1, max_size=5),
        st.floats(min_value=1.0, max_value=3.0),
    )
    @settings(max_examples=120, deadline=None)
    def test_loads_respect_augmented_capacity(self, utils, speeds, alpha):
        taskset = TaskSet(
            Task.from_utilization(u, 10.0) for u in utils
        )
        platform = Platform.from_speeds(speeds)
        r = first_fit_partition(taskset, platform, "edf", alpha=alpha)
        for j, load in enumerate(r.loads):
            assert load <= alpha * platform[j].speed * (1 + 1e-9)

    @given(
        st.lists(st.floats(min_value=0.01, max_value=0.9), min_size=1, max_size=12),
        st.lists(st.floats(min_value=0.5, max_value=2.0), min_size=1, max_size=4),
    )
    @settings(max_examples=120, deadline=None)
    def test_failure_certificate_condition(self, utils, speeds):
        """On failure, no machine could fit the failing task: for every
        machine, load + w_n exceeds the augmented capacity (EDF)."""
        taskset = TaskSet(Task.from_utilization(u, 10.0) for u in utils)
        platform = Platform.from_speeds(speeds)
        r = first_fit_partition(taskset, platform, "edf")
        if r.success:
            return
        w_n = taskset[r.failed_task].utilization
        for j, load in enumerate(r.loads):
            assert load + w_n > platform[j].speed * (1 - 1e-9)

    @given(
        st.lists(st.floats(min_value=0.01, max_value=0.9), min_size=1, max_size=10),
        st.lists(st.floats(min_value=0.5, max_value=2.0), min_size=1, max_size=4),
    )
    @settings(max_examples=80, deadline=None)
    def test_every_task_assigned_once_on_success(self, utils, speeds):
        taskset = TaskSet(Task.from_utilization(u, 10.0) for u in utils)
        platform = Platform.from_speeds(speeds)
        r = first_fit_partition(taskset, platform, "edf", alpha=2.0)
        if not r.success:
            return
        seen = [i for idxs in r.machine_tasks for i in idxs]
        assert sorted(seen) == list(range(len(taskset)))
        assert verify_partition(r, taskset, platform)
