"""Tests for the simplified (1+eps) dual-approximation test."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.exact import exact_partitioned_edf_feasible
from repro.baselines.ptas import ptas_feasibility_test
from repro.core.model import Platform, Task, TaskSet


def ts(*utils):
    return TaskSet(Task.from_utilization(u, 10.0) for u in utils)


class TestPTASBasics:
    def test_trivial_feasible(self):
        res = ptas_feasibility_test(ts(0.5), Platform.from_speeds([1.0]))
        assert res.feasible
        assert res.assignment == (0,)

    def test_total_overload_infeasible(self):
        res = ptas_feasibility_test(ts(0.9, 0.9), Platform.from_speeds([1.0]))
        assert not res.feasible
        assert res.assignment is None

    def test_invalid_eps(self):
        with pytest.raises(ValueError):
            ptas_feasibility_test(ts(0.5), Platform.from_speeds([1.0]), eps=0.0)

    def test_empty_taskset(self):
        res = ptas_feasibility_test(TaskSet([]), Platform.from_speeds([1.0]))
        assert res.feasible
        assert res.assignment == ()

    def test_sand_only_instance(self):
        # all tasks below eps*s_min: pure pouring
        res = ptas_feasibility_test(
            ts(0.01, 0.02, 0.015), Platform.from_speeds([1.0]), eps=0.25
        )
        assert res.feasible
        assert res.size_classes == 0

    def test_smaller_eps_more_classes(self):
        taskset = ts(0.9, 0.7, 0.5, 0.3, 0.2)
        platform = Platform.from_speeds([1.0, 1.0])
        coarse = ptas_feasibility_test(taskset, platform, eps=0.5)
        fine = ptas_feasibility_test(taskset, platform, eps=0.1)
        assert fine.size_classes >= coarse.size_classes


class TestPTASSoundness:
    """The dual-approximation guarantees:

    * feasible verdict => the returned assignment respects (1+eps)-
      augmented capacities;
    * infeasible verdict => the exact adversary agrees at speed 1.
    """

    @given(
        st.lists(st.floats(min_value=0.02, max_value=1.0), min_size=1, max_size=10),
        st.lists(st.floats(min_value=0.3, max_value=2.0), min_size=1, max_size=3),
        st.sampled_from([0.1, 0.25, 0.5]),
    )
    @settings(max_examples=80, deadline=None)
    def test_feasible_assignment_respects_augmented_capacity(
        self, utils, speeds, eps
    ):
        taskset = TaskSet(Task.from_utilization(u, 10.0) for u in utils)
        platform = Platform.from_speeds(speeds)
        res = ptas_feasibility_test(taskset, platform, eps=eps)
        if not res.feasible:
            return
        assert res.assignment is not None
        loads = [0.0] * len(platform)
        for i, j in enumerate(res.assignment):
            loads[j] += taskset[i].utilization
        for j, load in enumerate(loads):
            assert load <= (1 + eps) * platform[j].speed * (1 + 1e-9)

    @given(
        st.lists(st.floats(min_value=0.05, max_value=1.0), min_size=1, max_size=8),
        st.lists(st.floats(min_value=0.3, max_value=1.5), min_size=1, max_size=3),
        st.sampled_from([0.15, 0.3]),
    )
    @settings(max_examples=60, deadline=None)
    def test_infeasible_verdict_is_sound(self, utils, speeds, eps):
        taskset = TaskSet(Task.from_utilization(u, 10.0) for u in utils)
        platform = Platform.from_speeds(speeds)
        res = ptas_feasibility_test(taskset, platform, eps=eps)
        if not res.feasible:
            assert exact_partitioned_edf_feasible(taskset, platform) is False

    @given(
        st.lists(st.floats(min_value=0.05, max_value=1.0), min_size=1, max_size=8),
        st.lists(st.floats(min_value=0.3, max_value=1.5), min_size=1, max_size=3),
    )
    @settings(max_examples=60, deadline=None)
    def test_exact_feasible_implies_ptas_feasible(self, utils, speeds):
        """completeness direction: a true packing survives rounding."""
        taskset = TaskSet(Task.from_utilization(u, 10.0) for u in utils)
        platform = Platform.from_speeds(speeds)
        if exact_partitioned_edf_feasible(taskset, platform) is True:
            assert ptas_feasibility_test(taskset, platform, eps=0.25).feasible
