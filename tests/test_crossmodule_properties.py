"""Heavier cross-module invariants, property-based.

These tie together components that individually pass their unit tests
but could still disagree: analytical tests vs the simulator, incremental
vs one-shot admissions inside full partition runs, the LP vs exact
adversaries, serialization vs verdicts, and speed-augmentation algebra.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.exact import exact_partitioned_edf_feasible
from repro.core.lp import lp_feasible, lp_stress
from repro.core.model import Platform, Task, TaskSet
from repro.core.partition import first_fit_partition
from repro.io_.serialize import (
    platform_from_dict,
    platform_to_dict,
    taskset_from_dict,
    taskset_to_dict,
)
from repro.sim.multiprocessor import simulate_partitioned
from repro.sim.validators import validate_trace

task_strategy = st.builds(
    Task,
    wcet=st.integers(min_value=1, max_value=6).map(float),
    period=st.sampled_from([4.0, 5.0, 6.0, 8.0, 10.0, 12.0]),
)
taskset_strategy = st.lists(task_strategy, min_size=1, max_size=8).map(TaskSet)
platform_strategy = st.lists(
    st.floats(min_value=0.25, max_value=4.0), min_size=1, max_size=4
).map(Platform.from_speeds)


class TestAugmentationAlgebra:
    @given(taskset_strategy, platform_strategy, st.floats(min_value=1.0, max_value=3.0))
    @settings(max_examples=80, deadline=None)
    def test_alpha_equals_scaled_platform(self, taskset, platform, alpha):
        """Partitioning with augmentation alpha is identical to
        partitioning the alpha-scaled platform at alpha = 1."""
        a = first_fit_partition(taskset, platform, "edf", alpha=alpha)
        b = first_fit_partition(taskset, platform.scaled(alpha), "edf", alpha=1.0)
        assert a.success == b.success
        assert a.assignment == b.assignment

    @given(taskset_strategy, platform_strategy, st.floats(min_value=0.5, max_value=2.0))
    @settings(max_examples=60, deadline=None)
    def test_lp_stress_scaling(self, taskset, platform, factor):
        """beta* scales linearly with the task set and inversely with the
        platform: stress(f * ts, pf) == f * stress(ts, pf)."""
        base = lp_stress(taskset, platform)
        scaled = lp_stress(taskset.scaled(factor), platform)
        assert scaled == pytest.approx(factor * base, rel=1e-5, abs=1e-7)

    @given(taskset_strategy, platform_strategy)
    @settings(max_examples=60, deadline=None)
    def test_lp_stress_vs_trivial_lower_bound(self, taskset, platform):
        """beta* is at least the capacity ratio U / S and at least the
        largest single-task density w_max / s_max."""
        beta = lp_stress(taskset, platform)
        assert beta >= taskset.total_utilization / platform.total_speed - 1e-7
        assert beta >= taskset.max_utilization / platform.fastest_speed - 1e-7


class TestVerdictConsistency:
    @given(taskset_strategy, platform_strategy)
    @settings(max_examples=40, deadline=None)
    def test_ff_accept_implies_every_oracle_accepts(self, taskset, platform):
        if first_fit_partition(taskset, platform, "edf").success:
            assert exact_partitioned_edf_feasible(taskset, platform) is True
            assert lp_feasible(taskset, platform)

    @given(taskset_strategy, platform_strategy)
    @settings(max_examples=25, deadline=None)
    def test_accepted_partition_simulates_clean(self, taskset, platform):
        """The acceptance contract end-to-end: FF at alpha=1 accepted =>
        zero misses at real speed, and the trace audits clean."""
        result = first_fit_partition(taskset, platform, "edf")
        if not result.success:
            return
        sim = simulate_partitioned(taskset, platform, result, "edf")
        assert not sim.any_miss
        for trace in sim.traces:
            assert validate_trace(trace, taskset.tasks) == []

    @given(taskset_strategy, platform_strategy)
    @settings(max_examples=60, deadline=None)
    def test_serialization_preserves_verdicts(self, taskset, platform):
        ts2 = taskset_from_dict(taskset_to_dict(taskset))
        pf2 = platform_from_dict(platform_to_dict(platform))
        for alpha in (1.0, 2.0):
            a = first_fit_partition(taskset, platform, "edf", alpha=alpha)
            b = first_fit_partition(ts2, pf2, "edf", alpha=alpha)
            assert a.assignment == b.assignment
            assert a.loads == b.loads


class TestRMSLadderUnderPartitioning:
    @given(taskset_strategy, platform_strategy)
    @settings(max_examples=50, deadline=None)
    def test_one_shot_ladder_on_ff_outputs(self, taskset, platform):
        """Whatever set first-fit puts on a machine under the LL
        admission must also pass hyperbolic and RTA there (sufficiency
        ladder applied to real partitions)."""
        from repro.core.bounds import (
            rms_hyperbolic_feasible,
            rms_rta_feasible,
        )

        result = first_fit_partition(taskset, platform, "rms-ll", alpha=2.0)
        if not result.success:
            return
        for j, idxs in enumerate(result.machine_tasks):
            members = [taskset[i] for i in idxs]
            speed = platform[j].speed * 2.0
            assert rms_hyperbolic_feasible(members, speed)
            assert rms_rta_feasible(members, speed)
