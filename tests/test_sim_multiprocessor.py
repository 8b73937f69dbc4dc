"""Tests for partitioned multiprocessor simulation."""

from __future__ import annotations

import pytest

from repro.core.model import Platform, Task, TaskSet
from repro.core.partition import first_fit_partition
from repro.sim.multiprocessor import simulate_partitioned
from repro.sim.validators import validate_trace
from repro.workloads.builder import partitioned_feasible_instance
from repro.workloads.platforms import geometric_platform


def ts(*utils):
    return TaskSet(
        Task.from_utilization(u, float(4 * (i + 1))) for i, u in enumerate(utils)
    )


class TestSimulatePartitioned:
    def test_explicit_assignment(self):
        taskset = ts(0.5, 0.5)
        platform = Platform.from_speeds([1.0, 1.0])
        sim = simulate_partitioned(taskset, platform, [0, 1], "edf")
        assert not sim.any_miss
        assert sim.assignment == (0, 1)
        assert len(sim.traces) == 2

    def test_partition_result_input(self):
        taskset = ts(0.4, 0.4, 0.4)
        platform = Platform.from_speeds([1.0, 1.0])
        result = first_fit_partition(taskset, platform, "edf")
        assert result.success
        sim = simulate_partitioned(taskset, platform, result, "edf")
        assert not sim.any_miss
        assert sim.total_jobs > 0

    def test_failed_partition_rejected(self):
        taskset = ts(0.9, 0.9, 0.9)
        platform = Platform.from_speeds([1.0])
        result = first_fit_partition(taskset, platform, "edf")
        assert not result.success
        with pytest.raises(ValueError):
            simulate_partitioned(taskset, platform, result, "edf")

    def test_wrong_length_assignment(self):
        with pytest.raises(ValueError):
            simulate_partitioned(
                ts(0.5, 0.5), Platform.from_speeds([1.0]), [0], "edf"
            )

    def test_out_of_range_machine(self):
        with pytest.raises(ValueError):
            simulate_partitioned(
                ts(0.5), Platform.from_speeds([1.0]), [3], "edf"
            )

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            simulate_partitioned(
                ts(0.5), Platform.from_speeds([1.0]), [0], "edf", alpha=0.0
            )

    def test_empty_machines_get_empty_traces(self):
        taskset = ts(0.5)
        platform = Platform.from_speeds([1.0, 1.0, 1.0])
        sim = simulate_partitioned(taskset, platform, [0], "edf")
        assert len(sim.traces) == 3
        assert sim.traces[1].jobs == ()
        assert sim.traces[2].jobs == ()

    def test_overloaded_machine_misses(self):
        taskset = ts(0.7, 0.7)
        platform = Platform.from_speeds([1.0, 1.0])
        sim = simulate_partitioned(
            taskset, platform, [0, 0], "edf", horizon=100.0
        )
        assert sim.any_miss
        assert sim.total_misses > 0

    def test_alpha_rescues_overload(self):
        taskset = ts(0.7, 0.7)
        platform = Platform.from_speeds([1.0, 1.0])
        sim = simulate_partitioned(
            taskset, platform, [0, 0], "edf", alpha=1.5, horizon=100.0
        )
        assert not sim.any_miss

    def test_sporadic_needs_rng(self):
        with pytest.raises(ValueError):
            simulate_partitioned(
                ts(0.5), Platform.from_speeds([1.0]), [0], "edf", release="sporadic"
            )


class TestEndToEnd:
    def test_accepted_partitions_never_miss(self, rng):
        """Integration: feasibility test accepted at alpha => zero misses
        on the alpha-augmented platform, traces all validate."""
        for _ in range(8):
            platform = geometric_platform(int(rng.integers(2, 4)), 3.0)
            inst = partitioned_feasible_instance(
                rng,
                platform,
                load=0.8,
                tasks_per_machine=2,
                integer_periods=True,
                p_min=4,
                p_max=20,
            )
            for test, policy, alpha in (("edf", "edf", 2.0), ("rms-ll", "rms", 2.42)):
                result = first_fit_partition(inst.taskset, platform, test, alpha=alpha)
                assert result.success  # theorem guarantee on witnessed instances
                sim = simulate_partitioned(
                    inst.taskset, platform, result, policy, alpha=alpha
                )
                assert not sim.any_miss
                for trace in sim.traces:
                    assert validate_trace(trace, inst.taskset.tasks) == []

    def test_witness_assignment_simulates_clean(self, rng):
        """The constructive witness itself is a valid schedule at speed 1."""
        platform = geometric_platform(3, 4.0)
        inst = partitioned_feasible_instance(
            rng,
            platform,
            load=0.9,
            tasks_per_machine=3,
            integer_periods=True,
            p_min=5,
            p_max=25,
        )
        sim = simulate_partitioned(
            inst.taskset, platform, list(inst.witness), "edf"
        )
        assert not sim.any_miss
