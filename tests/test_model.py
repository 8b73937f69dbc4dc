"""Unit tests for repro.core.model."""

from __future__ import annotations

import math
import pickle
import weakref

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.model import Machine, Platform, Task, TaskSet, close, geq, leq


class TestTolerantComparisons:
    def test_leq_exact(self):
        assert leq(1.0, 1.0)
        assert leq(0.5, 1.0)
        assert not leq(1.1, 1.0)

    def test_leq_boundary_noise(self):
        # a hair above, within tolerance: still <=
        assert leq(1.0 + 1e-12, 1.0)
        assert not leq(1.0 + 1e-6, 1.0)

    def test_leq_scales_with_magnitude(self):
        big = 1e12
        assert leq(big * (1 + 1e-12), big)

    def test_geq_mirrors_leq(self):
        assert geq(1.0, 1.0 + 1e-12)
        assert not geq(1.0, 1.0 + 1e-6)

    def test_close(self):
        assert close(1.0, 1.0 + 1e-12)
        assert not close(1.0, 1.001)

    @given(st.floats(min_value=1e-6, max_value=1e6))
    def test_leq_reflexive(self, x):
        assert leq(x, x)
        assert geq(x, x)


class TestTask:
    def test_basic_properties(self):
        t = Task(wcet=2.0, period=10.0, name="t")
        assert t.utilization == pytest.approx(0.2)
        assert t.deadline == 10.0
        assert t.name == "t"

    def test_from_utilization(self):
        t = Task.from_utilization(0.25, 8.0)
        assert t.wcet == pytest.approx(2.0)
        assert t.utilization == pytest.approx(0.25)

    def test_scaled(self):
        t = Task(wcet=2.0, period=10.0).scaled(1.5)
        assert t.wcet == pytest.approx(3.0)
        assert t.period == 10.0

    @pytest.mark.parametrize("wcet", [0.0, -1.0, math.inf, math.nan])
    def test_invalid_wcet(self, wcet):
        with pytest.raises(ValueError):
            Task(wcet=wcet, period=1.0)

    @pytest.mark.parametrize("period", [0.0, -2.0, math.inf, math.nan])
    def test_invalid_period(self, period):
        with pytest.raises(ValueError):
            Task(wcet=1.0, period=period)

    def test_frozen(self):
        t = Task(1, 2)
        with pytest.raises(AttributeError):
            t.wcet = 5  # type: ignore[misc]

    def test_utilization_can_exceed_one(self):
        # legal on fast machines
        assert Task(wcet=3, period=2).utilization == pytest.approx(1.5)


class TestTaskSet:
    def test_sequence_protocol(self, small_taskset):
        assert len(small_taskset) == 3
        assert small_taskset[0].name == "a"
        assert [t.name for t in small_taskset] == ["a", "b", "c"]
        assert isinstance(small_taskset[0:2], TaskSet)
        assert len(small_taskset[0:2]) == 2

    def test_total_utilization(self, small_taskset):
        assert small_taskset.total_utilization == pytest.approx(0.2 + 0.75 + 0.75)

    def test_max_utilization(self, small_taskset):
        assert small_taskset.max_utilization == pytest.approx(0.75)

    def test_empty_aggregates(self):
        ts = TaskSet([])
        assert ts.total_utilization == 0.0
        assert ts.max_utilization == 0.0

    def test_sorted_by_utilization_descending(self, small_taskset):
        s = small_taskset.sorted_by_utilization()
        utils = [t.utilization for t in s]
        assert utils == sorted(utils, reverse=True)

    def test_sort_stability_on_ties(self):
        ts = TaskSet([Task(1, 2, "x"), Task(2, 4, "y"), Task(3, 6, "z")])
        s = ts.sorted_by_utilization()
        assert [t.name for t in s] == ["x", "y", "z"]

    def test_order_by_utilization_ascending(self, small_taskset):
        order = small_taskset.order_by_utilization(descending=False)
        utils = [small_taskset[i].utilization for i in order]
        assert utils == sorted(utils)

    def test_scaled(self, small_taskset):
        s = small_taskset.scaled(2.0)
        assert s.total_utilization == pytest.approx(
            2 * small_taskset.total_utilization
        )
        assert s.periods == small_taskset.periods

    def test_subset_and_without(self, small_taskset):
        sub = small_taskset.subset([2, 0])
        assert [t.name for t in sub] == ["c", "a"]
        rem = small_taskset.without(1)
        assert [t.name for t in rem] == ["a", "c"]

    def test_without_out_of_range(self, small_taskset):
        with pytest.raises(IndexError):
            small_taskset.without(3)

    def test_extended(self, small_taskset):
        bigger = small_taskset.extended([Task(1, 2, "d")])
        assert len(bigger) == 4
        assert bigger[3].name == "d"

    def test_equality_and_hash(self, small_taskset):
        clone = TaskSet(list(small_taskset))
        assert clone == small_taskset
        assert hash(clone) == hash(small_taskset)

    def test_rejects_non_tasks(self):
        with pytest.raises(TypeError):
            TaskSet([1, 2])  # type: ignore[list-item]

    def test_weakref_slot_keeps_slots_and_pickling(self, small_taskset):
        ref = weakref.ref(small_taskset)
        assert ref() is small_taskset
        assert not hasattr(small_taskset, "__dict__")
        clone = pickle.loads(pickle.dumps(small_taskset, pickle.HIGHEST_PROTOCOL))
        assert clone == small_taskset
        assert [t.name for t in clone] == [t.name for t in small_taskset]


class TestMachine:
    def test_valid(self):
        m = Machine(2.0, "fast")
        assert m.speed == 2.0

    @pytest.mark.parametrize("speed", [0.0, -1.0, math.inf])
    def test_invalid_speed(self, speed):
        with pytest.raises(ValueError):
            Machine(speed)


class TestPlatform:
    def test_sorted_on_construction(self):
        p = Platform.from_speeds([3.0, 1.0, 2.0])
        assert p.speeds == (1.0, 2.0, 3.0)

    def test_aggregates(self):
        p = Platform.from_speeds([1.0, 2.0, 4.0])
        assert p.total_speed == pytest.approx(7.0)
        assert p.fastest_speed == 4.0
        assert p.slowest_speed == 1.0
        assert p.heterogeneity_ratio == pytest.approx(4.0)

    def test_identical(self):
        p = Platform.identical(3, 2.0)
        assert p.speeds == (2.0, 2.0, 2.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Platform([])

    def test_identical_zero_rejected(self):
        with pytest.raises(ValueError):
            Platform.identical(0)

    def test_scaled(self):
        p = Platform.from_speeds([1.0, 2.0]).scaled(3.0)
        assert p.speeds == (3.0, 6.0)

    def test_scaled_invalid(self):
        with pytest.raises(ValueError):
            Platform.from_speeds([1.0]).scaled(0.0)

    def test_slice_returns_platform(self):
        p = Platform.from_speeds([1.0, 2.0, 3.0])
        assert isinstance(p[0:2], Platform)

    def test_rejects_non_machines(self):
        with pytest.raises(TypeError):
            Platform([1.0])  # type: ignore[list-item]

    @given(
        st.lists(
            st.floats(min_value=0.01, max_value=100.0), min_size=1, max_size=10
        )
    )
    def test_total_speed_invariant_under_input_order(self, speeds):
        a = Platform.from_speeds(speeds)
        b = Platform.from_speeds(list(reversed(speeds)))
        assert a.total_speed == pytest.approx(b.total_speed)
        assert a.speeds == b.speeds
