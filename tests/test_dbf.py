"""Tests for demand bound functions and the QPA exact EDF test."""

from __future__ import annotations

import gc
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bounds import admission_test, edf_utilization_feasible
from repro.core.dbf import (
    EDFDemandBoundTest,
    _DemandProfile,
    dbf,
    dbf_series,
    dbf_taskset,
    demand_bound_horizon,
    demand_points,
    edf_demand_feasible,
    profile_cache_stats,
    qpa_edf_feasible,
    reset_profile_cache,
)
from repro.core.model import Platform, Task, TaskSet
from repro.core.partition import first_fit_partition, verify_partition
from repro.sim.uniprocessor import simulate_taskset_on_machine

constrained_task = st.builds(
    lambda c, p, frac: Task(
        wcet=float(c),
        period=float(p),
        deadline=max(float(c), round(frac * p, 3)),
    ),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=5, max_value=30),
    st.floats(min_value=0.3, max_value=1.0),
)

#: integer parameters: every demand is an integer far below 2**53, so the
#: float dbf must equal the exact integer formula, not approximate it
integer_task = st.builds(
    lambda c, p, d: Task(wcet=float(c), period=float(p), deadline=float(d)),
    st.integers(min_value=1, max_value=10**4),
    st.integers(min_value=1, max_value=10**4),
    st.integers(min_value=1, max_value=10**4),
)


def _exact_dbf(tasks: list[Task], t: int) -> int:
    """sum over tasks with d_i <= t of (floor((t - d_i) / p_i) + 1) * c_i,
    in integer arithmetic."""
    return sum(
        ((t - int(task.deadline)) // int(task.period) + 1) * int(task.wcet)
        for task in tasks
        if task.deadline <= t
    )


class TestDBFValues:
    @given(
        st.lists(integer_task, min_size=1, max_size=8),
        st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=6),
    )
    @settings(max_examples=200, deadline=None)
    def test_integer_parameters_give_the_exact_demand(self, tasks, times):
        want = [_exact_dbf(tasks, t) for t in times]
        grid = [float(t) for t in times]
        assert [dbf_taskset(tasks, t) for t in grid] == want
        assert dbf_series(tasks, grid) == want

    def test_zero_before_deadline(self):
        t = Task(2, 10, deadline=4)
        assert dbf(t, 3.9) == 0.0

    def test_one_job_at_deadline(self):
        t = Task(2, 10, deadline=4)
        assert dbf(t, 4.0) == 2.0
        assert dbf(t, 13.9) == 2.0

    def test_second_job_at_deadline_plus_period(self):
        t = Task(2, 10, deadline=4)
        assert dbf(t, 14.0) == 4.0
        assert dbf(t, 24.0) == 6.0

    def test_implicit_deadline_matches_utilization_rate(self):
        t = Task(2, 10)
        # dbf(k*p) = k*c exactly
        for k in (1, 2, 7):
            assert dbf(t, k * 10.0) == k * 2.0

    def test_taskset_sum(self):
        tasks = [Task(1, 4), Task(2, 10, deadline=5)]
        # t=5: the period-4 task has one job due (deadline 4; next is 8),
        # the constrained task has one job due (deadline 5)
        assert dbf_taskset(tasks, 5.0) == pytest.approx(1 + 2)
        # t=8 adds the period-4 task's second job
        assert dbf_taskset(tasks, 8.0) == pytest.approx(2 + 2)

    def test_series_is_dbf_taskset_per_length(self):
        tasks = [Task(1, 4), Task(2, 10, deadline=5)]
        times = [0.5, 4.0, 5.0, 8.0, 23.0]
        assert dbf_series(tasks, times) == [dbf_taskset(tasks, t) for t in times]
        assert dbf_series([], times) == [0.0] * len(times)

    def test_monotone_in_t(self):
        t = Task(3, 7, deadline=5)
        values = [dbf(t, x / 2) for x in range(0, 100)]
        assert values == sorted(values)


class TestHorizonAndPoints:
    def test_horizon_none_when_overloaded(self):
        assert demand_bound_horizon([Task(6, 5)], 1.0) is None

    def test_horizon_at_least_max_deadline(self):
        tasks = [Task(1, 10, deadline=9), Task(1, 8)]
        h = demand_bound_horizon(tasks, 1.0)
        assert h is not None and h >= 9

    def test_points_sorted_and_in_range(self):
        tasks = [Task(1, 4, deadline=3), Task(1, 6)]
        pts = demand_points(tasks, 20.0)
        assert pts == sorted(pts)
        assert all(0 < p <= 20.0 + 1e-9 for p in pts)
        assert 3.0 in pts and 7.0 in pts and 6.0 in pts

    def test_points_budget(self):
        with pytest.raises(RuntimeError):
            demand_points([Task(1, 1, deadline=0.5)], 1e7, max_points=100)


class TestExactTests:
    def test_empty(self):
        assert qpa_edf_feasible([], 1.0)
        assert edf_demand_feasible([], 1.0)

    def test_invalid_speed(self):
        with pytest.raises(ValueError):
            qpa_edf_feasible([Task(1, 2)], 0.0)
        with pytest.raises(ValueError):
            edf_demand_feasible([Task(1, 2)], -1.0)

    def test_constrained_stricter_than_implicit(self):
        # U = 0.9 fits as implicit; squeezing the deadline breaks it
        implicit = [Task(4.5, 10), Task(4.5, 10)]
        assert qpa_edf_feasible(implicit, 1.0)
        squeezed = [Task(4.5, 10, deadline=5), Task(4.5, 10, deadline=5)]
        assert not qpa_edf_feasible(squeezed, 1.0)

    def test_known_feasible_constrained(self):
        tasks = [Task(1, 4, deadline=2), Task(2, 8, deadline=6)]
        # dbf: t=2 ->1 <=2; t=6 ->1+1+2=... points 2,6,10: t=6: jobs of t1 due by 6: d+kp=2,6 ->2 jobs=2; t2: 1 job=2 -> 4 <= 6 ok
        assert qpa_edf_feasible(tasks, 1.0)
        assert edf_demand_feasible(tasks, 1.0)

    @given(st.lists(constrained_task, min_size=1, max_size=5))
    @settings(max_examples=150, deadline=None)
    def test_qpa_equals_exhaustive(self, tasks):
        for speed in (0.7, 1.0, 1.6):
            assert qpa_edf_feasible(tasks, speed) == edf_demand_feasible(
                tasks, speed
            )

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=4),
                st.sampled_from([4, 6, 8, 10, 12]),
            ),
            min_size=1,
            max_size=5,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_implicit_case_equals_utilization_test(self, spec):
        """On the paper's model the DBF test must coincide with Thm II.2."""
        tasks = [Task(float(c), float(p)) for c, p in spec]
        for speed in (0.8, 1.0, 1.5):
            assert qpa_edf_feasible(tasks, speed) == edf_utilization_feasible(
                tasks, speed
            )

    @given(st.lists(constrained_task, min_size=1, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_verdict_matches_simulation(self, tasks):
        """Exact test <=> no misses under synchronous periodic release.

        (Synchronous release is the worst case for constrained-deadline
        EDF too; we simulate to the hyperperiod.)
        """
        hp = math.lcm(*(int(t.period) for t in tasks))
        if hp > 4000:
            return
        verdict = qpa_edf_feasible(tasks, 1.0)
        trace = simulate_taskset_on_machine(tasks, 1.0, "edf", horizon=float(hp))
        assert verdict == (not trace.any_miss)


class TestBoundaryRegressions:
    """Pins for the scale-aware boundary discipline in ``dbf``.

    The pre-fix code compared with *absolute* ``EPS`` (gate) and floored
    ``(t - d)/p + EPS`` directly.  At large magnitudes the float error of
    the division exceeds 1e-9 absolute, so exact step points ``t = d +
    k*p`` could lose a whole job, and deadlines ~1e12 mis-gated inside
    their relative tolerance window.  These instances are pinned at the
    exact crossovers (cases found by search; any regression flips a
    whole ``wcet``, not a rounding digit).
    """

    def test_exact_step_point_at_large_k(self):
        # (t - d)/p computes to ~1.5e-8 *below* the integer k here: an
        # absolute-EPS floor drops job k+1, the relative tol_floor keeps it.
        p, d, k = 943.5758967723415, 78.6294028066052, 75_648_842
        task = Task(wcet=50.0, period=p, deadline=d)
        t = d + k * p
        assert (t - d) / p < k  # the float hazard this test pins
        assert dbf(task, t) == (k + 1) * 50.0

    def test_more_step_points_at_large_k(self):
        cases = [
            (767.1809133850472, 341.74801562556036, 747_144_855),
            (223.27346066864607, 6.95148700668352, 696_328_470),
            (306.4559816712126, 23.51973702419199, 921_822_829),
        ]
        for p, d, k in cases:
            task = Task(wcet=1.0, period=p, deadline=d)
            t = d + k * p
            assert dbf(task, t) == (k + 1) * 1.0, (p, d, k)

    def test_gate_is_scale_aware_at_large_deadlines(self):
        # deadline 1e12: the tolerance window is EPS-relative (~1000
        # absolute), not 1e-9 absolute.  Inside the window the closed
        # side (demand counted) wins; outside it the gate holds.
        task = Task(wcet=1.0, period=2e12, deadline=1e12)
        assert dbf(task, 1e12 - 500.0) == 1.0  # inside the window
        assert dbf(task, 1e12 - 5000.0) == 0.0  # beyond it
        assert dbf(task, 1e12) == 1.0

    def test_qpa_agrees_with_reference_at_step_points(self):
        # the same crossover arithmetic drives QPA's downward walk; the
        # reference evaluator and QPA must agree on a set engineered so
        # the critical point sits at a large-k step
        tasks = [
            Task(wcet=50.0, period=943.5758967723415, deadline=78.6294028066052),
            Task(wcet=1.0, period=7.3, deadline=3.1),
        ]
        for speed in (0.15, 0.2, 0.25, 0.5):
            assert qpa_edf_feasible(tasks, speed) == edf_demand_feasible(
                tasks, speed
            ), speed


class TestDBFAdmission:
    def test_registered_by_name(self):
        assert isinstance(admission_test("edf-dbf"), EDFDemandBoundTest)

    def test_partitions_constrained_sets(self):
        ts = TaskSet(
            [
                Task(2, 10, deadline=3),
                Task(4, 8, deadline=8),
                Task(1, 4, deadline=2),
                Task(3, 12, deadline=6),
            ]
        )
        pf = Platform.from_speeds([1.0, 2.0])
        r = first_fit_partition(ts, pf, "edf-dbf")
        assert r.success
        assert verify_partition(r, ts, pf)

    def test_incremental_matches_oneshot(self, rng):
        test = admission_test("edf-dbf")
        for _ in range(25):
            speed = float(rng.uniform(0.5, 2.0))
            state = test.open(speed)
            accepted = []
            for _ in range(4):
                p = float(rng.integers(5, 20))
                c = float(rng.integers(1, 5))
                d = float(rng.integers(max(1, int(c)), int(p) + 1))
                t = Task(c, p, deadline=d)
                if state.admits(t):
                    state.add(t)
                    accepted.append(t)
                    assert test.feasible(accepted, speed)

    def test_theorem_tests_reject_constrained_sets(self):
        from repro.core.feasibility import edf_test_vs_partitioned

        ts = TaskSet([Task(1, 10, deadline=5)])
        with pytest.raises(ValueError, match="implicit"):
            edf_test_vs_partitioned(ts, Platform.from_speeds([1.0]))


def _live_profiles() -> int:
    gc.collect()
    return sum(isinstance(o, _DemandProfile) for o in gc.get_objects())


class TestProfileLifetime:
    """A demand profile lives only as long as the call that reuses it."""

    TASKSET = TaskSet(
        [
            Task(2, 10, deadline=3),
            Task(4, 8, deadline=8),
            Task(1, 4, deadline=2),
            Task(3, 12, deadline=6),
            Task(2, 9, deadline=5),
        ]
    )
    PLATFORM = Platform.from_speeds([0.25, 0.5, 1.0, 2.0])

    def test_no_profile_outlives_a_scalar_partition(self):
        before = _live_profiles()
        reset_profile_cache()
        r = first_fit_partition(self.TASKSET, self.PLATFORM, "edf-dbf")
        assert r.success
        assert profile_cache_stats().misses > 0
        assert _live_profiles() == before

    def test_standalone_calls_keep_nothing(self):
        before = _live_profiles()
        tasks = list(self.TASKSET)
        qpa_edf_feasible(tasks, 1.5)
        edf_demand_feasible(tasks, 1.5)
        demand_bound_horizon(tasks, 1.5)
        dbf_taskset(tasks, 12.0)
        dbf_series(tasks, [3.0, 12.0])
        assert _live_profiles() == before

    @given(
        st.lists(constrained_task, min_size=1, max_size=5),
        st.lists(
            st.floats(min_value=0.2, max_value=3.0), min_size=2, max_size=5
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_memoized_verdicts_equal_fresh_ones(self, tasks, speeds):
        """One candidate set probed on machines of different speeds
        answers as a fresh probe would."""
        memo: dict = {}
        fresh = [qpa_edf_feasible(tasks, s) for s in speeds]
        assert [qpa_edf_feasible(tasks, s, memo=memo) for s in speeds] == fresh
        assert len(memo) == 1

    def test_stats_count_hits_and_misses_and_reset_zeroes_them(self):
        # a task too heavy for the two slow machines probes the same
        # one-task set at three speeds: built once, reused twice
        reset_profile_cache()
        r = first_fit_partition(
            TaskSet([Task(5, 10, deadline=8)]),
            Platform.from_speeds([0.1, 0.2, 1.0]),
            "edf-dbf",
        )
        assert r.assignment == (2,)
        stats = profile_cache_stats()
        assert (stats.hits, stats.misses) == (2, 1)
        assert stats.hit_ratio == pytest.approx(2 / 3)
        reset_profile_cache()
        stats = profile_cache_stats()
        assert (stats.hits, stats.misses) == (0, 0)
