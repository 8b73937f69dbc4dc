"""Unit and property tests for repro.core.bounds."""

from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.bounds import (
    ADMISSION_TEST_NAMES,
    EDFUtilizationTest,
    RMSHyperbolicTest,
    RMSLiuLaylandTest,
    RMSResponseTimeTest,
    admission_test,
    edf_utilization_feasible,
    liu_layland_bound,
    rms_hyperbolic_feasible,
    rms_liu_layland_feasible,
    rms_rta_feasible,
)
from repro.core.model import Platform, Task, TaskSet

LN2 = math.log(2)


def tasks_from_utils(utils, period=10.0):
    return [Task.from_utilization(u, period * (i + 1)) for i, u in enumerate(utils)]


class TestLiuLaylandBound:
    def test_known_values(self):
        assert liu_layland_bound(1) == pytest.approx(1.0)
        assert liu_layland_bound(2) == pytest.approx(2 * (2**0.5 - 1))
        assert liu_layland_bound(3) == pytest.approx(3 * (2 ** (1 / 3) - 1))

    def test_zero_tasks(self):
        assert liu_layland_bound(0) == 1.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            liu_layland_bound(-1)

    def test_monotone_decreasing_to_ln2(self):
        prev = liu_layland_bound(1)
        for n in range(2, 200):
            cur = liu_layland_bound(n)
            assert cur < prev
            prev = cur
        assert prev > LN2
        assert prev == pytest.approx(LN2, abs=5e-3)


class TestEDFUtilizationFeasible:
    def test_under_capacity(self):
        assert edf_utilization_feasible(tasks_from_utils([0.4, 0.5]), 1.0)

    def test_exactly_at_capacity(self):
        assert edf_utilization_feasible(tasks_from_utils([0.5, 0.5]), 1.0)

    def test_over_capacity(self):
        assert not edf_utilization_feasible(tasks_from_utils([0.6, 0.5]), 1.0)

    def test_scales_with_speed(self):
        tasks = tasks_from_utils([0.9, 0.9])
        assert not edf_utilization_feasible(tasks, 1.0)
        assert edf_utilization_feasible(tasks, 2.0)

    def test_empty(self):
        assert edf_utilization_feasible([], 0.5)


class TestRMSLiuLayland:
    def test_single_task_full_machine(self):
        assert rms_liu_layland_feasible(tasks_from_utils([1.0]), 1.0)

    def test_two_tasks_bound(self):
        bound2 = 2 * (2**0.5 - 1)  # ~0.828
        assert rms_liu_layland_feasible(tasks_from_utils([bound2 / 2, bound2 / 2]), 1.0)
        assert not rms_liu_layland_feasible(tasks_from_utils([0.45, 0.45]), 1.0)

    def test_empty(self):
        assert rms_liu_layland_feasible([], 1.0)

    @given(
        st.lists(st.floats(min_value=0.01, max_value=0.3), min_size=1, max_size=8),
        st.floats(min_value=0.5, max_value=4.0),
    )
    def test_ll_implies_edf(self, utils, speed):
        # LL bound <= 1, so LL acceptance implies EDF acceptance
        tasks = tasks_from_utils(utils)
        if rms_liu_layland_feasible(tasks, speed):
            assert edf_utilization_feasible(tasks, speed)


class TestRMSHyperbolic:
    def test_dominates_liu_layland(self, rng):
        # every LL-accepted set is hyperbolic-accepted
        for _ in range(200):
            n = int(rng.integers(1, 7))
            utils = rng.uniform(0.02, 0.5, size=n)
            tasks = tasks_from_utils(utils)
            speed = float(rng.uniform(0.5, 2.0))
            if rms_liu_layland_feasible(tasks, speed):
                assert rms_hyperbolic_feasible(tasks, speed)

    def test_accepts_beyond_ll(self):
        # above the LL bound but within hyperbolic
        tasks = tasks_from_utils([0.5, 0.4])  # sum=0.9 > 0.828; prod=1.5*1.4=2.1>2 no
        assert not rms_hyperbolic_feasible(tasks, 1.0)
        # asymmetric pair: prod = 1.6 * 1.25 = 2.0 exactly, sum = 0.85 > 0.828
        tasks = tasks_from_utils([0.6, 0.25])
        assert rms_hyperbolic_feasible(tasks, 1.0)
        assert not rms_liu_layland_feasible(tasks, 1.0)

    def test_early_exit_on_large_products(self):
        tasks = tasks_from_utils([5.0, 5.0, 5.0])
        assert not rms_hyperbolic_feasible(tasks, 1.0)


class TestRMSRTA:
    def test_classic_feasible_trio(self):
        # Liu & Layland's style example: U=0.725 < objectively schedulable
        tasks = [Task(1, 4), Task(2, 8), Task(1.5, 12)]
        assert rms_rta_feasible(tasks, 1.0)

    def test_dominates_hyperbolic(self, rng):
        for _ in range(150):
            n = int(rng.integers(1, 6))
            utils = rng.uniform(0.05, 0.6, size=n)
            tasks = tasks_from_utils(utils)
            if rms_hyperbolic_feasible(tasks, 1.0):
                assert rms_rta_feasible(tasks, 1.0)

    def test_harmonic_full_utilization(self):
        # harmonic periods: RMS achieves U = 1.0, RTA must accept
        tasks = [Task(2, 4), Task(2, 8), Task(2, 8)]  # U = .5+.25+.25
        assert rms_rta_feasible(tasks, 1.0)
        assert not rms_liu_layland_feasible(tasks, 1.0)

    def test_infeasible_overload(self):
        assert not rms_rta_feasible([Task(3, 4), Task(2, 5)], 1.0)


class TestAdmissionStates:
    @pytest.mark.parametrize("name", ADMISSION_TEST_NAMES)
    def test_incremental_matches_oneshot(self, name, rng):
        """admits()/add() must agree with the one-shot set test."""
        test = admission_test(name)
        for _ in range(60):
            speed = float(rng.uniform(0.5, 3.0))
            state = test.open(speed)
            accepted: list[Task] = []
            for _ in range(int(rng.integers(1, 8))):
                t = Task.from_utilization(
                    float(rng.uniform(0.05, 0.8)), float(rng.uniform(2, 50))
                )
                if state.admits(t):
                    state.add(t)
                    accepted.append(t)
                    assert test.feasible(accepted, speed), (
                        f"{name}: incremental accepted a set the one-shot "
                        f"test rejects"
                    )
            assert state.count == len(accepted)
            assert state.load == pytest.approx(
                sum(t.utilization for t in accepted)
            )

    @pytest.mark.parametrize("name", ADMISSION_TEST_NAMES)
    def test_admits_does_not_mutate(self, name):
        test = admission_test(name)
        state = test.open(1.0)
        t = Task.from_utilization(0.3, 10)
        state.admits(t)
        assert state.count == 0
        assert state.load == 0.0

    def test_open_invalid_speed(self):
        with pytest.raises(ValueError):
            EDFUtilizationTest().open(0.0)

    def test_registry_lookup(self):
        assert isinstance(admission_test("edf"), EDFUtilizationTest)
        assert isinstance(admission_test("rms-ll"), RMSLiuLaylandTest)
        assert isinstance(admission_test("rms-hyperbolic"), RMSHyperbolicTest)
        assert isinstance(admission_test("rms-rta"), RMSResponseTimeTest)
        with pytest.raises(KeyError):
            admission_test("nope")

    def test_edf_state_boundary(self):
        state = EDFUtilizationTest().open(1.0)
        state.add(Task.from_utilization(0.5, 10))
        assert state.admits(Task.from_utilization(0.5, 10))
        assert not state.admits(Task.from_utilization(0.5001, 10))

    def test_rms_ll_state_count_dependence(self):
        state = RMSLiuLaylandTest().open(1.0)
        # first task: bound is 1.0
        assert state.admits(Task.from_utilization(0.99, 10))
        state.add(Task.from_utilization(0.5, 10))
        # second task: bound 2(sqrt2-1) ~ 0.828 -> 0.5 + 0.33 > bound
        assert not state.admits(Task.from_utilization(0.33, 10))
        assert state.admits(Task.from_utilization(0.32, 10))


class TestBoundaryAgreement:
    """Regression for the incremental-vs-one-shot float-drift bug.

    Before the compensated-accumulation fix, the incremental states
    summed utilizations with plain ``+=`` while the one-shot set tests
    used ``math.fsum``; on instances engineered *onto* an admission
    threshold the two paths could disagree.  These sweeps pin the
    contract ``state.admits(t) == test.feasible(accepted + [t], speed)``
    exactly, for all four admission tests, on every side of the
    tolerance window.
    """

    #: relative nudges: exact threshold, inside the EPS window, outside
    NUDGES = (0.0, -5e-10, 5e-10, -2e-9, 2e-9, -8e-9, 8e-9)

    @staticmethod
    def _assert_paths_agree(test, tasks, speed):
        state = test.open(speed)
        accepted = []
        for i, task in enumerate(tasks):
            incremental = state.admits(task)
            oneshot = test.feasible(accepted + [task], speed)
            assert incremental == oneshot, (
                f"{test.name} at speed {speed}: admits(task {i}) = "
                f"{incremental} but one-shot = {oneshot} "
                f"(utils so far {[t.utilization for t in accepted]}, "
                f"candidate {task.utilization})"
            )
            if incremental:
                state.add(task)
                accepted.append(task)
        total = math.fsum(t.utilization for t in accepted)
        assert state.load == pytest.approx(total, rel=0, abs=1e-12 + 1e-9 * total)

    @staticmethod
    def _utils_totalling(target, n):
        """n decreasing utilizations summing (via fsum-compatible floats)
        to ~target, then exactly rescaled."""
        raw = [2.0 ** (-i) for i in range(n)]
        scale = target / math.fsum(raw)
        return [u * scale for u in raw]

    @pytest.mark.parametrize("name", ADMISSION_TEST_NAMES)
    @pytest.mark.parametrize("nudge", NUDGES)
    @pytest.mark.parametrize("speed", (1.0, 0.75))
    def test_threshold_nudged_sets(self, name, nudge, speed):
        test = admission_test(name)
        for n in (1, 3, 6):
            # onto the EDF capacity
            utils = self._utils_totalling(speed * (1.0 + nudge), n)
            self._assert_paths_agree(test, tasks_from_utils(utils), speed)
            # onto the Liu-Layland bound
            target = liu_layland_bound(n) * speed * (1.0 + nudge)
            utils = self._utils_totalling(target, n)
            self._assert_paths_agree(test, tasks_from_utils(utils), speed)
            # onto the hyperbolic product = 2 (equal utilizations)
            u = speed * ((2.0 * (1.0 + nudge)) ** (1.0 / n) - 1.0)
            self._assert_paths_agree(test, tasks_from_utils([u] * n), speed)

    def test_hyperbolic_early_exit_window(self):
        """Pinned instance from the historical early-exit bug: the
        product lands at 2 + 1.5e-9 — beyond the old absolute-EPS early
        exit but inside the relative ``leq`` window the final comparison
        uses.  Both evaluation paths must accept."""
        u = math.sqrt(2.0 + 1.5e-9) - 1.0
        tasks = [Task(wcet=u * 8.0, period=8.0), Task(wcet=u * 16.0, period=16.0)]
        prod = 1.0
        for t in tasks:
            prod *= t.utilization + 1.0
        assert 2.0 + 1e-9 < prod <= 2.0 + 2e-9  # genuinely in the gap
        assert rms_hyperbolic_feasible(tasks, 1.0)
        test = RMSHyperbolicTest()
        state = test.open(1.0)
        assert state.admits(tasks[0])
        state.add(tasks[0])
        assert state.admits(tasks[1])
        self._assert_paths_agree(test, tasks, 1.0)

    def test_compensated_accumulation_beats_plain_sum(self):
        """One unit task followed by 500 tiny ones: plain ``+=`` absorbs
        every 1e-16 increment into 1.0; the Neumaier state must track the
        true total (and thus match the one-shot fsum path)."""
        state = EDFUtilizationTest().open(2.0)
        state.add(Task.from_utilization(1.0, 10))
        tiny = Task.from_utilization(1e-16, 10)
        naive = 1.0
        for _ in range(500):
            state.add(tiny)
            naive += 1e-16  # stays exactly 1.0
        assert naive == 1.0
        expected = math.fsum([1.0] + [1e-16] * 500)
        assert expected >= 1.0 + 4.9e-14
        assert state.load == pytest.approx(expected, rel=1e-12)
        assert state.load > 1.0

    def test_all_tests_agree_on_random_boundary_rationals(self):
        """Dyadic-rational utilization grids (exactly representable)
        summed onto the capacity from both sides."""
        for name in ADMISSION_TEST_NAMES:
            test = admission_test(name)
            for utils in (
                [0.5, 0.25, 0.125, 0.125],  # sums to exactly 1.0
                [0.5, 0.25, 0.125, 0.0625, 0.0625],  # exactly 1.0, n=5
                [0.5, 0.5, 2.0 ** -52],  # one ulp over
            ):
                self._assert_paths_agree(test, tasks_from_utils(utils), 1.0)


class TestLintDrivenAccumulationFixes:
    """Regressions for the REP001/REP004 findings `repro lint` flagged.

    Each test pins one fix: the DFS backtracking accumulators in the
    exact baselines, the incremental load state of the demand-bound
    admission tests, the fsum'd RTA interference sum, the multiplicative
    demand-point grid, and the LP feasibility predicate routed through
    ``tol_leq``.  Where possible the instance is engineered so the
    pre-fix code gives a *different* float, not just an uglier one.
    """

    def test_neumaier_backtracking_roundtrip(self):
        """DFS-style add/remove cycles must not walk the total away.

        ``1.0 + 1e-16`` absorbs (rounds back to 1.0) but ``1.0 - 1e-16``
        does not, so a plain ``+=``/``-=`` pair drifts the load down one
        ulp per probe; 1000 probes move it ~1e-13 — far beyond EPS of a
        boundary admission check.  The compensated accumulator the exact
        baselines now use must return to exactly 1.0.
        """
        from repro.core.bounds import _NeumaierSum

        naive = 1.0
        acc = _NeumaierSum()
        acc.add(1.0)
        for _ in range(1000):
            acc.add(1e-16)
            acc.add(-1e-16)
            naive += 1e-16  # absorbed: stays 1.0
            naive -= 1e-16  # not absorbed: lands one ulp below 1.0
        assert naive != 1.0  # the bug this guards against
        assert acc.total == 1.0

    @pytest.mark.parametrize("name", ["edf-dbf", "edf-dbf-approx"])
    def test_dbf_state_compensated_load(self, name):
        """The demand-bound states' load tracking mirrors the fsum total
        (they admitted via QPA but still tracked load with plain +=)."""
        test = admission_test(name)
        state = test.open(2.0)
        state.add(Task.from_utilization(1.0, 16.0))
        tiny = Task.from_utilization(1e-16, 16.0)
        for _ in range(500):
            state.add(tiny)
        expected = math.fsum([1.0] + [1e-16] * 500)
        assert expected > 1.0  # plain += would report exactly 1.0
        assert state.load == pytest.approx(expected, rel=1e-12)
        assert state.load > 1.0

    def test_exact_backtracking_boundary_instance(self):
        """A dyadic instance solvable only in the exact packing: every
        machine must be filled to precisely its speed, after the DFS has
        probed (and backtracked from) the wrong arrangements first."""
        from repro.baselines.exact import exact_partitioned_edf_feasible

        tasks = tasks_from_utils([0.75, 0.5, 0.25, 0.25, 0.125, 0.125])
        platform = Platform.from_speeds([1.0, 1.0])
        assert exact_partitioned_edf_feasible(TaskSet(tasks), platform) is True
        over = tasks_from_utils([0.75, 0.5, 0.25, 0.25, 0.125, 0.125 + 2**-20])
        assert exact_partitioned_edf_feasible(TaskSet(over), platform) is False

    def test_rta_interference_fsum(self):
        """200 tiny higher-priority contributions of 1e-18 each: plain
        ``+=`` absorbs all of them into the base response time 1.0; the
        fsum'd interference sum must surface the collective 2e-16."""
        from repro.core.rta import rms_response_times

        tasks = [Task(wcet=1e-18, period=1.0) for _ in range(200)]
        tasks.append(Task(wcet=1.0, period=10.0))
        rt = rms_response_times(tasks, 1.0)
        assert rt is not None
        expected = math.fsum([1.0] + [1e-18] * 200)
        assert expected > 1.0
        assert rt[-1] == pytest.approx(expected, rel=1e-12)
        assert rt[-1] > 1.0

    def test_demand_points_exact_grid(self):
        """Step points are generated as ``d + k*p`` directly; the old
        additive walk (``t += p``) accretes one rounding per step and
        drifts off the true grid for non-representable periods."""
        from repro.core.dbf import demand_points

        p = 0.1  # not exactly representable in binary
        pts = demand_points([Task(wcet=0.01, period=p, deadline=p)], 1000.0)
        drifted = 0
        t = p
        for k, point in enumerate(pts):
            assert point == p + k * p  # exact, no tolerance
            if point != t:
                drifted += 1
            t += p
        assert drifted > 0  # the additive walk really does leave the grid

    def test_lp_feasible_routes_through_tol_leq(self):
        """stress == 1 + tol/2 is feasible, 1 + 3*tol is not, and the
        verdict is a plain bool (numpy scalars must not leak out).

        On speeds [1, 1, 4] with w = (4, 1 + x) only the two-machine
        prefix binds: beta* = (5 + x)/5 = 1 + x/5, while both
        necessary conditions (4 <= 4, 5 + x <= 6) hold."""
        from repro.core.lp import LP_TOL, _necessary_conditions, lp_feasible, lp_stress

        platform = Platform.from_speeds([1.0, 1.0, 4.0])
        verdicts = []
        for x, stress in ((2.5e-7, 1.0 + 0.5 * LP_TOL), (1.5e-6, 1.0 + 3.0 * LP_TOL)):
            taskset = TaskSet(
                [Task.from_utilization(4.0, 10.0), Task.from_utilization(1.0 + x, 10.0)]
            )
            assert _necessary_conditions(taskset, platform)
            assert lp_stress(taskset, platform) == pytest.approx(stress, rel=1e-12)
            verdicts.append(lp_feasible(taskset, platform))
        assert verdicts[0] is True
        assert verdicts[1] is False
