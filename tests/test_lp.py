"""Unit and property tests for the §II feasibility LP.

The closed-form ``beta*`` is checked against a general LP solver
(:mod:`tests.lp_reference`), whose witness ``u`` the two verifiers
audit.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.lp import (
    LP_TOL,
    _necessary_conditions,
    check_lp_solution,
    lp_feasible,
    lp_stress,
    tol_geq,
    tol_leq,
    verify_lemma_ii1,
)
from repro.core.model import Platform, Task, TaskSet
from repro.oracle.generators import PROFILES, draw_instance

from .lp_reference import reference_lp


def ts(*utils):
    return TaskSet(Task.from_utilization(u, 10.0) for u in utils)


class TestLPFeasible:
    def test_trivially_feasible(self):
        assert lp_feasible(ts(0.2, 0.3), Platform.from_speeds([1.0]))

    def test_exactly_at_capacity(self):
        assert lp_feasible(ts(0.5, 0.5), Platform.from_speeds([1.0]))

    def test_over_total_capacity(self):
        assert not lp_feasible(ts(0.8, 0.8), Platform.from_speeds([1.0, 0.5]))

    def test_task_bigger_than_fastest_machine(self):
        # constraint (2): a single task cannot exceed the fastest speed
        assert not lp_feasible(ts(1.2), Platform.from_speeds([1.0, 1.0]))

    def test_big_task_ok_on_fast_machine(self):
        assert lp_feasible(ts(1.8), Platform.from_speeds([0.5, 2.0]))

    def test_migration_beats_partitioning(self):
        # three tasks of 2/3 on two unit machines: partitioned infeasible
        # (two tasks would share a machine), LP feasible (split utilization)
        taskset = ts(2 / 3, 2 / 3, 2 / 3)
        platform = Platform.from_speeds([1.0, 1.0])
        assert lp_feasible(taskset, platform)

    def test_empty_taskset(self):
        assert lp_feasible(TaskSet([]), Platform.from_speeds([1.0]))


class TestLPStress:
    def test_stress_of_empty(self):
        assert lp_stress(TaskSet([]), Platform.from_speeds([1.0])) == 0.0

    def test_stress_single_machine(self):
        # single machine: stress is exactly total utilization / speed
        assert lp_stress(ts(0.25, 0.25), Platform.from_speeds([1.0])) == pytest.approx(
            0.5, abs=1e-6
        )

    def test_stress_scales_inversely_with_speed(self):
        taskset = ts(0.5)
        s1 = lp_stress(taskset, Platform.from_speeds([1.0]))
        s2 = lp_stress(taskset, Platform.from_speeds([2.0]))
        assert s1 == pytest.approx(2 * s2, rel=1e-6)

    def test_stress_above_one_iff_infeasible(self, rng):
        for _ in range(25):
            n = int(rng.integers(1, 8))
            utils = rng.uniform(0.1, 1.2, size=n)
            taskset = ts(*utils)
            platform = Platform.from_speeds(rng.uniform(0.4, 2.0, size=3).tolist())
            feas = lp_feasible(taskset, platform)
            stress = lp_stress(taskset, platform)
            assert feas == (stress <= 1.0 + LP_TOL)

    def test_single_big_task_stress(self):
        # one task of 1.5 on speeds [1, 2]: best is all on the fast machine
        assert lp_stress(ts(1.5), Platform.from_speeds([1.0, 2.0])) == pytest.approx(
            0.75, abs=1e-6
        )


class TestLPSolution:
    def test_solution_satisfies_constraints(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 9))
            taskset = ts(*rng.uniform(0.05, 0.8, size=n))
            platform = Platform.from_speeds(rng.uniform(0.5, 2.0, size=4).tolist())
            u, beta = reference_lp(taskset, platform)
            if tol_leq(beta, 1.0):
                assert check_lp_solution(u, taskset, platform)

    def test_check_rejects_bad_shapes(self):
        taskset, platform = ts(0.5), Platform.from_speeds([1.0])
        assert not check_lp_solution(np.zeros((2, 2)), taskset, platform)

    def test_check_rejects_negative(self):
        taskset, platform = ts(0.5), Platform.from_speeds([1.0, 1.0])
        u = np.array([[1.0, -0.5]])
        assert not check_lp_solution(u, taskset, platform)

    def test_check_rejects_underserved_task(self):
        taskset, platform = ts(0.5), Platform.from_speeds([1.0])
        u = np.array([[0.3]])
        assert not check_lp_solution(u, taskset, platform)

    def test_check_rejects_overloaded_machine(self):
        taskset, platform = ts(0.8, 0.8), Platform.from_speeds([1.0, 1.0])
        u = np.array([[0.8, 0.0], [0.8, 0.0]])  # machine 0 at 1.6
        assert not check_lp_solution(u, taskset, platform)

    def test_check_rejects_self_parallelism(self):
        # task of 1.5 split across two speed-1 machines: sum u/s = 1.5 > 1
        taskset, platform = ts(1.5), Platform.from_speeds([1.0, 1.0])
        u = np.array([[0.75, 0.75]])
        assert not check_lp_solution(u, taskset, platform)


class TestLemmaII1:
    def test_holds_on_solver_output(self, rng):
        """Lemma II.1 is a theorem about every feasible LP solution — it
        must hold on whatever the reference solver returns, for
        arbitrary alpha > 1."""
        for _ in range(20):
            n = int(rng.integers(1, 8))
            taskset = ts(*rng.uniform(0.05, 0.9, size=n))
            platform = Platform.from_speeds(rng.uniform(0.3, 2.5, size=4).tolist())
            u, beta = reference_lp(taskset, platform)
            if not tol_leq(beta, 1.0):
                continue
            for alpha in (1.5, 2.0, 2.98, 3.34):
                assert verify_lemma_ii1(u, taskset, platform, alpha), (
                    f"Lemma II.1 violated at alpha={alpha}"
                )

    def test_requires_alpha_above_one(self):
        taskset, platform = ts(0.5), Platform.from_speeds([1.0])
        u, _ = reference_lp(taskset, platform)
        with pytest.raises(ValueError):
            verify_lemma_ii1(u, taskset, platform, 1.0)

    def test_detects_violation(self):
        # A fake 'solution' parking a large task entirely on a machine
        # that is too slow for it even augmented: with alpha=2 and
        # w=0.9 >= 2*0.2, the suffix over the fast machine must carry at
        # least w*(1-1/alpha) = 0.45, but carries 0.
        taskset = ts(0.9)
        platform = Platform.from_speeds([0.2, 1.0])
        u = np.array([[0.9, 0.0]])
        assert not verify_lemma_ii1(u, taskset, platform, 2.0)

    def test_trivial_case_k0_reduces_to_constraint_one(self):
        # any feasible u satisfies the k=0 case since alpha/(alpha-1) > 1
        taskset = ts(0.5)
        platform = Platform.from_speeds([1.0])
        u = np.array([[0.5]])
        assert verify_lemma_ii1(u, taskset, platform, 2.0)


class TestToleranceHelpers:
    """Direct contract tests for tol_leq/tol_geq — the single comparison
    convention shared by check_lp_solution and verify_lemma_ii1."""

    def test_scalar_window(self):
        assert tol_leq(1.0, 1.0)
        assert tol_leq(1.0 + LP_TOL / 2, 1.0)  # inside the window
        assert not tol_leq(1.0 + 3 * LP_TOL, 1.0)  # outside it
        assert tol_geq(1.0 - LP_TOL / 2, 1.0)
        assert not tol_geq(1.0 - 3 * LP_TOL, 1.0)

    def test_relative_scaling(self):
        # the window grows with magnitude (relative, not absolute)
        assert tol_leq(1000.0 + 400 * LP_TOL, 1000.0)
        assert not tol_leq(1000.0 + 3000 * LP_TOL, 1000.0)
        # near zero it is absolute
        assert tol_leq(LP_TOL / 2, 0.0)
        assert not tol_leq(3 * LP_TOL, 0.0)

    def test_elementwise_on_arrays(self):
        a = np.array([1.0, 1.0 + LP_TOL / 2, 1.0 + 3 * LP_TOL])
        out = tol_leq(a, 1.0)
        assert out.tolist() == [True, True, False]
        assert tol_geq(np.array([0.5, 1.5]), 1.0).tolist() == [False, True]

    def test_custom_tol(self):
        assert tol_leq(1.01, 1.0, tol=0.1)
        assert not tol_leq(1.01, 1.0, tol=1e-9)


class TestLemmaII1Boundary:
    """The w_i ~= alpha * s_k boundary (historical tolerance-mismatch
    bug): whether machine k counts as 'too slow even augmented' is
    decided by the same tol_geq window both verifiers share, so the
    lemma's prefix/suffix split flips consistently."""

    ALPHA = 2.0  # factor alpha/(alpha-1) = 2
    SPEEDS = (0.45, 1.0)  # threshold w = alpha * s_0 = 0.9

    def _one_task(self, w):
        return TaskSet([Task.from_utilization(w, 10.0)])

    @pytest.mark.parametrize(
        "w",
        [
            0.9,  # exactly on the threshold
            0.9 * (1.0 - LP_TOL / 2),  # inside the window from below
            0.9 * (1.0 + LP_TOL / 2),  # inside the window from above
            0.9 * (1.0 + 10 * LP_TOL),  # clearly above
        ],
    )
    def test_on_threshold_prefix_applies(self, w):
        """w within (or above) the tol window of alpha*s_0: machine 0
        counts as slow, so the suffix (machine 1) must carry >= w/2."""
        taskset = self._one_task(w)
        platform = Platform.from_speeds(self.SPEEDS)
        good = np.array([[w / 2, w / 2]])
        assert verify_lemma_ii1(good, taskset, platform, self.ALPHA)
        starved = np.array([[w / 2 * (1 + 10 * LP_TOL), w / 2 * (1 - 10 * LP_TOL)]])
        assert not verify_lemma_ii1(starved, taskset, platform, self.ALPHA)

    def test_below_threshold_prefix_does_not_apply(self):
        """w clearly below alpha*s_0: k=1 never triggers, only the
        trivial k=0 case (total >= w(1-1/alpha)) constrains u."""
        w = 0.9 * (1.0 - 1e-3)
        taskset = self._one_task(w)
        platform = Platform.from_speeds(self.SPEEDS)
        # machine 0 may now carry almost everything
        lopsided = np.array([[w * 0.99, w * 0.01]])
        assert verify_lemma_ii1(lopsided, taskset, platform, self.ALPHA)

    def test_solver_output_passes_both_verifiers_near_threshold(self):
        """End-to-end: LP solutions for boundary-engineered instances
        satisfy check_lp_solution AND verify_lemma_ii1 under the shared
        convention — the pairing that used to disagree."""
        platform = Platform.from_speeds(self.SPEEDS)
        for nudge in (-LP_TOL / 2, 0.0, LP_TOL / 2):
            w = 0.9 * (1.0 + nudge)
            taskset = TaskSet(
                [Task.from_utilization(w, 10.0), Task.from_utilization(0.3, 20.0)]
            )
            u, beta = reference_lp(taskset, platform)
            assert tol_leq(beta, 1.0) and lp_feasible(taskset, platform)
            assert check_lp_solution(u, taskset, platform)
            for alpha in (1.5, self.ALPHA, 3.0):
                assert verify_lemma_ii1(u, taskset, platform, alpha)


def _agrees_with_reference(taskset, platform):
    """The closed form's ``beta*`` matches the solver's to 1e-9 relative,
    and ``lp_feasible`` gives the verdict the solver's ``beta*`` gives."""
    _, beta = reference_lp(taskset, platform)
    closed = lp_stress(taskset, platform)
    assert closed == pytest.approx(beta, rel=1e-9)
    verdict = _necessary_conditions(taskset, platform) and bool(tol_leq(beta, 1.0))
    assert lp_feasible(taskset, platform) is verdict


#: real speeds, or small integers where ties are common
_speeds = st.one_of(
    st.lists(st.floats(0.25, 4.0), min_size=1, max_size=8),
    st.lists(st.integers(1, 4).map(float), min_size=1, max_size=8),
)
_utilizations = st.one_of(
    st.lists(st.floats(0.01, 4.0), max_size=10),
    st.lists(st.integers(1, 8).map(lambda k: k / 4), max_size=10),
)


class TestClosedFormAgainstReference:
    """``lp_stress``'s sorted-prefix closed form against the LP solver."""

    @pytest.mark.parametrize("profile", list(PROFILES))
    def test_generator_profiles(self, profile):
        rng = np.random.default_rng(list(PROFILES).index(profile))
        for _ in range(40):
            _agrees_with_reference(*draw_instance(rng, profile))

    @given(_utilizations, _speeds)
    @settings(max_examples=150, deadline=None)
    @example([], [1.0])  # n = 0
    @example([0.5, 1.5], [1.0, 2.0, 2.0, 3.0])  # n < m
    @example([0.7, 0.4, 0.9], [1.0])  # m = 1
    @example([2.0, 2.0, 2.0], [2.0, 2.0, 1.0])  # ties in both
    def test_hypothesis_instances(self, utils, speeds):
        _agrees_with_reference(ts(*utils), Platform.from_speeds(speeds))
