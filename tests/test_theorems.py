"""Property-based tests of Theorems I.1–I.4 — the paper's main results.

Each theorem is an implication with two checkable sides:

* **acceptance**: if first-fit succeeds at the theorem's alpha, the
  returned partition is schedulable on the alpha-augmented platform
  (checked against the one-shot per-machine tests and by simulation);
* **rejection**: if first-fit fails at the theorem's alpha, the adversary
  of that theorem can do nothing at speed 1 — checked against the exact
  partitioned adversary / the LP oracle on randomly generated instances,
  and via the contrapositive on certified-feasible instances.

Any counterexample found here would falsify the paper (or our
implementation); none exists.
"""

from __future__ import annotations

import math

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.baselines.exact import exact_partitioned_edf_feasible
from repro.core.feasibility import (
    edf_test_vs_any,
    edf_test_vs_partitioned,
    rms_test_vs_any,
    rms_test_vs_partitioned,
)
from repro.core.lp import lp_feasible
from repro.core.model import Platform, Task, TaskSet
from repro.core.partition import first_fit_partition, verify_partition
from repro.workloads.builder import (
    lp_feasible_instance,
    partitioned_feasible_instance,
)
from repro.workloads.platforms import geometric_platform

ALPHA_RMS_PART = 1 + math.sqrt(2)

utils_strategy = st.lists(
    st.floats(min_value=0.02, max_value=2.5), min_size=1, max_size=12
)
speeds_strategy = st.lists(
    st.floats(min_value=0.2, max_value=4.0), min_size=1, max_size=5
)


def build(utils, speeds):
    taskset = TaskSet(Task.from_utilization(u, 10.0) for u in utils)
    platform = Platform.from_speeds(speeds)
    return taskset, platform


class TestTheoremI1EDFPartitioned:
    @given(utils_strategy, speeds_strategy)
    @settings(max_examples=150, deadline=None)
    def test_acceptance_side(self, utils, speeds):
        """Accept => valid EDF partition on the 2x platform."""
        taskset, platform = build(utils, speeds)
        report = edf_test_vs_partitioned(taskset, platform)
        if report.accepted:
            assert verify_partition(report.partition, taskset, platform)

    @given(utils_strategy, speeds_strategy)
    @settings(max_examples=150, deadline=None)
    def test_rejection_side_vs_exact_adversary(self, utils, speeds):
        """Reject at alpha=2 => NO partition fits at speed 1 (Theorem I.1)."""
        taskset, platform = build(utils, speeds)
        report = edf_test_vs_partitioned(taskset, platform)
        if not report.accepted:
            assert exact_partitioned_edf_feasible(taskset, platform) is False

    @given(utils_strategy, speeds_strategy)
    @settings(max_examples=150, deadline=None)
    def test_rejection_certificate_certifies(self, utils, speeds):
        """Reject at alpha=2 => the arithmetic certificate itself proves it."""
        taskset, platform = build(utils, speeds)
        report = edf_test_vs_partitioned(taskset, platform)
        if not report.accepted:
            assert report.certificate is not None
            assert report.certificate.certifies

    def test_contrapositive_on_witnessed_instances(self, rng):
        """Partitioned-feasible => FF-EDF at alpha=2 accepts (many trials)."""
        for _ in range(60):
            m = int(rng.integers(2, 6))
            platform = geometric_platform(m, float(rng.uniform(1.0, 12.0)))
            inst = partitioned_feasible_instance(
                rng,
                platform,
                load=float(rng.uniform(0.5, 1.0)),
                tasks_per_machine=int(rng.integers(1, 6)),
            )
            report = edf_test_vs_partitioned(inst.taskset, platform)
            assert report.accepted, (
                f"Theorem I.1 violated: witnessed-feasible instance rejected "
                f"(witness loads {inst.witness_loads()}, "
                f"speeds {platform.speeds})"
            )


class TestTheoremI2RMSPartitioned:
    @given(utils_strategy, speeds_strategy)
    @settings(max_examples=100, deadline=None)
    def test_acceptance_side(self, utils, speeds):
        taskset, platform = build(utils, speeds)
        report = rms_test_vs_partitioned(taskset, platform)
        if report.accepted:
            assert verify_partition(report.partition, taskset, platform)

    @given(utils_strategy, speeds_strategy)
    @settings(max_examples=100, deadline=None)
    def test_rejection_side_vs_exact_adversary(self, utils, speeds):
        """Reject at alpha=1+sqrt2 => no capacity-respecting partition
        exists at speed 1."""
        taskset, platform = build(utils, speeds)
        report = rms_test_vs_partitioned(taskset, platform)
        if not report.accepted:
            assert exact_partitioned_edf_feasible(taskset, platform) is False

    def test_contrapositive_on_witnessed_instances(self, rng):
        for _ in range(60):
            m = int(rng.integers(2, 5))
            platform = geometric_platform(m, float(rng.uniform(1.0, 8.0)))
            inst = partitioned_feasible_instance(
                rng,
                platform,
                load=float(rng.uniform(0.5, 1.0)),
                tasks_per_machine=int(rng.integers(1, 5)),
            )
            report = rms_test_vs_partitioned(inst.taskset, platform)
            assert report.accepted, "Theorem I.2 violated"


class TestTheoremI3EDFAny:
    @given(utils_strategy, speeds_strategy)
    @settings(max_examples=60, deadline=None)
    def test_rejection_side_vs_lp(self, utils, speeds):
        """Reject at alpha=2.98 => the LP (any scheduler) is infeasible."""
        taskset, platform = build(utils, speeds)
        report = edf_test_vs_any(taskset, platform)
        if not report.accepted:
            assert not lp_feasible(taskset, platform)

    def test_contrapositive_on_lp_instances(self, rng):
        """LP-feasible => FF-EDF at alpha=2.98 accepts."""
        for _ in range(25):
            m = int(rng.integers(2, 5))
            platform = geometric_platform(m, float(rng.uniform(1.0, 8.0)))
            taskset = lp_feasible_instance(
                rng, platform, int(rng.integers(3, 12)), stress=0.97
            )
            report = edf_test_vs_any(taskset, platform)
            assert report.accepted, "Theorem I.3 violated"


class TestTheoremI4RMSAny:
    @given(utils_strategy, speeds_strategy)
    @settings(max_examples=60, deadline=None)
    def test_rejection_side_vs_lp(self, utils, speeds):
        taskset, platform = build(utils, speeds)
        report = rms_test_vs_any(taskset, platform)
        if not report.accepted:
            assert not lp_feasible(taskset, platform)

    def test_contrapositive_on_lp_instances(self, rng):
        for _ in range(25):
            m = int(rng.integers(2, 5))
            platform = geometric_platform(m, float(rng.uniform(1.0, 8.0)))
            taskset = lp_feasible_instance(
                rng, platform, int(rng.integers(3, 12)), stress=0.97
            )
            report = rms_test_vs_any(taskset, platform)
            assert report.accepted, "Theorem I.4 violated"


class TestHierarchy:
    """Structural relations the theorems imply between the oracles.

    Note what is deliberately NOT here: first-fit verdicts at different
    alphas are not formally comparable (packing anomalies), so no
    cross-alpha implication is asserted — that behaviour is measured, not
    assumed, by the anomaly scan in :mod:`repro.analysis.ratio`.
    """

    @given(utils_strategy, speeds_strategy)
    @settings(max_examples=60, deadline=None)
    def test_partitioned_feasible_implies_lp_feasible(self, utils, speeds):
        """A partitioned schedule is a schedule: exact => LP (the paper's
        two adversary classes are nested)."""
        taskset, platform = build(utils, speeds)
        assume(len(taskset) <= 10)
        if exact_partitioned_edf_feasible(taskset, platform) is True:
            assert lp_feasible(taskset, platform)

    @given(utils_strategy, speeds_strategy)
    @settings(max_examples=80, deadline=None)
    def test_ll_partition_is_edf_valid(self, utils, speeds):
        """LL bound <= 1: any partition the RMS test accepts also
        respects the EDF capacities machine-by-machine."""
        taskset, platform = build(utils, speeds)
        for alpha in (1.0, 2.0):
            rms = first_fit_partition(taskset, platform, "rms-ll", alpha=alpha)
            if rms.success:
                assert verify_partition(rms, taskset, platform, test="edf")
