"""Tests for the executable proof machinery (machine classes, load
bounds, certificates)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.certificates import (
    classify_machines,
    corollary_iv3_holds,
    corollary_v3_holds,
    edf_load_bounds_hold,
    partitioned_infeasibility_certificate,
    rms_load_bounds_hold,
)
from repro.core.model import Platform, Task, TaskSet
from repro.core.partition import first_fit_partition
from repro.workloads.builder import generate_taskset
from repro.workloads.platforms import geometric_platform


def ts(*utils):
    return TaskSet(Task.from_utilization(u, 10.0) for u in utils)


def failing_runs(rng, test, alpha, count=40):
    """Generate (taskset, platform, failed result) triples."""
    out = []
    attempts = 0
    while len(out) < count and attempts < count * 200:
        attempts += 1
        m = int(rng.integers(2, 6))
        platform = geometric_platform(m, float(rng.uniform(1.5, 10.0)))
        n = int(rng.integers(4, 16))
        stress = float(rng.uniform(alpha * 0.9, alpha * 1.6))
        taskset = generate_taskset(
            rng,
            n,
            stress * platform.total_speed,
            u_max=alpha * platform.fastest_speed * 1.2,
        )
        result = first_fit_partition(taskset, platform, test, alpha=alpha)
        if not result.success:
            out.append((taskset, platform, result))
    assert out, "could not generate failing runs"
    return out


class TestClassifyMachines:
    def test_groups_are_contiguous_partition(self):
        platform = Platform.from_speeds([0.1, 0.5, 1.0, 2.0, 8.0])
        classes = classify_machines(platform, w_n=1.0, alpha=2.0, c_s=3.0)
        all_idx = sorted(classes.slow + classes.medium + classes.fast)
        assert all_idx == list(range(5))
        # slow: alpha*s < 1 -> s < 0.5 -> index 0
        assert classes.slow == (0,)
        # fast: alpha*s >= 3 -> s >= 1.5 -> indices 3, 4
        assert classes.fast == (3, 4)
        assert classes.medium == (1, 2)

    def test_thresholds(self):
        platform = Platform.from_speeds([1.0])
        classes = classify_machines(platform, w_n=2.0, alpha=2.0, c_s=4.0)
        assert classes.s_s == pytest.approx(1.0)
        assert classes.s_f == pytest.approx(4.0)

    def test_boundary_machine_is_not_slow(self):
        # speed exactly w_n / alpha: medium, not slow (alpha*s >= w_n)
        platform = Platform.from_speeds([1.0])
        classes = classify_machines(platform, w_n=2.0, alpha=2.0, c_s=3.0)
        assert classes.slow == ()
        assert classes.medium == (0,)

    def test_group_of(self):
        platform = Platform.from_speeds([0.1, 1.0, 10.0])
        classes = classify_machines(platform, w_n=1.0, alpha=2.0, c_s=3.0)
        assert classes.group_of(0) == "slow"
        assert classes.group_of(2) == "fast"

    def test_invalid_args(self):
        platform = Platform.from_speeds([1.0])
        with pytest.raises(ValueError):
            classify_machines(platform, w_n=0.0, alpha=2.0, c_s=3.0)
        with pytest.raises(ValueError):
            classify_machines(platform, w_n=1.0, alpha=2.0, c_s=0.5)


class TestLoadLowerBounds:
    def test_edf_bounds_on_random_failures(self, rng):
        """§IV.A: every failed EDF run satisfies the medium/fast load
        floors (property over random failing instances)."""
        for taskset, platform, result in failing_runs(rng, "edf", alpha=2.98):
            assert edf_load_bounds_hold(taskset, platform, result, c_s=2.868)

    def test_rms_bounds_on_random_failures(self, rng):
        for taskset, platform, result in failing_runs(rng, "rms-ll", alpha=3.34):
            assert rms_load_bounds_hold(taskset, platform, result, c_s=2.0)

    def test_requires_failed_result(self):
        taskset = ts(0.2)
        platform = Platform.from_speeds([1.0])
        ok = first_fit_partition(taskset, platform, "edf")
        assert ok.success
        with pytest.raises(ValueError):
            edf_load_bounds_hold(taskset, platform, ok, c_s=2.868)
        with pytest.raises(ValueError):
            rms_load_bounds_hold(taskset, platform, ok, c_s=2.0)


class TestCorollaries:
    def test_corollary_iv3_on_random_failures(self, rng):
        for taskset, platform, result in failing_runs(rng, "edf", alpha=2.0):
            assert corollary_iv3_holds(taskset, platform, result)

    def test_corollary_v3_on_random_failures(self, rng):
        for taskset, platform, result in failing_runs(
            rng, "rms-ll", alpha=1 + np.sqrt(2)
        ):
            assert corollary_v3_holds(taskset, platform, result)

    def test_requires_failure(self):
        taskset, platform = ts(0.1), Platform.from_speeds([1.0])
        ok = first_fit_partition(taskset, platform, "edf")
        with pytest.raises(ValueError):
            corollary_iv3_holds(taskset, platform, ok)


class TestFailureCertificate:
    def test_requires_failed_result(self):
        taskset, platform = ts(0.1), Platform.from_speeds([1.0])
        ok = first_fit_partition(taskset, platform, "edf")
        with pytest.raises(ValueError):
            partitioned_infeasibility_certificate(taskset, platform, ok)

    def test_certificate_fields(self):
        taskset = ts(0.9, 0.8)
        platform = Platform.from_speeds([1.0])
        result = first_fit_partition(taskset, platform, "edf", alpha=1.0)
        assert not result.success
        cert = partitioned_infeasibility_certificate(taskset, platform, result)
        assert cert.w_n == pytest.approx(0.8)
        assert cert.prefix_utilization == pytest.approx(1.7)
        assert cert.eligible_machines == (0,)
        assert cert.eligible_capacity == pytest.approx(1.0)
        assert cert.certifies  # 1.7 > 1.0: no partition can work

    def test_certificate_may_not_certify_below_theorem_alpha(self):
        # at alpha=1, failures can be spurious (partition may exist)
        taskset = ts(0.7, 0.7, 0.7)
        platform = Platform.from_speeds([1.0, 1.0])
        result = first_fit_partition(taskset, platform, "edf", alpha=1.0)
        assert not result.success
        cert = partitioned_infeasibility_certificate(taskset, platform, result)
        # prefix utilization 2.1 > capacity 2.0: certifies here (genuinely
        # infeasible); build a case that does NOT certify:
        assert cert.certifies
        taskset2 = ts(0.6, 0.6, 0.6)
        result2 = first_fit_partition(taskset2, platform, "edf", alpha=1.0)
        assert not result2.success  # 0.6+0.6 > 1 on each machine
        cert2 = partitioned_infeasibility_certificate(taskset2, platform, result2)
        assert not cert2.certifies  # 1.8 <= 2.0: the partition {2 tasks...
        # ...cannot actually exist, but this certificate can't prove it}
