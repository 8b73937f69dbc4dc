"""Tests for sensitivity analysis and breakdown utilization."""

from __future__ import annotations

import pytest

from repro.analysis.acceptance import ff_tester
from repro.analysis.breakdown import breakdown_utilizations
from repro.analysis.sensitivity import (
    critical_tasks,
    ff_acceptance,
    per_task_slack,
    system_scaling_margin,
)
from repro.core.model import Platform, Task, TaskSet
from repro.workloads.platforms import geometric_platform


def ts(*utils):
    return TaskSet(Task.from_utilization(u, 10.0) for u in utils)


class TestSystemScalingMargin:
    def test_single_machine_closed_form(self):
        # single unit machine at U=0.5: margin exactly 2.0
        accept = ff_acceptance(Platform.from_speeds([1.0]))
        margin = system_scaling_margin(ts(0.25, 0.25), accept, tol=1e-5)
        assert margin == pytest.approx(2.0, abs=1e-4)

    def test_no_margin_at_capacity(self):
        accept = ff_acceptance(Platform.from_speeds([1.0]))
        margin = system_scaling_margin(ts(0.5, 0.5), accept, tol=1e-5)
        assert margin == pytest.approx(1.0, abs=1e-4)

    def test_rejected_base_raises(self):
        accept = ff_acceptance(Platform.from_speeds([1.0]))
        with pytest.raises(ValueError):
            system_scaling_margin(ts(0.8, 0.8), accept)

    def test_empty_taskset_raises(self):
        accept = ff_acceptance(Platform.from_speeds([1.0]))
        with pytest.raises(ValueError):
            system_scaling_margin(TaskSet([]), accept)

    def test_margin_point_verified(self, rng):
        platform = geometric_platform(3, 4.0)
        accept = ff_acceptance(platform)
        for _ in range(10):
            utils = rng.uniform(0.05, 0.4, size=6)
            taskset = ts(*utils)
            margin = system_scaling_margin(taskset, accept, tol=1e-4)
            assert accept(taskset.scaled(margin))
            assert not accept(taskset.scaled(margin + 1e-2))

    def test_rms_margin_below_edf(self, rng):
        platform = geometric_platform(3, 4.0)
        edf = ff_acceptance(platform, "edf")
        rms = ff_acceptance(platform, "rms-ll")
        for _ in range(10):
            utils = rng.uniform(0.05, 0.25, size=6)
            taskset = ts(*utils)
            m_edf = system_scaling_margin(taskset, edf)
            m_rms = system_scaling_margin(taskset, rms)
            # scaling the whole set: LL acceptance implies EDF acceptance
            # per machine, so the margin cannot be larger
            assert m_rms <= m_edf + 1e-3


class TestPerTaskSlack:
    def test_single_task_slack(self):
        accept = ff_acceptance(Platform.from_speeds([1.0]))
        slack = per_task_slack(ts(0.25, 0.25), 0, accept, tol=1e-5)
        # task 0 can grow from 0.25 to 0.75: factor 3
        assert slack == pytest.approx(3.0, abs=1e-3)

    def test_index_validation(self):
        accept = ff_acceptance(Platform.from_speeds([1.0]))
        with pytest.raises(IndexError):
            per_task_slack(ts(0.5), 3, accept)

    def test_critical_tasks_sorted(self):
        accept = ff_acceptance(Platform.from_speeds([1.0]))
        # the big task has the least room to grow
        result = critical_tasks(ts(0.6, 0.1), accept)
        assert result[0].index == 0
        assert result[0].slack < result[1].slack

    def test_names_carried(self):
        accept = ff_acceptance(Platform.from_speeds([1.0]))
        taskset = TaskSet([Task(1, 10, name="hot"), Task(1, 10, name="cold")])
        result = critical_tasks(taskset, accept)
        assert {r.name for r in result} == {"hot", "cold"}


class TestBreakdown:
    def test_ordering_across_tests(self, rng):
        platform = geometric_platform(3, 4.0)
        study = breakdown_utilizations(
            rng,
            platform,
            {
                "edf": ff_tester("edf"),
                "ll": ff_tester("rms-ll"),
            },
            n_tasks=8,
            samples=10,
        )
        for e, l in zip(study.samples["edf"], study.samples["ll"]):
            assert l <= e + 1e-6

    def test_values_in_unit_range(self, rng):
        platform = geometric_platform(2, 2.0)
        study = breakdown_utilizations(
            rng, platform, {"edf": ff_tester("edf")}, n_tasks=6, samples=8
        )
        for v in study.samples["edf"]:
            assert 0.0 < v <= 1.0 + 1e-6

    def test_summary(self, rng):
        platform = geometric_platform(2, 2.0)
        study = breakdown_utilizations(
            rng, platform, {"edf": ff_tester("edf")}, n_tasks=6, samples=8
        )
        s = study.summary("edf")
        assert s.n == 8

    def test_invalid_args(self, rng):
        platform = geometric_platform(2, 2.0)
        with pytest.raises(ValueError):
            breakdown_utilizations(
                rng, platform, {"edf": ff_tester("edf")}, base_fraction=1.5
            )
        with pytest.raises(ValueError):
            breakdown_utilizations(
                rng, platform, {"edf": ff_tester("edf")}, samples=0
            )
