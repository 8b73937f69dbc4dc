"""Edge-path coverage: boundary and degenerate cases across modules."""

from __future__ import annotations

import pytest

from repro.core.dbf import demand_bound_horizon, qpa_edf_feasible
from repro.core.feasibility import rms_test_vs_partitioned
from repro.core.model import EPS, Platform, Task, TaskSet
from repro.sim.gantt import render_gantt
from repro.sim.uniprocessor import simulate_taskset_on_machine


class TestRMSCertificatePath:
    def test_rms_rejection_carries_certifying_certificate(self):
        """Theorem I.2's rejection certificate: at alpha = 1+sqrt2, every
        rejection proves no capacity-respecting partition exists."""
        # one slow machine; tasks too heavy to ever coexist
        taskset = TaskSet(
            [Task.from_utilization(0.9, 10.0) for _ in range(3)]
        )
        platform = Platform.from_speeds([1.0])
        report = rms_test_vs_partitioned(taskset, platform)
        assert not report.accepted
        cert = report.certificate
        assert cert is not None
        assert cert.certifies
        # the certificate's numbers are reconstructible by hand:
        # prefix = everything placed + the failing task
        assert cert.prefix_utilization <= taskset.total_utilization + EPS
        assert cert.eligible_capacity == pytest.approx(1.0)

    def test_rms_random_rejections_all_certify(self, rng):
        from repro.workloads.builder import generate_taskset
        from repro.workloads.platforms import geometric_platform

        platform = geometric_platform(3, 4.0)
        found = 0
        for _ in range(300):
            stress = float(rng.uniform(2.0, 3.5))
            taskset = generate_taskset(
                rng, 8, stress * platform.total_speed,
                u_max=2.5 * platform.fastest_speed,
            )
            report = rms_test_vs_partitioned(taskset, platform)
            if not report.accepted:
                found += 1
                assert report.certificate is not None
                assert report.certificate.certifies
            if found >= 25:
                break
        assert found >= 10


class TestDBFHorizonDegenerates:
    def test_implicit_at_full_utilization_trivial_horizon(self):
        # B == 0 (all implicit): horizon collapses to d_max, test passes
        tasks = [Task(5, 10), Task(5, 10)]  # U = 1.0 exactly
        assert demand_bound_horizon(tasks, 1.0) == 10.0
        assert qpa_edf_feasible(tasks, 1.0)

    def test_constrained_at_full_utilization_uses_hyperperiod(self):
        # U == speed with constrained deadlines: La is unbounded, the
        # hyperperiod bound must kick in and the verdict stay exact
        tasks = [Task(2, 4, deadline=3), Task(2, 4, deadline=4)]  # U = 1.0
        h = demand_bound_horizon(tasks, 1.0)
        assert h is not None and h <= 8.0 + 1e-9
        verdict = qpa_edf_feasible(tasks, 1.0)
        trace = simulate_taskset_on_machine(tasks, 1.0, "edf", horizon=8.0)
        assert verdict == (not trace.any_miss)

    def test_overload_is_none(self):
        assert demand_bound_horizon([Task(3, 2)], 1.0) is None

    def test_huge_coprime_periods_at_full_utilization(self):
        # U == speed, constrained, hyperperiod beyond cap: conservative None
        tasks = [
            Task(9973 / 2, 9973, deadline=5000),
            Task(9967 / 2, 9967, deadline=5000),
        ]
        # U = 1.0; lcm(9973, 9967) ~ 1e8 > default cap in the module? the
        # rationalized lcm is ~9.94e7, above the 1e7 cap -> None
        assert demand_bound_horizon(tasks, 1.0) is None
        assert not qpa_edf_feasible(tasks, 1.0)  # conservative rejection


class TestGanttOptions:
    def test_custom_characters(self):
        tasks = [Task(2, 4)]
        trace = simulate_taskset_on_machine(tasks, 1.0, "edf", horizon=8)
        art = render_gantt(
            trace, tasks, width=16, run_char="=", idle_char="_"
        )
        assert "=" in art and "_" in art and "#" not in art

    def test_unnamed_tasks_get_indices(self):
        tasks = [Task(1, 4), Task(1, 6)]
        trace = simulate_taskset_on_machine(tasks, 1.0, "edf", horizon=12)
        art = render_gantt(trace, tasks, width=12)
        assert "t0" in art and "t1" in art


class TestCLIMachineFilter:
    def test_gantt_single_machine(self, tmp_path, capsys):
        from repro.cli import main

        inst = tmp_path / "i.json"
        main(
            [
                "generate", str(inst), "--tasks", "4", "--machines", "2",
                "--stress", "0.5", "--seed", "9",
            ]
        )
        capsys.readouterr()
        code = main(
            ["gantt", str(inst), "--alpha", "2.0", "--machine", "1",
             "--horizon", "40"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "machine 1" in out
        assert "machine 0" not in out


class TestTaskSetBoundaries:
    def test_taskset_density_vs_utilization(self):
        ts = TaskSet([Task(2, 10, deadline=4), Task(2, 10)])
        assert ts.total_utilization == pytest.approx(0.4)
        assert ts.total_density == pytest.approx(0.5 + 0.2)
        assert not ts.is_implicit

    def test_scaled_preserves_deadline(self):
        t = Task(2, 10, deadline=4).scaled(2.0)
        assert t.deadline == 4.0
        assert t.wcet == 4.0

    def test_invalid_deadline(self):
        with pytest.raises(ValueError):
            Task(1, 10, deadline=0.0)
        with pytest.raises(ValueError):
            Task(1, 10, deadline=float("inf"))

    def test_arbitrary_deadline_beyond_period_allowed(self):
        t = Task(1, 4, deadline=10)
        assert t.density == pytest.approx(0.25)  # min(d, p) = p
        assert not t.is_implicit
