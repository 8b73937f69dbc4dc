"""Cross-module integration tests: the full pipeline from generation
through testing, adversaries, certificates, and simulation."""

from __future__ import annotations

import numpy as np

from repro.analysis.ratio import min_alpha_first_fit
from repro.baselines.exact import exact_partitioned_edf_feasible
from repro.baselines.ptas import ptas_feasibility_test
from repro.core.feasibility import edf_test_vs_partitioned, rms_test_vs_partitioned
from repro.core.lp import lp_feasible, tol_leq, verify_lemma_ii1
from repro.core.model import Task, TaskSet
from repro.core.partition import first_fit_partition
from repro.sim.multiprocessor import simulate_partitioned
from repro.sim.validators import validate_trace
from repro.workloads.builder import (
    generate_taskset,
    partitioned_feasible_instance,
)
from repro.workloads.platforms import big_little_platform, geometric_platform

from .lp_reference import reference_lp


class TestFourOraclesAgree:
    """On exactly-decidable instances, the oracles must be consistent:
    FF(alpha=1) => PTAS-feasible and exact-feasible => LP-feasible."""

    def test_oracle_chain(self, rng):
        platform = geometric_platform(3, 5.0)
        for _ in range(40):
            stress = float(rng.uniform(0.6, 1.2))
            taskset = generate_taskset(
                rng, 9, stress * platform.total_speed, u_max=platform.fastest_speed
            )
            ff = first_fit_partition(taskset, platform, "edf").success
            exact = exact_partitioned_edf_feasible(taskset, platform)
            lp = lp_feasible(taskset, platform)
            ptas = ptas_feasibility_test(taskset, platform, eps=0.2).feasible
            if ff:
                assert exact is True
            if exact is True:
                assert lp
                assert ptas  # exact packing survives rounding
            if not lp:
                assert exact is False

    def test_lemma_ii1_on_pipeline_solutions(self, rng):
        platform = big_little_platform(1, 3, big_speed=4.0)
        for _ in range(10):
            taskset = generate_taskset(
                rng, 6, 0.8 * platform.total_speed, u_max=platform.fastest_speed
            )
            u, beta = reference_lp(taskset, platform)
            if tol_leq(beta, 1.0):
                assert verify_lemma_ii1(u, taskset, platform, 2.98)


class TestAdmissionControlScenario:
    """A realistic admission-control flow: tasks arrive one at a time;
    the system re-runs the theorem test and only admits while accepted;
    the final admitted set must simulate cleanly."""

    def test_incremental_admission(self, rng):
        platform = big_little_platform(1, 2, big_speed=2.0, little_speed=1.0)
        admitted: list[Task] = []
        rejected = 0
        for k in range(30):
            candidate = Task(
                float(rng.integers(1, 5)), float(rng.choice([4, 5, 8, 10, 20]))
            )
            trial = TaskSet(admitted + [candidate])
            if edf_test_vs_partitioned(trial, platform).accepted:
                admitted.append(candidate)
            else:
                rejected += 1
        assert admitted and rejected  # both paths exercised
        final = TaskSet(admitted)
        report = edf_test_vs_partitioned(final, platform)
        assert report.accepted
        sim = simulate_partitioned(
            final, platform, report.partition, "edf", alpha=report.alpha
        )
        assert not sim.any_miss
        for trace in sim.traces:
            assert validate_trace(trace, final.tasks) == []


class TestMinAlphaAgainstTheorems:
    def test_min_alpha_within_bound_on_witnessed(self, rng):
        platform = geometric_platform(4, 6.0)
        for _ in range(10):
            inst = partitioned_feasible_instance(
                rng, platform, load=0.99, tasks_per_machine=3
            )
            edf = min_alpha_first_fit(inst.taskset, platform, "edf")
            rms = min_alpha_first_fit(inst.taskset, platform, "rms-ll")
            assert edf.alpha <= 2.0 + 2e-3
            assert rms.alpha <= 1 + np.sqrt(2) + 2e-3
            # RMS admission can never need less augmentation than EDF
            assert rms.alpha >= edf.alpha - 2e-3


class TestRMSvsEDFEndToEnd:
    def test_rms_partition_simulates_under_both_policies(self, rng):
        """A partition passing the LL test meets deadlines under RMS and
        (a fortiori) under EDF in actual execution."""
        platform = geometric_platform(2, 3.0)
        inst = partitioned_feasible_instance(
            rng,
            platform,
            load=0.6,
            tasks_per_machine=2,
            integer_periods=True,
            p_min=4,
            p_max=16,
        )
        report = rms_test_vs_partitioned(inst.taskset, platform)
        assert report.accepted
        for policy in ("rms", "edf"):
            sim = simulate_partitioned(
                inst.taskset,
                platform,
                report.partition,
                policy,  # type: ignore[arg-type]
                alpha=report.alpha,
            )
            assert not sim.any_miss
