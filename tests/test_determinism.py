"""Reproducibility guarantees: same seed, same results — everywhere.

EXPERIMENTS.md's numbers are only meaningful if runs are deterministic;
these tests pin that for the generators, the experiments, and the
simulator.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.experiments import get_experiment
from repro.sim.uniprocessor import simulate_taskset_on_machine
from repro.workloads.builder import generate_taskset, partitioned_feasible_instance
from repro.workloads.platforms import geometric_platform, random_platform


class TestGeneratorDeterminism:
    def test_taskset_generation(self):
        a = generate_taskset(np.random.default_rng(11), 10, 2.0)
        b = generate_taskset(np.random.default_rng(11), 10, 2.0)
        assert a == b

    def test_platform_generation(self):
        a = random_platform(np.random.default_rng(3), 5)
        b = random_platform(np.random.default_rng(3), 5)
        assert a == b

    def test_witnessed_instances(self):
        platform = geometric_platform(3, 4.0)
        a = partitioned_feasible_instance(np.random.default_rng(7), platform)
        b = partitioned_feasible_instance(np.random.default_rng(7), platform)
        assert a.taskset == b.taskset
        assert a.witness == b.witness


class TestExperimentDeterminism:
    def test_e01_rows_identical(self):
        a = get_experiment("e01")(seed=123, scale="quick")
        b = get_experiment("e01")(seed=123, scale="quick")
        assert a.rows == b.rows

    def test_e04_rows_identical(self):
        a = get_experiment("e04")(seed=123, scale="quick")
        b = get_experiment("e04")(seed=123, scale="quick")
        assert a.rows == b.rows

    def test_e10_bit_identical_across_jobs(self):
        # adaptive draw rounds are whole-batch, so jobs must not change
        # which draws are classified (rows contain NaN bounds — compare
        # the rendered table, the CLI's stdout contract)
        a = get_experiment("e10")(seed=7, scale="quick", jobs=1)
        b = get_experiment("e10")(seed=7, scale="quick", jobs=2)
        assert a.render() == b.render()
        assert a.notes == b.notes

    def test_e11_bit_identical_across_jobs(self):
        a = get_experiment("e11")(seed=7, scale="quick", jobs=1)
        b = get_experiment("e11")(seed=7, scale="quick", jobs=2)
        assert a.render() == b.render()
        assert a.rows == b.rows

    def test_seed_changes_results(self):
        a = get_experiment("e04")(seed=1, scale="quick")
        b = get_experiment("e04")(seed=2, scale="quick")
        # the summaries derive from different instances; identical output
        # would indicate a seeding bug (alpha* ties at exactly 1.0 are
        # possible, so compare the full sample summaries)
        assert a.rows != b.rows or a.extra_tables != b.extra_tables


class TestSimulatorDeterminism:
    def test_sporadic_trace_reproducible(self):
        from repro.core.model import Task

        tasks = [Task(1, 4), Task(2, 7)]
        a = simulate_taskset_on_machine(
            tasks, 1.0, "edf", release="sporadic",
            rng=np.random.default_rng(5), horizon=200.0,
        )
        b = simulate_taskset_on_machine(
            tasks, 1.0, "edf", release="sporadic",
            rng=np.random.default_rng(5), horizon=200.0,
        )
        assert a.segments == b.segments
        assert a.jobs == b.jobs


def _sim_corpus_digest() -> str:
    """sha256 over the segments and job records of a fixed simulator corpus.

    Covers the uniprocessor simulator under periodic and sporadic release,
    firm-deadline abort, preemption overhead and ``stop_on_first_miss``,
    and the global simulator on one to four machines, with EDF and RMS,
    integer and non-integer periods, and implicit and constrained
    deadlines.  Each trace enters as plain tuples (its horizon, every
    segment's ``(machine, start, end, task_index, job_id)`` and every job
    record's fields), so renaming a class moves nothing.  Floats enter
    through ``repr``, which round-trips exactly.
    """
    from repro.core.model import Task
    from repro.sim import PeriodicSource, SporadicSource, simulate_global

    speeds = (0.5, 0.75, 1.0, 1.5, 2.0, 3.0)
    rng = np.random.default_rng(20270)
    h = hashlib.sha256()

    def feed(trace) -> None:
        segments = [
            (s.machine, s.start, s.end, s.task_index, s.job_id) for s in trace.segments
        ]
        jobs = [
            (r.task_index, r.job_id, r.release, r.deadline, r.work, r.completion, r.missed)
            for r in trace.jobs
        ]
        h.update(repr((trace.horizon, segments, jobs)).encode())

    for case in range(48):
        n = int(rng.integers(1, 6))
        if case % 2:
            periods = rng.uniform(1.5, 12.0, n)
        else:
            periods = rng.integers(2, 13, n).astype(float)
        utils = rng.uniform(0.05, 0.6, n)
        shrink = rng.uniform(0.6, 1.0, n) if case % 3 == 0 else np.ones(n)
        tasks = [
            Task(float(u * p), float(p), deadline=float(p * d))
            for u, p, d in zip(utils, periods, shrink)
        ]
        policy = ("edf", "rms")[case % 4 // 2]
        speed = speeds[case % len(speeds)]
        for kwargs in (
            {},
            {"release": "sporadic", "rng": np.random.default_rng(case)},
            {"on_miss": "abort"},
            {"preemption_overhead": 0.05},
            {"stop_on_first_miss": True},
            {"on_miss": "abort", "stop_on_first_miss": True},
        ):
            feed(
                simulate_taskset_on_machine(
                    tasks, speed, policy, horizon=36.0, **kwargs
                )
            )
        platform = [float(s) for s in rng.choice(speeds, 4)]
        for m in range(1, 5):
            sources = (
                [PeriodicSource(t, i) for i, t in enumerate(tasks)]
                if case % 5
                else [
                    SporadicSource(t, i, np.random.default_rng(m))
                    for i, t in enumerate(tasks)
                ]
            )
            feed(simulate_global(tasks, platform[:m], policy, sources, 36.0))
    return h.hexdigest()


class TestSimulatorPin:
    def test_corpus_digest_is_pinned(self):
        # any change to the schedules the simulators produce moves this
        # digest; update it only for a deliberate change of behaviour
        assert _sim_corpus_digest() == (
            "1dbbe94c706d24f964026ab682922384b0db47951363cb278e8c32705205364b"
        )
