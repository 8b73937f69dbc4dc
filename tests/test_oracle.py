"""Tests for the differential oracle (repro.oracle).

The heart is the property sweep: for every admission test, ≥500 seeded
instances — randomized plus boundary-adversarial — must uphold the
per-test slice of the invariant lattice.  On top: the full cross-oracle
lattice on a smaller budget, the shrinker's contracts, replay of the
persisted fixtures, and the injected-bug self-test that proves the
harness can actually catch a broken test.
"""

from __future__ import annotations

import json
import zlib
from pathlib import Path

import numpy as np
import pytest

from repro.core.bounds import ADMISSION_TEST_NAMES, admission_test
from repro.core.model import Platform, Task, TaskSet
from repro.oracle import (
    CHECKS,
    COUNTEREXAMPLE_SCHEMA,
    PER_TEST_CHECKS,
    PROFILES,
    OracleConfig,
    Violation,
    boundary_nudges,
    check_instance,
    draw_instance,
    replay_counterexample,
    run_fuzz,
    self_test,
    shrink_instance,
)
from repro.oracle.fuzz import _BrokenLLTest
from repro.oracle.generators import scale_hyperbolic_to, scale_total_to

FIXTURES = Path(__file__).parent / "fixtures" / "counterexamples"

#: the cheap per-test lattice slice (no exact adversaries / LP / service)
_CHEAP_CHECKS = (
    "single-machine-lattice",
    "incremental-vs-oneshot",
    "verify-partition",
)


def _sweep(name: str, n_instances: int, checks: tuple[str, ...]) -> None:
    config = OracleConfig(tests=(name,), checks=checks)
    profiles = tuple(PROFILES)
    rng = np.random.default_rng(0xBADBEEF ^ zlib.crc32(name.encode()))
    violations: list[Violation] = []
    for k in range(n_instances):
        taskset, platform = draw_instance(rng, profiles[k % len(profiles)])
        violations.extend(check_instance(taskset, platform, config))
        if violations:
            break
    assert not violations, (
        f"{name}: lattice violated on instance {k}: "
        f"{[v.as_dict() for v in violations]}"
    )


class TestGenerators:
    def test_all_profiles_draw_valid_instances(self, rng):
        for profile in PROFILES:
            for _ in range(10):
                taskset, platform = draw_instance(rng, profile)
                assert len(taskset) >= 1
                assert len(platform) >= 1
                assert taskset.total_utilization > 0
                if profile in ("constrained", "boundary-qpa"):
                    # the constrained family stays in the d <= p model
                    assert all(t.deadline <= t.period for t in taskset)
                else:
                    assert taskset.is_implicit

    def test_constrained_profiles_exercise_the_deadline_axis(self, rng):
        for profile in ("constrained", "boundary-qpa"):
            seen_constrained = False
            for _ in range(20):
                taskset, _ = draw_instance(rng, profile)
                if not taskset.is_implicit:
                    seen_constrained = True
            assert seen_constrained, profile

    def test_unknown_profile(self, rng):
        with pytest.raises(KeyError):
            draw_instance(rng, "nope")

    def test_scale_total_hits_target(self, rng):
        for _ in range(20):
            taskset, _ = draw_instance(rng, "uniform")
            target = float(rng.uniform(0.3, 3.0))
            scaled = scale_total_to(taskset, target)
            assert scaled.total_utilization == pytest.approx(
                target, rel=1e-12
            )

    def test_scale_hyperbolic_hits_target(self, rng):
        for _ in range(20):
            taskset, _ = draw_instance(rng, "uniform")
            speed = float(rng.uniform(0.5, 2.0))
            scaled = scale_hyperbolic_to(taskset, speed, target=2.0)
            prod = 1.0
            for t in scaled:
                prod *= t.utilization / speed + 1.0
            assert prod == pytest.approx(2.0, rel=1e-9)

    def test_nudges_cover_both_sides_of_eps(self):
        nudges = boundary_nudges()
        assert 0.0 in nudges
        assert any(0 < abs(x) < 1e-9 for x in nudges)  # inside the window
        assert any(abs(x) > 1e-9 for x in nudges)  # outside it


class TestPerTestLattice:
    """≥500 seeded instances per admission test through the per-test
    lattice slice (dominance chain, incremental-vs-oneshot agreement,
    partition verification)."""

    @pytest.mark.parametrize("name", ADMISSION_TEST_NAMES)
    def test_500_instances(self, name):
        _sweep(name, 500, _CHEAP_CHECKS)

    @pytest.mark.parametrize("name", ("edf", "rms-ll"))
    def test_theorem_speedups_sample(self, name):
        # exact adversaries + LP are pricier: smaller budget, full slice
        _sweep(name, 60, PER_TEST_CHECKS)


class TestFullLattice:
    def test_cross_oracle_checks(self, rng):
        """Every invariant — including LP dominance, certificates, and
        serialize/service round-trips — on a mixed-profile sample."""
        config = OracleConfig()  # all tests, all checks
        profiles = tuple(PROFILES)
        for k in range(60):
            taskset, platform = draw_instance(rng, profiles[k % len(profiles)])
            violations = check_instance(taskset, platform, config)
            assert not violations, [v.as_dict() for v in violations]

    def test_unknown_check_rejected(self):
        with pytest.raises(KeyError):
            check_instance(
                TaskSet([Task(1, 10)]),
                Platform.from_speeds([1.0]),
                OracleConfig(checks=("nope",)),
            )

    def test_per_test_checks_subset_of_registry(self):
        assert set(PER_TEST_CHECKS) <= set(CHECKS)


class TestShrinker:
    def test_requires_failing_start(self):
        ts = TaskSet([Task(1, 10)])
        pf = Platform.from_speeds([1.0])
        with pytest.raises(ValueError):
            shrink_instance(ts, pf, lambda t, p: False)

    def test_drops_irrelevant_tasks_and_machines(self):
        ts = TaskSet([Task(6, 10)] + [Task(1, 100, name=f"x{i}") for i in range(7)])
        pf = Platform.from_speeds([0.25, 0.5, 1.0])

        def predicate(t: TaskSet, p: Platform) -> bool:
            return any(task.utilization > 0.55 for task in t)

        result = shrink_instance(ts, pf, predicate)
        assert len(result.taskset) == 1
        assert len(result.platform) == 1
        assert result.taskset[0].utilization > 0.55

    def test_rescale_mutation_reaches_threshold_minimum(self):
        """Plain dropping lowers total utilization below a threshold
        predicate; the drop+rescale mutation must still reach n=1."""
        ts = TaskSet([Task(2, 10, name=f"t{i}") for i in range(6)])  # U=1.2
        pf = Platform.from_speeds([1.0])

        def predicate(t: TaskSet, p: Platform) -> bool:
            return t.total_utilization > 1.1  # dropping alone breaks this

        result = shrink_instance(ts, pf, predicate)
        assert len(result.taskset) == 1
        assert result.taskset[0].utilization > 1.1

    def test_rounding_produces_tidy_numbers(self):
        ts = TaskSet([Task(0.123456789, 9.87654321)])
        pf = Platform.from_speeds([1.0000001])

        def predicate(t: TaskSet, p: Platform) -> bool:
            return t.total_utilization > 0.001

        result = shrink_instance(ts, pf, predicate)
        assert result.taskset[0].wcet == pytest.approx(0.1, rel=0.5)
        assert result.platform.speeds[0] == 1.0

    def test_crashing_predicate_counts_as_not_reproduced(self):
        ts = TaskSet([Task(1, 10), Task(2, 10)])
        pf = Platform.from_speeds([1.0])

        def predicate(t: TaskSet, p: Platform) -> bool:
            if len(t) < 2:
                raise RuntimeError("boom")
            return True

        result = shrink_instance(ts, pf, predicate)
        assert len(result.taskset) == 2  # reductions that crash are rejected

    def test_respects_budget(self):
        # successful reductions 8->4->2->1 tasks spend exactly 3
        # evaluations; the budget then runs dry mid-platform-phase
        ts = TaskSet([Task(1, 10, name=f"t{i}") for i in range(8)])
        pf = Platform.from_speeds([1.0, 1.0])
        result = shrink_instance(ts, pf, lambda t, p: True, max_evaluations=3)
        assert result.evaluations == 3
        assert result.exhausted
        assert len(result.taskset) == 1
        assert len(result.platform) == 2  # budget died before machine drop


class TestFuzzCampaign:
    def test_clean_run(self, tmp_path):
        out_dir = tmp_path / "ce"
        report = run_fuzz(seed=7, budget=40, jobs=1, out_dir=out_dir)
        assert report.ok
        assert report.trials == 40
        assert sum(report.by_profile.values()) == 40
        assert not list(out_dir.glob("*.json")) if out_dir.exists() else True
        assert "no invariant violations" in report.summary()

    def test_deterministic_across_jobs(self, tmp_path):
        """Findings and summary are bit-identical at any --jobs."""
        a = run_fuzz(seed=3, budget=24, jobs=1, out_dir=None)
        b = run_fuzz(seed=3, budget=24, jobs=2, out_dir=None)
        assert a.summary() == b.summary()
        assert a.by_profile == b.by_profile

    def test_validates_arguments(self):
        with pytest.raises(ValueError):
            run_fuzz(seed=0, budget=0)
        with pytest.raises(KeyError):
            run_fuzz(seed=0, budget=1, profiles=["nope"])
        with pytest.raises(ValueError):
            run_fuzz(seed=0, budget=1, checks=["roundtrip"], config=OracleConfig())

    def test_violation_is_shrunk_and_persisted(self, tmp_path):
        """With the broken test injected, run_fuzz must find, shrink and
        persist a replayable counterexample."""
        config = OracleConfig(
            tests=("rms-ll",),
            overrides={"rms-ll": _BrokenLLTest()},
            checks=("theorem-speedup",),
        )
        report = run_fuzz(
            seed=0,
            budget=20,
            jobs=1,
            config=config,
            out_dir=tmp_path / "ce",
            campaign_name="oracle-self-test",
        )
        assert not report.ok
        assert report.counterexamples
        ce = report.counterexamples[0]
        assert ce.invariant == "theorem-speedup"
        assert ce.n_tasks <= 3
        assert ce.path is not None
        data = json.loads(Path(ce.path).read_text())
        assert data["schema"] == COUNTEREXAMPLE_SCHEMA
        assert data["config"]["overrides"] == ["rms-ll"]
        # replaying with the override injected reproduces the violation
        violations = replay_counterexample(ce.path, config=config)
        assert violations
        # replaying against the real (fixed) tests is clean
        assert replay_counterexample(ce.path) == []


class TestReplayFixtures:
    def test_fixture_directory_populated(self):
        assert sorted(p.name for p in FIXTURES.glob("*.json"))

    @pytest.mark.parametrize(
        "name",
        sorted(p.name for p in FIXTURES.glob("*.json")),
    )
    def test_fixtures_no_longer_reproduce(self, name):
        """Each fixture records a historical (or injected) bug; on the
        fixed code, replay must come back clean."""
        assert replay_counterexample(FIXTURES / name) == []

    def test_broken_ll_fixture_reproduces_under_injection(self):
        path = FIXTURES / "theorem-speedup-broken-ll.json"
        config = OracleConfig(
            tests=("rms-ll",),
            overrides={"rms-ll": _BrokenLLTest()},
            checks=("theorem-speedup",),
        )
        violations = replay_counterexample(path, config=config)
        assert violations
        assert violations[0].invariant == "theorem-speedup"

    def test_hyperbolic_fixture_sits_in_tolerance_window(self):
        """The early-exit fixture's product is genuinely between the old
        absolute cutoff and the relative-leq threshold."""
        data = json.loads(
            (FIXTURES / "incremental-vs-oneshot-hyperbolic-earlyexit.json").read_text()
        )
        prod = 1.0
        for t in data["taskset"]["tasks"]:
            prod *= t["wcet"] / t["period"] + 1.0
        assert 2.0 + 1e-9 < prod <= 2.0 + 2e-9

    def test_replay_rejects_wrong_schema(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": "other/v9"}))
        with pytest.raises(ValueError):
            replay_counterexample(bad)


class TestSelfTest:
    def test_catches_and_shrinks_injected_bug(self):
        result = self_test(seed=0)
        assert result.caught
        assert result.invariant == "theorem-speedup"
        assert result.shrunk_tasks <= 3
        assert result.shrunk_machines == 1
        assert result.ok
        assert "self-test ok" in result.summary()

    def test_broken_ll_is_an_over_rejector(self):
        """Sanity: the injected bug rejects sets the real test accepts,
        never the other way round (so only accept-side invariants fire)."""
        broken = _BrokenLLTest()
        real = admission_test("rms-ll")
        tasks = [
            Task.from_utilization(0.2, 10),
            Task.from_utilization(0.2, 20),
            Task.from_utilization(0.2, 40),
        ]
        assert real.feasible(tasks, 1.0)
        assert not broken.feasible(tasks, 1.0)
        # one task: bounds coincide, both accept
        single = [Task.from_utilization(0.4, 10)]
        assert real.feasible(single, 1.0)
        assert broken.feasible(single, 1.0)
