"""Tests for instance builders and campaigns."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.lp import lp_feasible
from repro.workloads.builder import (
    constrained_feasible_instance,
    generate_taskset,
    lp_feasible_instance,
    partitioned_feasible_instance,
    taskset_from_utilizations,
)
from repro.workloads.campaigns import Campaign, campaign_seed, utilization_grid
from repro.workloads.platforms import geometric_platform


class TestTasksetFromUtilizations:
    def test_basic(self):
        ts = taskset_from_utilizations([0.2, 0.5], [10.0, 4.0])
        assert ts[0].wcet == pytest.approx(2.0)
        assert ts[1].wcet == pytest.approx(2.0)
        assert ts[0].name == "tau0"

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            taskset_from_utilizations([0.2], [10.0, 4.0])


class TestGenerateTaskset:
    def test_uunifast_default(self, rng):
        ts = generate_taskset(rng, 10, 2.5)
        assert len(ts) == 10
        assert ts.total_utilization == pytest.approx(2.5)

    def test_u_max_respected(self, rng):
        ts = generate_taskset(rng, 10, 4.0, u_max=0.7)
        assert ts.max_utilization <= 0.7 + 1e-12

    def test_randfixedsum_with_umin(self, rng):
        ts = generate_taskset(
            rng, 8, 3.0, method="randfixedsum", u_min=0.1, u_max=0.9
        )
        assert all(0.1 - 1e-9 <= t.utilization <= 0.9 + 1e-9 for t in ts)
        assert ts.total_utilization == pytest.approx(3.0)

    def test_umin_requires_randfixedsum(self, rng):
        with pytest.raises(ValueError):
            generate_taskset(rng, 5, 1.0, u_min=0.1)

    def test_unknown_method(self, rng):
        with pytest.raises(ValueError):
            generate_taskset(rng, 5, 1.0, method="magic")  # type: ignore[arg-type]

    def test_integer_periods(self, rng):
        ts = generate_taskset(rng, 10, 2.0, integer_periods=True, p_min=3, p_max=30)
        assert all(t.period == round(t.period) for t in ts)

    def test_implicit_default_is_bit_compatible(self):
        # dr_dist='implicit' must consume the same random stream as the
        # pre-deadline-axis generator, or every pinned seed in the
        # experiment archives silently drifts
        a = generate_taskset(np.random.default_rng(77), 12, 3.0)
        b = generate_taskset(
            np.random.default_rng(77), 12, 3.0, dr_dist="implicit"
        )
        assert a == b
        assert a.is_implicit

    def test_deadline_axis_bounds_and_untouched_wcets(self, rng):
        ts = generate_taskset(
            rng, 40, 6.0, dr_dist="uniform", dr_min=0.3, dr_max=0.8
        )
        for t in ts:
            assert 0.3 * t.period - 1e-9 <= t.deadline <= 0.8 * t.period + 1e-9
        # the sweep isolates the deadline axis: utilizations still sum to
        # the target exactly as in the implicit draw
        assert ts.total_utilization == pytest.approx(6.0)

    def test_deadline_axis_same_body_as_implicit_draw(self):
        # same seed: wcets and periods identical, only deadlines differ
        implicit = generate_taskset(np.random.default_rng(5), 8, 2.0)
        constrained = generate_taskset(
            np.random.default_rng(5), 8, 2.0, dr_dist="uniform"
        )
        for a, b in zip(implicit, constrained):
            assert (a.wcet, a.period) == (b.wcet, b.period)
        assert not constrained.is_implicit

    def test_loguniform_deadline_axis(self, rng):
        ts = generate_taskset(
            rng, 30, 4.0, dr_dist="loguniform", dr_min=0.2, dr_max=1.0
        )
        assert all(t.deadline <= t.period + 1e-9 for t in ts)
        assert any(t.deadline < t.period for t in ts)

    def test_invalid_deadline_ratio_args(self, rng):
        with pytest.raises(ValueError):
            generate_taskset(rng, 5, 1.0, dr_dist="gaussian")  # type: ignore[arg-type]
        with pytest.raises(ValueError):
            generate_taskset(rng, 5, 1.0, dr_dist="uniform", dr_min=0.0)


class TestPartitionedFeasibleInstance:
    def test_witness_fits_capacities(self, rng):
        platform = geometric_platform(4, 6.0)
        inst = partitioned_feasible_instance(
            rng, platform, load=0.9, tasks_per_machine=4
        )
        loads = inst.witness_loads()
        for j, machine in enumerate(platform):
            assert loads[j] <= machine.speed * 0.9 * (1 + 1e-9)

    def test_task_count(self, rng):
        platform = geometric_platform(3, 2.0)
        inst = partitioned_feasible_instance(rng, platform, tasks_per_machine=5)
        assert len(inst.taskset) == 15
        assert len(inst.witness) == 15

    def test_shuffled_but_consistent(self, rng):
        platform = geometric_platform(2, 4.0)
        inst = partitioned_feasible_instance(
            rng, platform, load=1.0, tasks_per_machine=3
        )
        # per-machine witness load equals the generated target load * s_j
        loads = inst.witness_loads()
        for j, machine in enumerate(platform):
            assert loads[j] == pytest.approx(machine.speed, rel=1e-9)

    def test_invalid_args(self, rng):
        platform = geometric_platform(2, 2.0)
        with pytest.raises(ValueError):
            partitioned_feasible_instance(rng, platform, load=0.0)
        with pytest.raises(ValueError):
            partitioned_feasible_instance(rng, platform, load=1.2)
        with pytest.raises(ValueError):
            partitioned_feasible_instance(rng, platform, tasks_per_machine=0)

    def test_integer_periods(self, rng):
        platform = geometric_platform(2, 2.0)
        inst = partitioned_feasible_instance(
            rng, platform, integer_periods=True, p_min=4, p_max=16
        )
        assert all(t.period == round(t.period) for t in inst.taskset)


class TestConstrainedFeasibleInstance:
    def test_density_certificate_holds(self, rng):
        # per machine, total density sums to load * s_j — the generator's
        # no-redraw feasibility certificate
        platform = geometric_platform(3, 4.0)
        inst = constrained_feasible_instance(
            rng, platform, load=0.85, tasks_per_machine=4
        )
        densities = [0.0] * len(platform)
        for i, j in enumerate(inst.witness):
            t = inst.taskset[i]
            densities[j] += t.wcet / t.deadline
        for j, machine in enumerate(platform):
            assert densities[j] == pytest.approx(0.85 * machine.speed)

    def test_witness_machines_are_qpa_feasible_at_speed_one(self, rng):
        from repro.core.dbf import qpa_edf_feasible

        platform = geometric_platform(3, 4.0)
        inst = constrained_feasible_instance(rng, platform, load=1.0)
        for j, machine in enumerate(platform):
            tasks = [
                inst.taskset[i]
                for i, owner in enumerate(inst.witness)
                if owner == j
            ]
            assert qpa_edf_feasible(tasks, machine.speed)

    def test_deadlines_constrained_within_ratio_band(self, rng):
        platform = geometric_platform(2, 2.0)
        inst = constrained_feasible_instance(
            rng, platform, dr_min=0.4, dr_max=0.7, tasks_per_machine=6
        )
        for t in inst.taskset:
            assert 0.4 * t.period - 1e-9 <= t.deadline <= 0.7 * t.period + 1e-9

    def test_invalid_args(self, rng):
        platform = geometric_platform(2, 2.0)
        with pytest.raises(ValueError):
            constrained_feasible_instance(rng, platform, load=0.0)
        with pytest.raises(ValueError):
            constrained_feasible_instance(rng, platform, tasks_per_machine=0)
        with pytest.raises(ValueError):
            # the density certificate needs d <= p
            constrained_feasible_instance(rng, platform, dr_max=1.5)


class TestLPFeasibleInstance:
    def test_certified_feasible(self, rng):
        platform = geometric_platform(3, 4.0)
        ts = lp_feasible_instance(rng, platform, 8, stress=0.9)
        assert lp_feasible(ts, platform)
        assert ts.total_utilization == pytest.approx(0.9 * platform.total_speed)

    def test_invalid_stress(self, rng):
        platform = geometric_platform(2, 2.0)
        with pytest.raises(ValueError):
            lp_feasible_instance(rng, platform, 5, stress=1.5)


class TestCampaign:
    def test_grid_points(self):
        c = Campaign(name="t", grid={"a": [1, 2], "b": ["x"]}, replications=3)
        assert len(c.points()) == 2
        assert len(c) == 6

    def test_trials_deterministic(self):
        c = Campaign(name="t", grid={"a": [1, 2]}, replications=2)
        seeds1 = [t.seed for t in c]
        seeds2 = [t.seed for t in c]
        assert seeds1 == seeds2
        assert len(set(seeds1)) == len(seeds1)  # all distinct

    def test_trial_rng_reproducible(self):
        c = Campaign(name="t", grid={"a": [1]}, replications=1)
        trial = next(iter(c))
        assert trial.rng().random() == trial.rng().random()

    def test_invalid(self):
        with pytest.raises(ValueError):
            Campaign(name="t", grid={}, replications=1)
        with pytest.raises(ValueError):
            Campaign(name="t", grid={"a": [1]}, replications=0)

    def test_trial_seed_pinned(self):
        """Regression: trial seeds derive from a *stable* name digest.

        The values below were computed once and pinned; they must never
        change across interpreter launches, platforms, or PYTHONHASHSEED
        settings (the old ``hash(self.name)`` derivation broke all three).
        """
        c = Campaign(name="pinned", grid={"x": (0.5,)}, replications=2, base_seed=2016)
        assert [t.seed for t in c] == [3826787813, 1786818490]
        assert c._trial_seed(1, 3) == 3295661129

    def test_trial_seed_hash_seed_independent(self):
        """Seeds are identical under different PYTHONHASHSEED values."""
        import json
        import os
        import subprocess
        import sys

        code = (
            "import json, sys\n"
            "from repro.workloads.campaigns import Campaign\n"
            "c = Campaign(name='hs', grid={'x': (1, 2)}, replications=2)\n"
            "json.dump([t.seed for t in c], sys.stdout)\n"
        )
        seeds = []
        for hash_seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = os.pathsep.join(sys.path)
            out = subprocess.run(
                [sys.executable, "-c", code],
                env=env,
                capture_output=True,
                text=True,
                check=True,
            )
            seeds.append(json.loads(out.stdout))
        assert seeds[0] == seeds[1]

    def test_campaign_seed_normalization(self):
        assert campaign_seed(7) == 7
        assert campaign_seed(np.int64(7)) == 7
        g1, g2 = np.random.default_rng(3), np.random.default_rng(3)
        assert campaign_seed(g1) == campaign_seed(g2)  # deterministic draw
        with pytest.raises(TypeError):
            campaign_seed("not a seed")

    def test_utilization_grid(self):
        g = utilization_grid(0.1, 1.0, 10)
        assert len(g) == 10
        assert g[0] == pytest.approx(0.1)
        assert g[-1] == pytest.approx(1.0)
        with pytest.raises(ValueError):
            utilization_grid(0.5, 0.4)
        with pytest.raises(ValueError):
            utilization_grid(steps=1)
