"""Property suite for :mod:`repro.kernels` — the batch backends must be
**bit-identical** to the scalar reference path.

Equality is asserted on the serialized report dicts
(:func:`repro.io_.serialize.report_to_dict`), which cover the verdict,
alpha, theorem, the full partition (assignment, machine_tasks, loads,
order), and the rejection certificate — so any float drift anywhere in a
backend fails these tests, not just a flipped verdict.
"""

from __future__ import annotations

import asyncio
import math

import numpy as np
import pytest

from repro.core.bounds import liu_layland_bound
from repro.core.dbf import dbf_taskset
from repro.core.feasibility import feasibility_test
from repro.core.model import Machine, Platform, Task, TaskSet
from repro.core.partition import first_fit_partition
from repro.io_.serialize import report_from_dict, report_to_dict
from repro.kernels import (
    BACKENDS,
    dbf_demand_batch,
    first_fit_batch,
    kernel_cache_stats,
    reset_kernel_caches,
    resolve_backend,
    utilization_bounds_batch,
)
from repro.kernels import test_feasibility_batch as feasibility_batch
from repro.oracle.generators import PROFILES, draw_instance
from repro.workloads.builder import generate_taskset
from repro.workloads.platforms import geometric_platform

#: the name of the removed pure-Python backend, which must now be rejected
REMOVED_BACKEND = 'kernel'
CONFIGS = (("edf", "partitioned"), ("rms", "partitioned"),
           ("edf", "any"), ("rms", "any"))


def _scalar_reports(instances, scheduler, adversary, alpha=None):
    return [
        report_to_dict(
            feasibility_test(ts, pf, scheduler, adversary, alpha=alpha)
        )
        for ts, pf in instances
    ]


def _batch_reports(instances, scheduler, adversary, backend, alpha=None):
    return [
        report_to_dict(r)
        for r in feasibility_batch(
            instances, scheduler, adversary, alpha=alpha, backend=backend
        )
    ]


def _corpus(seed, size, n_range=(3, 17), mixed_platforms=False):
    """Uniform stress-swept instances; optionally mixed shapes/speeds."""
    rng = np.random.default_rng(seed)
    out = []
    for k in range(size):
        m = 2 + k % 3 if mixed_platforms else 4
        ratio = (2.0, 4.0, 8.0)[k % 3] if mixed_platforms else 8.0
        platform = geometric_platform(m, ratio)
        n = n_range[0] + k % (n_range[1] - n_range[0])
        stress = 0.6 + 0.5 * (k % 7) / 6  # spans accept and reject
        out.append(
            (
                generate_taskset(
                    rng,
                    n,
                    stress * platform.total_speed,
                    u_max=platform.fastest_speed,
                ),
                platform,
            )
        )
    return out


class TestBatchEquivalence:
    """test_feasibility_batch ≡ the scalar loop, bit-for-bit."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("batch_size", [1, 7, 256])
    def test_batch_sizes(self, backend, batch_size):
        instances = _corpus(batch_size, batch_size)
        for scheduler, adversary in (("edf", "partitioned"), ("rms", "partitioned")):
            want = _scalar_reports(instances, scheduler, adversary)
            got = _batch_reports(instances, scheduler, adversary, backend)
            assert got == want

    @pytest.mark.parametrize("backend", ["numpy"])
    @pytest.mark.parametrize("profile", sorted(PROFILES))
    def test_generator_profiles(self, backend, profile):
        rng = np.random.default_rng(hash(profile) % 2**32)
        implicit, constrained = [], []
        for _ in range(40):
            ts, pf = draw_instance(rng, profile)
            (implicit if ts.is_implicit else constrained).append((ts, pf))
        assert implicit or constrained
        for scheduler, adversary in CONFIGS:
            want = _scalar_reports(implicit, scheduler, adversary)
            got = _batch_reports(implicit, scheduler, adversary, backend)
            assert got == want
        # constrained draws (the deadline-axis profiles) route through
        # the dbf admission kernel instead of the theorem tests
        if constrained:
            want = [
                first_fit_partition(ts, pf, "edf-dbf", alpha=1.0)
                for ts, pf in constrained
            ]
            assert (
                first_fit_batch(constrained, "edf-dbf", backend=backend)
                == want
            )

    @pytest.mark.parametrize("backend", ["numpy"])
    def test_mixed_shapes_and_platforms_shard_correctly(self, backend):
        instances = _corpus(99, 64, mixed_platforms=True)
        want = _scalar_reports(instances, "rms", "partitioned")
        got = _batch_reports(instances, "rms", "partitioned", backend)
        assert got == want

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_alpha_override(self, backend):
        instances = _corpus(5, 16)
        for alpha in (1.0, 1.7, 2.0):
            want = _scalar_reports(instances, "edf", "partitioned", alpha=alpha)
            got = _batch_reports(
                instances, "edf", "partitioned", backend, alpha=alpha
            )
            assert got == want

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_empty_batch(self, backend):
        assert feasibility_batch([], "edf", backend=backend) == []
        assert first_fit_batch([], "edf", backend=backend) == []

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_single_task_instances(self, backend):
        pf = geometric_platform(3, 4.0)
        instances = [
            (TaskSet([Task(wcet=w, period=10.0)]), pf)
            for w in (0.5, 9.0, 39.9, 40.0, 41.0)  # fits fastest .. hopeless
        ]
        for scheduler in ("edf", "rms"):
            want = _scalar_reports(instances, scheduler, "partitioned")
            got = _batch_reports(instances, scheduler, "partitioned", backend)
            assert got == want

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_empty_taskset_takes_scalar_path(self, backend):
        pf = geometric_platform(2, 2.0)
        want = _scalar_reports([(TaskSet([]), pf)], "edf", "partitioned")
        got = _batch_reports([(TaskSet([]), pf)], "edf", "partitioned", backend)
        assert got == want

    @pytest.mark.parametrize("backend", ["numpy"])
    def test_certificates_identical_on_rejection(self, backend):
        # Overloaded instances: every theorem must reject with the same
        # certificate bytes as the scalar path.
        rng = np.random.default_rng(13)
        pf = geometric_platform(3, 4.0)
        instances = [
            (generate_taskset(rng, 12, 2.6 * pf.total_speed), pf)
            for _ in range(20)
        ]
        saw_certificate = False
        for scheduler, adversary in CONFIGS:
            want = _scalar_reports(instances, scheduler, adversary)
            saw_certificate |= any(
                r["certificate"] is not None for r in want
            )
            got = _batch_reports(instances, scheduler, adversary, backend)
            assert got == want
        assert saw_certificate, "corpus never exercised the rejection path"

    def test_unknown_theorem_combination_raises(self):
        pf = geometric_platform(2, 2.0)
        ts = TaskSet([Task(wcet=1.0, period=10.0)])
        with pytest.raises(ValueError, match="unknown combination"):
            feasibility_batch([(ts, pf)], "edf", "nope")

    @pytest.mark.parametrize("backend", ["numpy"])
    def test_constrained_deadlines_rejected_like_scalar(self, backend):
        pf = geometric_platform(2, 2.0)
        ts = TaskSet([Task(wcet=1.0, period=10.0, deadline=5.0)])
        with pytest.raises(ValueError, match="implicit deadlines"):
            feasibility_test(ts, pf, "edf", "partitioned")
        with pytest.raises(ValueError, match="implicit deadlines"):
            feasibility_batch([(ts, pf)], "edf", backend=backend)

    @pytest.mark.parametrize("backend", ["numpy"])
    def test_constrained_rejection_is_up_front_and_text_identical(self, backend):
        # the constrained instance sits *last*: the batch must still fail
        # before producing any result (up-front validation, not a
        # mid-shard crash), and with the scalar path's exact message
        pf = geometric_platform(2, 2.0)
        good = TaskSet([Task(wcet=1.0, period=10.0)])
        bad = TaskSet([Task(wcet=1.0, period=10.0, deadline=5.0)])
        try:
            feasibility_test(bad, pf, "edf", "partitioned")
        except ValueError as exc:
            want = str(exc)
        else:
            pytest.fail("scalar path accepted a constrained instance")
        with pytest.raises(ValueError) as exc_info:
            feasibility_batch([(good, pf), (bad, pf)], "edf", backend=backend)
        assert str(exc_info.value) == want


class TestFirstFitBatch:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("test", ["edf", "rms-ll"])
    def test_matches_scalar_partitioner(self, backend, test):
        instances = _corpus(7, 48, mixed_platforms=True)
        for alpha in (1.0, 1.3):
            want = [
                first_fit_partition(ts, pf, test, alpha=alpha)
                for ts, pf in instances
            ]
            got = first_fit_batch(
                instances, test, alpha=alpha, backend=backend
            )
            assert got == want

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_edf_dbf_matches_scalar_on_constrained_corpus(self, backend):
        # the deadline-ratio axis end to end: constrained instances on
        # mixed platforms, partitioned by exact QPA admission
        rng = np.random.default_rng(23)
        instances = []
        for k in range(32):
            platform = geometric_platform(2 + k % 3, (2.0, 4.0, 8.0)[k % 3])
            instances.append(
                (
                    generate_taskset(
                        rng,
                        4 + k % 10,
                        (0.4 + 0.5 * (k % 7) / 6) * platform.total_speed,
                        u_max=platform.fastest_speed,
                        dr_dist="uniform",
                        dr_min=0.4,
                        dr_max=1.0,
                    ),
                    platform,
                )
            )
        assert any(not ts.is_implicit for ts, _ in instances)
        for alpha in (1.0, 1.3):
            want = [
                first_fit_partition(ts, pf, "edf-dbf", alpha=alpha)
                for ts, pf in instances
            ]
            got = first_fit_batch(
                instances, "edf-dbf", alpha=alpha, backend=backend
            )
            assert got == want
            # sharding must not leak state between instances: each
            # singleton re-run reproduces its batch row exactly
            for (ts, pf), batch_row in zip(instances[:6], want):
                single = first_fit_batch(
                    [(ts, pf)], "edf-dbf", alpha=alpha, backend=backend
                )
                assert single == [batch_row]

    def test_unsupported_admission_test_raises(self):
        pf = geometric_platform(2, 2.0)
        ts = TaskSet([Task(wcet=1.0, period=10.0)])
        with pytest.raises(ValueError, match="'rms-rta'"):
            first_fit_batch([(ts, pf)], "rms-rta")

    def test_nonpositive_alpha_raises(self):
        with pytest.raises(ValueError, match="alpha"):
            first_fit_batch([], "edf", alpha=0.0)


class TestPrimitives:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_utilization_bounds(self, backend):
        tasksets = [ts for ts, _ in _corpus(3, 17)]
        want = [
            (ts.total_utilization, liu_layland_bound(len(ts)))
            for ts in tasksets
        ]
        assert utilization_bounds_batch(tasksets, backend=backend) == want

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_dbf_demand(self, backend):
        tasksets = [ts for ts, _ in _corpus(4, 9)]
        times = [0.0, 1.0, 5.5, 12.0, 100.0]
        want = [
            [dbf_taskset(ts.tasks, t) for t in times] for ts in tasksets
        ]
        assert dbf_demand_batch(tasksets, times, backend=backend) == want


class TestBackendResolution:
    def test_explicit_names(self):
        assert BACKENDS == ("scalar", "numpy")
        assert resolve_backend("scalar") == "scalar"
        assert resolve_backend("numpy") == "numpy"
        assert resolve_backend(None) == "numpy"

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown backend"):
            resolve_backend("cuda")

    def test_deleted_kernel_backend_is_unknown(self):
        with pytest.raises(ValueError, match="known: scalar, numpy$"):
            resolve_backend(REMOVED_BACKEND)


class TestCaches:
    def test_stats_count_hits_and_misses(self):
        reset_kernel_caches()
        instances = _corpus(21, 8)
        feasibility_batch(instances, "edf", backend="numpy")
        first = kernel_cache_stats()
        assert first.misses > 0
        feasibility_batch(instances, "edf", backend="numpy")
        second = kernel_cache_stats()
        assert second.hits > first.hits
        assert second.misses == first.misses
        reset_kernel_caches()
        cleared = kernel_cache_stats()
        assert (cleared.hits, cleared.misses, cleared.size) == (0, 0, 0)

    @pytest.mark.parametrize("backend", ["numpy"])
    def test_reset_does_not_change_results(self, backend):
        instances = _corpus(22, 12)
        before = _batch_reports(instances, "rms", "partitioned", backend)
        reset_kernel_caches()
        after = _batch_reports(instances, "rms", "partitioned", backend)
        assert after == before


class TestCrossoverThresholds:
    """The numpy backend's admission thresholds replay scalar ``leq``."""

    def test_crossover_is_the_exact_admission_boundary(self):
        from repro.kernels.lockstep import _crossover

        from repro.core.model import leq

        for cap in (0.1, 0.5, 1.0, 1.5, 2.0, 8.0, 0.6931471805599453):
            sm = cap if cap > 1.0 else 1.0
            t_star = _crossover(cap, sm)
            assert leq(t_star, cap)
            assert not leq(math.nextafter(t_star, math.inf), cap)


class TestSerializeBackendKey:
    def test_key_omitted_by_default(self):
        pf = geometric_platform(2, 2.0)
        ts = TaskSet([Task(wcet=1.0, period=10.0)])
        report = feasibility_test(ts, pf, "edf", "partitioned")
        assert "backend" not in report_to_dict(report)

    def test_key_recorded_and_ignored_on_reload(self):
        pf = geometric_platform(2, 2.0)
        ts = TaskSet([Task(wcet=1.0, period=10.0)])
        report = feasibility_test(ts, pf, "edf", "partitioned")
        stamped = report_to_dict(report, backend="numpy")
        assert stamped["backend"] == "numpy"
        rebuilt = report_from_dict(stamped)
        assert report_to_dict(rebuilt) == report_to_dict(report)


class TestRunnerBatchFn:
    @staticmethod
    def _square(x):
        return x * x

    @staticmethod
    def _square_batch(items):
        return [x * x for x in items]

    @staticmethod
    def _bad_length_batch(items):
        return [x * x for x in items][:-1]

    @staticmethod
    def _raising_batch(items):
        raise RuntimeError("kernel exploded")

    def test_serial_batch_matches_per_trial(self):
        from repro.runner import run_trials

        items = list(range(23))
        want = run_trials(self._square, items).records
        got = run_trials(
            self._square, items, batch_fn=self._square_batch
        ).records
        assert got == want

    def test_pool_batch_matches_per_trial(self):
        from repro.runner import run_trials

        items = list(range(37))
        want = run_trials(self._square, items).records
        got = run_trials(
            self._square,
            items,
            jobs=2,
            chunk_size=5,
            batch_fn=self._square_batch,
        ).records
        assert got == want

    def test_length_mismatch_is_a_trial_error(self):
        from repro.runner import TrialError, run_trials

        with pytest.raises(TrialError, match="records for"):
            run_trials(
                self._square, [1, 2, 3], batch_fn=self._bad_length_batch
            )

    def test_batch_failure_reports_lowest_index(self):
        from repro.runner import TrialError, run_trials

        with pytest.raises(TrialError, match="trial 0"):
            run_trials(
                self._square, [1, 2, 3], batch_fn=self._raising_batch
            )
        with pytest.raises(TrialError, match="trial 0"):
            run_trials(
                self._square,
                list(range(12)),
                jobs=2,
                chunk_size=4,
                batch_fn=self._raising_batch,
            )


class TestAcceptanceSweepBackend:
    def test_backend_curves_bit_identical(self):
        from repro.analysis.acceptance import (
            acceptance_sweep,
            ff_tester,
            lp_tester,
        )

        pf = geometric_platform(4, 8.0)
        testers = {
            "edf": ff_tester("edf", 1.0),
            "rms": ff_tester("rms-ll", 1.0),
            "lp": lp_tester(),  # not kernel-backed: scalar fallback
        }
        kw = dict(
            n_tasks=8,
            normalized_utilizations=(0.7, 0.9),
            samples=12,
            name="kernels-test",
        )
        want = acceptance_sweep(42, pf, testers, **kw)
        for backend in BACKENDS:
            got = acceptance_sweep(42, pf, testers, backend=backend, **kw)
            assert got == want


class TestOracleBackendEquivalence:
    def test_clean_on_random_instances(self):
        from repro.oracle.invariants import OracleConfig, check_instance

        cfg = OracleConfig(checks=("backend-equivalence",))
        rng = np.random.default_rng(77)
        pf = geometric_platform(3, 4.0)
        for k in range(10):
            ts = generate_taskset(
                rng, 4 + k, (0.7 + 0.03 * k) * pf.total_speed
            )
            assert check_instance(ts, pf, cfg) == []
        # constrained deadlines: clean (both paths raise alike)
        constrained = TaskSet([Task(wcet=1.0, period=10.0, deadline=4.0)])
        assert check_instance(constrained, pf, cfg) == []

    def test_registered_in_lattice(self):
        from repro.oracle.invariants import CHECKS

        assert "backend-equivalence" in CHECKS


class TestServiceBackendRouting:
    def _payloads(self, count=4):
        from repro.io_.serialize import platform_to_dict, taskset_to_dict

        rng = np.random.default_rng(5)
        pf = geometric_platform(3, 4.0)
        out = []
        for k in range(count):
            ts = generate_taskset(
                rng, 6, 0.8 * pf.total_speed, u_max=pf.fastest_speed
            )
            out.append(
                {
                    "taskset": taskset_to_dict(ts),
                    "platform": platform_to_dict(pf),
                    "scheduler": "rms" if k % 2 else "edf",
                    "adversary": "partitioned",
                }
            )
        return out

    def test_legacy_default_has_no_backend_key(self):
        from repro.service.frontend import ShardedFrontend

        service = ShardedFrontend(workers=0)
        response = asyncio.run(service.handle_test(self._payloads(1)[0]))
        assert "backend" not in response["report"]
        assert service.handle_healthz()["backend"] == "scalar"

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_backend_stamped_and_counted(self, backend):
        from repro.service.frontend import ShardedFrontend

        payloads = self._payloads()
        service = ShardedFrontend(workers=0, backend=backend)
        single = asyncio.run(service.handle_test(payloads[0]))
        assert single["report"]["backend"] == backend
        batch = asyncio.run(service.handle_batch({"instances": payloads}))
        assert [r["report"]["backend"] for r in batch["results"]] == (
            [backend] * len(payloads)
        )
        # 1 /v1/test miss + the batch misses (payloads[0] already cached),
        # all counted by the one in-process shard
        (shard,) = asyncio.run(service.metrics_json())["shards"]
        assert shard["stats"]["backend_tests"] == {backend: len(payloads)}
        prom = asyncio.run(service.metrics_prometheus())
        assert (
            f'repro_shard_backend_tests_total{{shard="0",backend="{backend}"}} '
            f"{len(payloads)}" in prom
        )
        assert service.handle_healthz()["backend"] == backend

    @pytest.mark.parametrize("backend", ["numpy"])
    def test_backend_reports_equal_legacy_apart_from_key(self, backend):
        from repro.service.frontend import ShardedFrontend

        payloads = self._payloads()
        legacy = ShardedFrontend(workers=0)
        routed = ShardedFrontend(workers=0, backend=backend)
        for payload in payloads:
            want = asyncio.run(legacy.handle_test(payload))
            got = asyncio.run(routed.handle_test(payload))
            report = dict(got["report"])
            assert report.pop("backend") == backend
            assert report == want["report"]
            assert got["digest"] == want["digest"]


class TestCLIBackend:
    def test_test_command_stamps_backend(self, tmp_path, capsys):
        import json

        from repro.cli import main
        from repro.io_.serialize import platform_to_dict, taskset_to_dict

        rng = np.random.default_rng(9)
        pf = geometric_platform(3, 4.0)
        ts = generate_taskset(rng, 6, 0.7 * pf.total_speed)
        instance = tmp_path / "inst.json"
        instance.write_text(
            json.dumps(
                {
                    "taskset": taskset_to_dict(ts),
                    "platform": platform_to_dict(pf),
                }
            )
        )
        rc0 = main(["test", str(instance), "--json"])
        plain = json.loads(capsys.readouterr().out)
        backend = "numpy"
        rc1 = main(["test", str(instance), "--json", "--backend", backend])
        stamped = json.loads(capsys.readouterr().out)
        assert rc1 == rc0
        assert stamped.pop("backend") == backend
        assert "backend" not in plain
        assert stamped == plain

    @pytest.mark.parametrize(
        "argv",
        [
            ["test", "inst.json", "--backend", REMOVED_BACKEND],
            ["experiment", "e02", "--backend", REMOVED_BACKEND],
            ["serve", "--backend", REMOVED_BACKEND],
        ],
        ids=["test", "experiment", "serve"],
    )
    def test_deleted_kernel_backend_is_rejected(self, argv, capsys):
        from repro.cli import build_parser

        with pytest.raises(SystemExit) as exc_info:
            build_parser().parse_args(argv)
        assert exc_info.value.code == 2
        assert f"invalid choice: {REMOVED_BACKEND!r}" in capsys.readouterr().err
