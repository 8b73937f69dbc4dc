"""Property suite for :mod:`repro.kernels` — the batch backends must be
**bit-identical** to the scalar reference path.

Equality is asserted on the serialized report dicts
(:func:`repro.io_.serialize.report_to_dict`), which cover the verdict,
alpha, theorem, the full partition (assignment, machine_tasks, loads,
order), and the rejection certificate — so any float drift anywhere in a
backend fails these tests, not just a flipped verdict.
"""

from __future__ import annotations

import math
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.feasibility import feasibility_test
from repro.core.model import Platform, Task, TaskSet
from repro.core.partition import first_fit_partition
from repro.io_.serialize import report_from_dict, report_to_dict
from repro.kernels import (
    BACKENDS,
    buffers,
    first_fit_batch,
    kernel_cache_stats,
    reset_kernel_caches,
    resolve_backend,
)
from repro.kernels import batch as batch_mod
from repro.kernels import lockstep as lockstep_mod
from repro.kernels import test_feasibility_batch as feasibility_batch
from repro.oracle.generators import PROFILES, draw_instance
from repro.service.loop import run
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
    # `constrained` draws no implicit set; the batch's refusal of its
    # draws is pinned by test_constrained_rejection_is_up_front_and_text_identical
    @pytest.mark.parametrize("profile", sorted(set(PROFILES) - {"constrained"}))
    def test_generator_profiles(self, backend, profile):
        # str hashes are salted per process: a digest draws the same
        # corpus on every run
        rng = np.random.default_rng(zlib.crc32(profile.encode()))
        implicit = []
        for _ in range(40):
            ts, pf = draw_instance(rng, profile)
            if ts.is_implicit:
                implicit.append((ts, pf))
        assert implicit, f"profile {profile!r} drew no implicit instance"
        for scheduler, adversary in CONFIGS:
            want = _scalar_reports(implicit, scheduler, adversary)
            got = _batch_reports(implicit, scheduler, adversary, backend)
            assert got == want

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


class TestLockstepSizeRule:
    """Narrow shards take the flat loop; the lockstep stays bit-identical
    below the rule, and the implicit-deadline gate holds on both sides."""

    @staticmethod
    def _uniform(seed, width, n, m):
        rng = np.random.default_rng(seed)
        pf = geometric_platform(m, 4.0)
        return [
            (generate_taskset(rng, n, 0.85 * pf.total_speed, u_max=pf.fastest_speed), pf)
            for _ in range(width)
        ]

    @pytest.mark.parametrize(
        "width, n, m, lockstep",
        [
            (1, 32, 32, False),
            (1, 64, 32, False),
            (1, 128, 64, False),  # a serve-miss request
            (2, 16, 16, False),
            (2, 32, 16, False),
            (4, 8, 8, False),
            (4, 16, 8, False),
            (8, 8, 8, False),
            (16, 128, 64, False),  # the measured near-tie goes to the flat loop
            (32, 8, 8, True),
            (64, 128, 64, True),
            (256, 16, 4, True),  # the E18/E19 corpus
            (3, 0, 4, False),
        ],
    )
    def test_rule_follows_the_measured_grid(self, width, n, m, lockstep):
        assert batch_mod.takes_lockstep(width, n, m) is lockstep

    @pytest.mark.parametrize("width, n, m", [(1, 3, 4), (1, 32, 32), (2, 16, 16), (4, 8, 8)])
    def test_forced_lockstep_matches_scalar_below_the_rule(self, width, n, m):
        instances = self._uniform(width * 1000 + n, width, n, m)
        assert not batch_mod.takes_lockstep(width, n, m)
        for scheduler, adversary in CONFIGS:
            for alpha in (None, 1.0):
                want = _scalar_reports(instances, scheduler, adversary, alpha)
                got = batch_mod._lockstep_feasibility_batch(
                    instances, scheduler, adversary, alpha
                )
                assert [report_to_dict(r) for r in got] == want

    @staticmethod
    def _spy(monkeypatch):
        calls = {"lockstep": 0, "flat": 0, "scalar": 0}
        real_shard = lockstep_mod.evaluate_shard
        real_flat = batch_mod.solve_shard_flat
        real_report = batch_mod._first_fit_report

        def shard(entries, *args):
            calls["lockstep"] += len(entries)
            return real_shard(entries, *args)

        def flat(entries, *args):
            calls["flat"] += len(entries)
            return real_flat(entries, *args)

        def report(*args):
            calls["scalar"] += 1
            return real_report(*args)

        monkeypatch.setattr(lockstep_mod, "evaluate_shard", shard)
        monkeypatch.setattr(batch_mod, "solve_shard_flat", flat)
        monkeypatch.setattr(batch_mod, "_first_fit_report", report)
        return calls

    @pytest.mark.parametrize(
        "width, n, m, path",
        [(1, 32, 32, "flat"), (2, 16, 16, "flat"), (2, 32, 32, "flat"),
         (1, 128, 64, "flat"), (32, 16, 4, "lockstep")],
    )
    def test_numpy_backend_dispatches_by_size(self, monkeypatch, width, n, m, path):
        instances = self._uniform(7, width, n, m)
        calls = self._spy(monkeypatch)
        got = _batch_reports(instances, "rms", "partitioned", "numpy")
        assert got == _scalar_reports(instances, "rms", "partitioned")
        assert calls[path] == width and sum(calls.values()) == width

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("n, m", [(4, 2), (32, 32), (128, 64)])
    def test_constrained_rejected_before_any_evaluation(self, monkeypatch, backend, n, m):
        # a small and a large shape: the constrained set sits last, in a
        # shard on either side of the rule, behind implicit sets that
        # would have been evaluated first
        good = self._uniform(3, 2, n, m)
        pf = good[0][1]
        bad = TaskSet([Task(wcet=1.0, period=10.0, deadline=5.0)] * n)
        with pytest.raises(ValueError) as scalar_exc:
            feasibility_test(bad, pf, "edf", "partitioned")
        calls = self._spy(monkeypatch)
        for batch in (good + [(bad, pf)], good + self._uniform(4, 1, 3, 2) + [(bad, pf)]):
            with pytest.raises(ValueError) as exc:
                feasibility_batch(batch, "edf", backend=backend)
            assert str(exc.value) == str(scalar_exc.value)
            with pytest.raises(ValueError) as exc:
                batch_mod._lockstep_feasibility_batch(batch, "edf", "partitioned")
            assert str(exc.value) == str(scalar_exc.value)
        assert calls == {"lockstep": 0, "flat": 0, "scalar": 0}

    def test_each_task_set_is_walked_once(self, monkeypatch):
        walks = []
        real = TaskSet.is_implicit

        def counted(self):
            walks.append(self)
            return real.fget(self)

        monkeypatch.setattr(TaskSet, "is_implicit", property(counted))
        reset_kernel_caches()
        small = self._uniform(5, 3, 8, 4)
        wide = self._uniform(6, 32, 8, 4)
        walks.clear()
        feasibility_batch(small, "edf", backend="scalar")
        assert len(walks) == len(small)  # the gate, then no second walk
        walks.clear()
        # the numpy backend reads the flag from the buffer entries, built
        # once with the utilizations, on either arm
        for batch in (small, wide):
            feasibility_batch(batch, "edf", backend="numpy")
            misses = kernel_cache_stats().misses
            feasibility_batch(batch, "edf", backend="numpy")
            assert walks == [] and kernel_cache_stats().misses == misses
            assert all(buffers.taskset_entry(ts).implicit for ts, _ in batch)


def _flat_partitions(instances, test, alpha):
    """``first_fit_batch`` with every shard on the flat loop."""
    return batch_mod._evaluate_sharded(
        list(instances), test, alpha, None, batch_mod._never
    )


def _boundary_u(prior, speed, test):
    """The largest utilization the scalar ``test`` state admits on a
    machine of effective ``speed`` already holding ``prior``: one ulp
    more and ``leq`` rejects it."""
    from repro.core.bounds import admission_test

    state = admission_test(test).open(speed)
    for u in prior:
        state.add(Task(wcet=u, period=1.0))
    pack, unpack = struct.pack, struct.unpack
    lo, hi = 0, unpack("<q", pack("<d", 4.0 * speed + 1.0))[0]
    while hi - lo > 1:
        mid = (lo + hi) >> 1
        u = unpack("<d", pack("<q", mid))[0]
        if state.admits(Task(wcet=u, period=1.0)):
            lo = mid
        else:
            hi = mid
    return unpack("<d", pack("<q", lo))[0]


def _ulps(x, k):
    for _ in range(abs(k)):
        x = math.nextafter(x, math.inf if k > 0 else -math.inf)
    return x


#: log-uniform utilizations over 1e-9 .. 1e3 and speeds over a 1e6 ratio
_UTILS = st.floats(min_value=-9.0, max_value=3.0).map(lambda e: 10.0**e)
_SPEEDS = st.floats(min_value=-3.0, max_value=3.0).map(lambda e: 10.0**e)


class TestFlatLoop:
    """The flat loop, headroom skip included, against the scalar
    partitioner: random instances over extreme magnitudes, machines
    filled to within one ulp of ``leq``'s crossover, and ties."""

    @settings(max_examples=300, deadline=None)
    @given(
        utils=st.lists(
            st.one_of(_UTILS, st.sampled_from([0.25, 0.5, 1.0])), max_size=12
        ),
        speeds=st.lists(_SPEEDS, min_size=1, max_size=5),
        alpha=st.floats(min_value=1e-3, max_value=1e3),
        test=st.sampled_from(["edf", "rms-ll"]),
    )
    def test_matches_first_fit_partition(self, utils, speeds, alpha, test):
        pf = Platform.from_speeds(speeds)
        ts = TaskSet([Task(wcet=u, period=1.0) for u in utils])
        want = first_fit_partition(ts, pf, test, alpha=alpha)
        assert _flat_partitions([(ts, pf)], test, alpha) == [want]
        scheduler = "edf" if test == "edf" else "rms"
        report = batch_mod._flat_feasibility_batch(
            [(ts, pf)], scheduler, "partitioned", alpha
        )[0]
        assert report_to_dict(report) == report_to_dict(
            feasibility_test(ts, pf, scheduler, alpha=alpha)
        )

    @pytest.mark.parametrize("test", ["edf", "rms-ll"])
    @pytest.mark.parametrize("speed", [1e-6, 0.37, 1.0, 2.5, 1e3])
    @pytest.mark.parametrize("alpha", [1.0, 1 + math.sqrt(2)])
    def test_machine_filled_within_one_ulp_of_the_crossover(self, test, speed, alpha):
        cap = speed * alpha
        # the fill leaves a last task no larger than the ones before it
        fill = {"edf": (0.4, 0.3, 0.2), "rms-ll": (0.3, 0.2, 0.15)}[test]
        prior = [f * cap for f in fill]
        u_star = _boundary_u(prior, cap, test)
        assert u_star <= prior[-1]  # still placed last
        # a second, faster machine takes the task the first one refuses
        pf = Platform.from_speeds([speed, 4.0 * speed])
        instances = [
            (TaskSet([Task(wcet=u, period=1.0) for u in prior + [_ulps(u_star, k)]]), pf)
            for k in range(-2, 3)
        ]
        want = [first_fit_partition(ts, pf, test, alpha=alpha) for ts, _ in instances]
        # the construction straddles the boundary: ulp 0 fits machine 0,
        # ulp +1 spills to machine 1
        assert [r.assignment[-1] for r in want] == [0, 0, 0, 1, 1]
        assert _flat_partitions(instances, test, alpha) == want

    def test_zero_slack_headroom_is_caught(self, monkeypatch):
        """The boundary cases above fail a skip without its slack."""
        from repro.kernels import flat

        monkeypatch.setattr(flat, "_SLACK", 0.0)
        cap = 1.0
        prior = [0.4, 0.3, 0.2]
        u_star = _boundary_u(prior, cap, "edf")
        pf = Platform.from_speeds([cap, 4.0])
        ts = TaskSet([Task(wcet=u, period=1.0) for u in prior + [u_star]])
        want = first_fit_partition(ts, pf, "edf", alpha=1.0)
        assert _flat_partitions([(ts, pf)], "edf", 1.0) != [want]

    @pytest.mark.parametrize("test", ["edf", "rms-ll"])
    def test_extreme_magnitudes_and_ties(self, test):
        rng = np.random.default_rng(31)
        instances = []
        for k in range(40):
            speeds = 10.0 ** rng.uniform(-3.0, 3.0, size=1 + k % 4)
            n = 1 + k % 9
            if k % 3 == 0:
                utils = [float(10.0 ** rng.uniform(-9.0, 3.0))] * n  # ties
            else:
                utils = list(10.0 ** rng.uniform(-9.0, 3.0, size=n))
            instances.append(
                (
                    TaskSet([Task(wcet=float(u), period=1.0) for u in utils]),
                    Platform.from_speeds(float(s) for s in speeds),
                )
            )
        for alpha in (1.0, 2.0, 3.34):
            want = [first_fit_partition(ts, pf, test, alpha=alpha) for ts, pf in instances]
            assert _flat_partitions(instances, test, alpha) == want
            assert {r.success for r in want} == {True, False}

    def test_planted_zero_slack_fault_is_reported(self, monkeypatch, tmp_path, capsys):
        """A headroom skip that drops ``leq``'s tolerance is reported by
        the fuzzer's ``backend-equivalence`` check."""
        from repro.cli import main
        from repro.kernels import flat

        monkeypatch.setattr(flat, "_SLACK", 0.0)
        rc = main(
            [
                "fuzz", "--seed", "1", "--budget", "40",
                "--profile", "boundary-edf", "--profile", "boundary-rms-ll",
                "--check", "backend-equivalence",
                "--out-dir", str(tmp_path / "ce"),
            ]
        )
        out = capsys.readouterr().out
        assert rc == 1
        assert "report != scalar" in out  # the flat loop's verdicts
        assert "lockstep" not in out


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

    def test_unsupported_admission_test_raises(self):
        pf = geometric_platform(2, 2.0)
        ts = TaskSet([Task(wcet=1.0, period=10.0)])
        # exact QPA admission has no kernel: it is the scalar partitioner's
        for test in ("rms-rta", "edf-dbf"):
            with pytest.raises(ValueError, match=f"not '{test}'"):
                first_fit_batch([(ts, pf)], test)

    def test_nonpositive_alpha_raises(self):
        with pytest.raises(ValueError, match="alpha"):
            first_fit_batch([], "edf", alpha=0.0)


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


def _wide_corpus(seed, shapes=2):
    """Mixed-shape instances, every shard just wide enough for the lockstep."""
    width = batch_mod.LOCKSTEP_MIN_WIDTH
    return _corpus(seed, shapes * width, n_range=(8, 8 + shapes))


class TestCaches:
    """Both arms of the numpy backend read and fill the same buffer
    caches, so each counter is pinned on narrow shards (the flat loop)
    and on shards wide enough for the lockstep."""

    @staticmethod
    def _corpora(seed, size):
        return {"flat": _corpus(seed, size), "lockstep": _wide_corpus(seed)}

    def test_stats_count_hits_and_misses(self):
        for arm, instances in self._corpora(21, 8).items():
            reset_kernel_caches()
            feasibility_batch(instances, "edf", backend="numpy")
            assert bool(lockstep_mod._SHARD_CACHE) == (arm == "lockstep")
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
        for instances in self._corpora(22, 12).values():
            before = _batch_reports(instances, "rms", "partitioned", backend)
            reset_kernel_caches()
            after = _batch_reports(instances, "rms", "partitioned", backend)
            assert after == before

    def test_dropped_tasksets_leave_no_entries(self):
        corpora = self._corpora(23, 50)
        for arm in list(corpora):
            reset_kernel_caches()
            instances = corpora.pop(arm)
            feasibility_batch(instances, "edf", backend="numpy")
            platforms = len(buffers._PF_CACHE)
            assert platforms
            assert kernel_cache_stats().size == len(instances) + platforms
            del instances
            assert kernel_cache_stats().size == platforms

    def test_live_tasksets_hit_across_testers(self):
        # one instance list under two first-fit testers, as an
        # acceptance-sweep chunk evaluates it
        for instances in self._corpora(24, 30).values():
            reset_kernel_caches()
            first_fit_batch(instances, "edf", alpha=1.0, backend="numpy")
            first_fit_batch(instances, "rms-ll", alpha=1.5, backend="numpy")
            stats = kernel_cache_stats()
            assert stats.misses - len(buffers._PF_CACHE) == len(instances)
            assert stats.hits >= len(instances)

    def test_id_reuse_after_drop_matches_scalar(self):
        reset_kernel_caches()
        pf = geometric_platform(4, 8.0)
        rng = np.random.default_rng(25)
        for k in range(40):
            ts = generate_taskset(
                rng, 3 + k % 9, (0.6 + 0.01 * k) * pf.total_speed,
                u_max=pf.fastest_speed,
            )
            got = _batch_reports([(ts, pf)], "edf", "partitioned", "numpy")
            assert got == _scalar_reports([(ts, pf)], "edf", "partitioned")
            del ts  # frees the id for the next, value-different task set
        assert kernel_cache_stats().size == len(buffers._PF_CACHE)

    def test_stale_callback_spares_successor_entry(self):
        reset_kernel_caches()
        ts = _corpus(26, 1)[0][0]
        stale = buffers.taskset_entry(ts)
        reset_kernel_caches()
        live = buffers.taskset_entry(ts)
        assert live is not stale
        stale.ref.__callback__(stale.ref)  # an old entry's late callback
        assert buffers.taskset_entry(ts) is live
        del ts
        assert not buffers._TS_CACHE


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
            "qpa": ff_tester("edf-dbf", 1.0),  # so is FF-QPA
        }
        kw = dict(
            n_tasks=8,
            normalized_utilizations=(0.7, 0.9),
            samples=12,
            name="kernels-test",
            dr_dist="uniform",
        )
        want = acceptance_sweep(42, pf, testers, **kw)
        # the constrained draws make QPA both accept and reject
        assert any(0.0 < r < 1.0 for r in want.rates["qpa"])
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

    def test_planted_width1_lockstep_fault_is_reported(
        self, monkeypatch, tmp_path, capsys
    ):
        # small instances never reach the lockstep through the public
        # entry point, so only the oracle's direct singleton call can see
        # a fault confined to one-instance lockstep shards
        import dataclasses

        from repro.cli import main

        real = lockstep_mod.evaluate_shard

        def faulty(entries, *args):
            out = real(entries, *args)
            if len(entries) == 1:
                rep = out[0]
                loads = rep.partition.loads
                bumped = (math.nextafter(loads[0], math.inf),) + loads[1:]
                partition = dataclasses.replace(rep.partition, loads=bumped)
                out[0] = dataclasses.replace(rep, partition=partition)
            return out

        monkeypatch.setattr(lockstep_mod, "evaluate_shard", faulty)
        rc = main(
            [
                "fuzz", "--seed", "1", "--budget", "8",
                "--check", "backend-equivalence",
                "--out-dir", str(tmp_path / "ce"),
            ]
        )
        out = capsys.readouterr().out
        assert rc == 1
        assert "numpy singleton report != scalar" in out
        assert "lockstep[0]" not in out and "batch[0]" not in out

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
        response = run(service.handle_test(self._payloads(1)[0]))
        assert "backend" not in response["report"]
        assert service.handle_healthz()["backend"] == "scalar"

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_backend_stamped_and_counted(self, backend):
        from repro.service.frontend import ShardedFrontend

        payloads = self._payloads()
        service = ShardedFrontend(workers=0, backend=backend)
        single = run(service.handle_test(payloads[0]))
        assert single["report"]["backend"] == backend
        batch = run(service.handle_batch({"instances": payloads}))
        assert [r["report"]["backend"] for r in batch["results"]] == (
            [backend] * len(payloads)
        )
        # 1 /v1/test miss + the batch misses (payloads[0] already cached),
        # all counted by the one in-process shard
        (shard,) = run(service.metrics_json())["shards"]
        assert shard["stats"]["backend_tests"] == {backend: len(payloads)}
        prom = run(service.metrics_prometheus())
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
            want = run(legacy.handle_test(payload))
            got = run(routed.handle_test(payload))
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
