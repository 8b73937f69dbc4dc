"""Tests for the analysis/measurement machinery."""

from __future__ import annotations

import sys

import numpy as np
import pytest

from repro.analysis import acceptance
from repro.analysis.acceptance import (
    acceptance_sweep,
    exact_edf_tester,
    exact_rms_tester,
    ff_tester,
    lp_tester,
)
from repro.analysis.ratio import (
    alpha_success_profile,
    min_alpha_first_fit,
)
from repro.analysis.runtime import runtime_scaling
from repro.analysis.speedup import empirical_speedup_study
from repro.analysis.stats import bootstrap_ci, empirical_cdf, summarize
from repro.core.model import Platform, Task, TaskSet
from repro.core.partition import first_fit_partition
from repro.workloads.platforms import geometric_platform


def ts(*utils):
    return TaskSet(Task.from_utilization(u, 10.0) for u in utils)


class TestMinAlpha:
    def test_already_feasible_returns_lo(self):
        r = min_alpha_first_fit(ts(0.3), Platform.from_speeds([1.0]))
        assert r.alpha == 1.0
        assert r.evaluations == 1

    def test_finds_known_threshold(self):
        # single machine speed 1, total utilization 1.5: min alpha = 1.5
        r = min_alpha_first_fit(ts(0.9, 0.6), Platform.from_speeds([1.0]), tol=1e-4)
        assert r.alpha == pytest.approx(1.5, abs=2e-4)

    def test_result_is_feasible_point(self):
        taskset = ts(0.9, 0.8, 0.7)
        platform = Platform.from_speeds([1.0, 0.5])
        r = min_alpha_first_fit(taskset, platform)
        assert first_fit_partition(taskset, platform, "edf", alpha=r.alpha).success
        # and just below (more than tol) it should fail
        below = r.alpha - 3 * r.tol
        if below > 1.0:
            assert not first_fit_partition(
                taskset, platform, "edf", alpha=below
            ).success

    def test_explicit_bracket_validation(self):
        with pytest.raises(RuntimeError):
            min_alpha_first_fit(
                ts(3.0), Platform.from_speeds([1.0]), hi=2.0
            )

    def test_invalid_tol(self):
        with pytest.raises(ValueError):
            min_alpha_first_fit(ts(0.5), Platform.from_speeds([1.0]), tol=0.0)

    def test_anomaly_scan_monotone_case(self):
        r = min_alpha_first_fit(
            ts(0.9, 0.6), Platform.from_speeds([1.0]), anomaly_scan=20
        )
        assert r.monotone is True

    def test_profile_shape(self):
        alphas = np.linspace(1.0, 2.0, 5)
        prof = alpha_success_profile(
            ts(0.9, 0.6), Platform.from_speeds([1.0]), "edf", alphas
        )
        assert prof.dtype == bool
        assert not prof[0]  # 1.5 needed
        assert prof[-1]

    def test_rms_threshold(self):
        # one task of utilization 1.2 on speed 1: LL bound for 1 task is 1,
        # so min alpha = 1.2 for rms-ll as well
        r = min_alpha_first_fit(
            ts(1.2), Platform.from_speeds([1.0]), "rms-ll", tol=1e-4
        )
        assert r.alpha == pytest.approx(1.2, abs=2e-4)


class TestAcceptanceSweep:
    def test_rates_monotone_decreasing_in_utilization(self, rng):
        platform = geometric_platform(3, 4.0)
        curve = acceptance_sweep(
            rng,
            platform,
            {"ff": ff_tester("edf")},
            n_tasks=8,
            normalized_utilizations=(0.5, 0.95, 1.05),
            samples=30,
        )
        rates = curve.rates["ff"]
        assert rates[0] >= rates[1] >= rates[2]
        assert rates[0] == 1.0

    def test_lp_dominates_exact_dominates_ff(self, rng):
        platform = geometric_platform(3, 4.0)
        curve = acceptance_sweep(
            rng,
            platform,
            {
                "ff": ff_tester("edf"),
                "exact": exact_edf_tester(),
                "lp": lp_tester(),
            },
            n_tasks=8,
            normalized_utilizations=(0.9, 0.97),
            samples=40,
        )
        for k in range(2):
            assert curve.rates["lp"][k] >= curve.rates["exact"][k]
            assert curve.rates["exact"][k] >= curve.rates["ff"][k]

    def test_rows_format(self, rng):
        platform = geometric_platform(2, 2.0)
        curve = acceptance_sweep(
            rng,
            platform,
            {"ff": ff_tester("edf")},
            normalized_utilizations=(0.5,),
            samples=3,
        )
        rows = curve.as_rows()
        assert rows[0]["U/S"] == 0.5
        assert "ff" in rows[0]

    def test_invalid_samples(self, rng):
        with pytest.raises(ValueError):
            acceptance_sweep(
                rng, geometric_platform(2, 2.0), {"ff": ff_tester("edf")}, samples=0
            )

    def test_rms_exact_tester_runs(self, rng):
        platform = geometric_platform(2, 2.0)
        curve = acceptance_sweep(
            rng,
            platform,
            {"exact-rms": exact_rms_tester()},
            n_tasks=4,
            normalized_utilizations=(0.4,),
            samples=5,
        )
        assert curve.rates["exact-rms"][0] == 1.0


def _numpy_owned(module: object) -> bool:
    return isinstance(module, str) and (
        module == "numpy" or module.startswith("numpy.")
    )


class TestAcceptanceWorkers:
    """A pool worker of a scalar sweep evaluates testers and runs no numpy:
    a forked worker that executes numpy faults its code pages into its
    own resident set."""

    def test_worker_side_trials_run_no_numpy(self, monkeypatch):
        from repro.experiments.e22_accept_deadline import ChenTester, HanZhaoTester
        from repro.runner import executor

        handed = []

        def capture(fn, trials, **kwargs):
            trials = list(trials)
            handed.append((fn, trials, kwargs.get("batch_fn")))
            return executor.run_trials(fn, trials, **kwargs)

        monkeypatch.setattr(acceptance, "run_trials", capture)
        testers = {
            "FF-QPA": ff_tester("edf-dbf"),
            "approx(k=4)": ff_tester("edf-dbf-approx"),
            "Han-Zhao": HanZhaoTester(),
            "Chen-DM": ChenTester(),
        }
        acceptance_sweep(
            7,
            geometric_platform(4, 8.0),
            testers,
            n_tasks=16,
            normalized_utilizations=(0.5, 0.9),
            samples=3,
            dr_dist="uniform",
            dr_min=0.4,
        )
        [(fn, items, batch_fn)] = handed
        assert batch_fn is None

        seen: set[str] = set()

        def probe(frame, event, arg):
            if event == "call":
                module = frame.f_globals.get("__name__")
                if _numpy_owned(module):
                    seen.add(f"{module}.{frame.f_code.co_name}")
            elif event == "c_call":
                owner = getattr(arg, "__self__", None)
                for module in (
                    getattr(arg, "__module__", None),
                    type(owner).__module__,
                    getattr(owner, "__name__", None),
                ):
                    if _numpy_owned(module):
                        seen.add(f"{module}.{arg.__name__}")

        sys.setprofile(probe)
        try:
            _, _, out = executor._run_chunk(fn, list(enumerate(items)))
        finally:
            sys.setprofile(None)
        assert [ok for _, ok, _ in out] == [True] * len(items)
        assert {record["FF-QPA"] for _, _, record in out} == {True, False}
        assert sorted(seen) == []


class TestSpeedupStudy:
    def test_edf_partitioned_respects_bound(self, rng):
        platform = geometric_platform(3, 4.0)
        study = empirical_speedup_study(
            rng, platform, scheduler="edf", adversary="partitioned", samples=10
        )
        assert study.bound == 2.0
        assert study.bound_respected
        assert len(study.alphas) == 10
        assert study.tightness <= 1.0

    def test_rms_any_respects_bound(self, rng):
        platform = geometric_platform(3, 4.0)
        study = empirical_speedup_study(
            rng,
            platform,
            scheduler="rms",
            adversary="any",
            samples=5,
            load=0.9,
        )
        assert study.bound == 3.34
        assert study.bound_respected

    def test_unknown_combination(self, rng):
        with pytest.raises(ValueError):
            empirical_speedup_study(
                rng,
                geometric_platform(2, 2.0),
                scheduler="edf",
                adversary="weird",  # type: ignore[arg-type]
            )


class TestRuntimeScaling:
    def test_grid_and_positivity(self, rng):
        points = runtime_scaling(
            rng, task_counts=(32, 64), machine_counts=(2, 4), repeats=2
        )
        assert len(points) == 4
        for p in points:
            assert p.seconds > 0
            assert p.seconds_per_nm == pytest.approx(
                p.seconds / (p.n_tasks * p.m_machines)
            )

    def test_invalid_repeats(self, rng):
        with pytest.raises(ValueError):
            runtime_scaling(rng, repeats=0)


class TestStats:
    def test_summarize(self):
        s = summarize([1.0, 2.0, 3.0, 4.0])
        assert s.n == 4
        assert s.mean == pytest.approx(2.5)
        assert s.minimum == 1.0
        assert s.maximum == 4.0
        assert s.median == pytest.approx(2.5)
        assert "mean" in str(s)

    def test_summarize_single(self):
        s = summarize([5.0])
        assert s.std == 0.0

    def test_summarize_empty(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_bootstrap_ci_contains_mean(self):
        values = list(np.random.default_rng(0).normal(10, 1, size=200))
        lo, hi = bootstrap_ci(values)
        assert lo < 10 < hi
        assert hi - lo < 1.0

    def test_bootstrap_invalid(self):
        with pytest.raises(ValueError):
            bootstrap_ci([])
        with pytest.raises(ValueError):
            bootstrap_ci([1.0], level=1.5)

    def test_empirical_cdf_default_points(self):
        xs, ys = empirical_cdf([3.0, 1.0, 2.0])
        assert list(xs) == [1.0, 2.0, 3.0]
        assert list(ys) == pytest.approx([1 / 3, 2 / 3, 1.0])

    def test_empirical_cdf_query_points(self):
        xs, ys = empirical_cdf([1.0, 2.0, 3.0], points=[0.0, 2.5, 5.0])
        assert list(ys) == pytest.approx([0.0, 2 / 3, 1.0])

    def test_empirical_cdf_empty(self):
        with pytest.raises(ValueError):
            empirical_cdf([])
