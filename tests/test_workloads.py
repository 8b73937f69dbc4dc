"""Tests for the workload generators (utilizations, periods, platforms)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads.periods import (
    choice_periods,
    deadline_ratios,
    harmonic_periods,
    log_uniform_periods,
)
from repro.workloads.platforms import (
    big_little_platform,
    geometric_platform,
    identical_platform,
    normalized,
    random_platform,
)
from repro.workloads.randfixedsum import randfixedsum
from repro.workloads.uunifast import uunifast, uunifast_discard


class TestUUniFast:
    def test_sums_to_target(self, rng):
        for n in (1, 2, 5, 20):
            u = uunifast(rng, n, 3.0)
            assert u.sum() == pytest.approx(3.0)
            assert (u >= 0).all()
            assert len(u) == n

    def test_invalid_args(self, rng):
        with pytest.raises(ValueError):
            uunifast(rng, 0, 1.0)
        with pytest.raises(ValueError):
            uunifast(rng, 3, 0.0)

    def test_distribution_mean(self, rng):
        """Each coordinate's marginal mean on the simplex is U/n."""
        draws = np.array([uunifast(rng, 4, 2.0) for _ in range(3000)])
        assert draws.mean(axis=0) == pytest.approx([0.5] * 4, abs=0.03)

    def test_deterministic_for_seed(self):
        a = uunifast(np.random.default_rng(5), 6, 1.0)
        b = uunifast(np.random.default_rng(5), 6, 1.0)
        assert np.array_equal(a, b)


class TestUUniFastDiscard:
    def test_respects_cap(self, rng):
        for _ in range(50):
            u = uunifast_discard(rng, 6, 3.0, u_max=0.8)
            assert (u <= 0.8 + 1e-12).all()
            assert u.sum() == pytest.approx(3.0)

    def test_impossible_target(self, rng):
        with pytest.raises(ValueError):
            uunifast_discard(rng, 3, 4.0, u_max=1.0)

    def test_invalid_umax(self, rng):
        with pytest.raises(ValueError):
            uunifast_discard(rng, 3, 1.0, u_max=0.0)

    def test_give_up_names_the_target_and_the_way_out(self):
        # 64 tasks at U = 118 under u_max = 4: the 64 x 64 geometric
        # ratio-4 platform at stress 0.85, where acceptance collapses
        rng = np.random.default_rng(7)
        with pytest.raises(RuntimeError) as exc:
            uunifast_discard(rng, 64, 118.0, u_max=4.0, max_attempts=50)
        msg = str(exc.value)
        assert msg.startswith("uunifast_discard: gave up after 50 attempts")
        for part in ("n=64", "U=118.0", "u_max=4.0", "46% of u_max",
                     "n is close to the machine count m at high stress",
                     'method="randfixedsum"'):
            assert part in msg


class TestRandFixedSum:
    @given(
        st.integers(min_value=1, max_value=12),
        st.floats(min_value=0.1, max_value=0.9),
    )
    @settings(max_examples=50, deadline=None)
    def test_sum_and_bounds(self, n, frac):
        rng = np.random.default_rng(n * 1000 + int(frac * 100))
        total = frac * n
        x = randfixedsum(rng, n, total, low=0.0, high=1.0)
        assert x.shape == (1, n)
        assert x.sum() == pytest.approx(total, abs=1e-9)
        assert (x >= -1e-12).all() and (x <= 1 + 1e-12).all()

    def test_custom_bounds(self, rng):
        x = randfixedsum(rng, 5, 2.0, low=0.1, high=0.8, nsets=20)
        assert x.shape == (20, 5)
        assert np.allclose(x.sum(axis=1), 2.0)
        assert (x >= 0.1 - 1e-12).all() and (x <= 0.8 + 1e-12).all()

    def test_single_value(self, rng):
        x = randfixedsum(rng, 1, 0.7)
        assert x[0, 0] == pytest.approx(0.7)

    def test_empty_polytope(self, rng):
        with pytest.raises(ValueError):
            randfixedsum(rng, 3, 5.0, low=0.0, high=1.0)
        with pytest.raises(ValueError):
            randfixedsum(rng, 3, 0.1, low=0.2, high=1.0)

    def test_degenerate_bounds(self, rng):
        with pytest.raises(ValueError):
            randfixedsum(rng, 3, 1.0, low=0.5, high=0.5)

    def test_invalid_counts(self, rng):
        with pytest.raises(ValueError):
            randfixedsum(rng, 0, 1.0)
        with pytest.raises(ValueError):
            randfixedsum(rng, 2, 1.0, nsets=0)

    def test_marginal_mean(self, rng):
        """Uniformity sanity: coordinates should average total/n."""
        x = randfixedsum(rng, 4, 2.0, low=0.0, high=1.0, nsets=4000)
        assert x.mean(axis=0) == pytest.approx([0.5] * 4, abs=0.03)

    def test_tight_constraint_no_rejection(self, rng):
        """The case rejection sampling cannot handle: high total with a
        low per-task cap."""
        x = randfixedsum(rng, 30, 12.0, low=0.1, high=0.9, nsets=5)
        assert np.allclose(x.sum(axis=1), 12.0)
        assert (x >= 0.1 - 1e-9).all() and (x <= 0.9 + 1e-9).all()


class TestPeriods:
    def test_log_uniform_range(self, rng):
        p = log_uniform_periods(rng, 500, p_min=10, p_max=1000)
        assert (p >= 10).all() and (p <= 1000).all()
        # log-uniform: median near geometric mean ~ 100
        assert 60 < np.median(p) < 170

    def test_granularity_rounds_up(self, rng):
        p = log_uniform_periods(rng, 100, p_min=3, p_max=50, granularity=1.0)
        assert np.allclose(p, np.round(p))
        assert (p >= 3).all()

    def test_invalid_ranges(self, rng):
        with pytest.raises(ValueError):
            log_uniform_periods(rng, 5, p_min=100, p_max=10)
        with pytest.raises(ValueError):
            log_uniform_periods(rng, 0)
        with pytest.raises(ValueError):
            log_uniform_periods(rng, 5, granularity=-1.0)

    def test_harmonic_divisibility(self, rng):
        p = harmonic_periods(rng, 50, base=10, levels=4)
        for a in p:
            for b in p:
                big, small = max(a, b), min(a, b)
                assert big % small == pytest.approx(0.0)

    def test_harmonic_invalid(self, rng):
        with pytest.raises(ValueError):
            harmonic_periods(rng, 0)
        with pytest.raises(ValueError):
            harmonic_periods(rng, 5, levels=0)
        with pytest.raises(ValueError):
            harmonic_periods(rng, 5, base=-1)

    def test_choice_periods(self, rng):
        p = choice_periods(rng, 100, [5.0, 10.0])
        assert set(np.unique(p)) <= {5.0, 10.0}

    def test_choice_invalid(self, rng):
        with pytest.raises(ValueError):
            choice_periods(rng, 5, [])
        with pytest.raises(ValueError):
            choice_periods(rng, 5, [1.0, -2.0])


class TestDeadlineRatios:
    def test_uniform_range(self, rng):
        r = deadline_ratios(rng, 500, dr_min=0.4, dr_max=0.9)
        assert r.shape == (500,)
        assert np.all((r >= 0.4) & (r <= 0.9))

    def test_loguniform_range_and_bias(self, rng):
        r = deadline_ratios(
            rng, 4000, distribution="loguniform", dr_min=0.1, dr_max=1.0
        )
        assert np.all((r >= 0.1) & (r <= 1.0))
        # equal mass per decade-fraction: the geometric midpoint splits
        # the draws evenly, so well under half sit above the arithmetic
        # midpoint 0.55 (a uniform draw would put half there)
        assert np.mean(r > 0.55) < 0.45

    def test_degenerate_interval_is_constant(self, rng):
        r = deadline_ratios(rng, 10, dr_min=0.7, dr_max=0.7)
        assert np.allclose(r, 0.7)

    def test_invalid_args(self, rng):
        with pytest.raises(ValueError):
            deadline_ratios(rng, 0)
        with pytest.raises(ValueError):
            deadline_ratios(rng, 5, dr_min=0.0)
        with pytest.raises(ValueError):
            deadline_ratios(rng, 5, dr_min=0.9, dr_max=0.5)
        with pytest.raises(ValueError):
            deadline_ratios(rng, 5, distribution="gaussian")


class TestPlatforms:
    def test_identical(self):
        p = identical_platform(3, 2.0)
        assert p.speeds == (2.0, 2.0, 2.0)

    def test_geometric_ratio(self):
        p = geometric_platform(5, 16.0)
        assert p.heterogeneity_ratio == pytest.approx(16.0)
        # consecutive ratios equal
        ratios = [p.speeds[i + 1] / p.speeds[i] for i in range(4)]
        assert max(ratios) == pytest.approx(min(ratios))

    def test_geometric_single_machine(self):
        p = geometric_platform(1, 8.0, slowest=2.0)
        assert p.speeds == (2.0,)

    def test_geometric_invalid(self):
        with pytest.raises(ValueError):
            geometric_platform(0, 2.0)
        with pytest.raises(ValueError):
            geometric_platform(3, 0.5)

    def test_big_little(self):
        p = big_little_platform(2, 3, big_speed=4.0, little_speed=1.0)
        assert len(p) == 5
        assert p.speeds == (1.0, 1.0, 1.0, 4.0, 4.0)

    def test_big_little_invalid(self):
        with pytest.raises(ValueError):
            big_little_platform(0, 0)

    def test_random_platform_bounds(self, rng):
        for log_scale in (True, False):
            p = random_platform(
                rng, 20, min_speed=0.5, max_speed=3.0, log_scale=log_scale
            )
            assert all(0.5 <= s <= 3.0 for s in p.speeds)

    def test_random_platform_invalid(self, rng):
        with pytest.raises(ValueError):
            random_platform(rng, 0)
        with pytest.raises(ValueError):
            random_platform(rng, 3, min_speed=2.0, max_speed=1.0)

    def test_normalized(self):
        p = normalized(geometric_platform(4, 8.0), 10.0)
        assert p.total_speed == pytest.approx(10.0)
        assert p.heterogeneity_ratio == pytest.approx(8.0)

    def test_normalized_invalid(self):
        with pytest.raises(ValueError):
            normalized(identical_platform(2), 0.0)
