"""Tests for the §IV/§V constants, conditions, and the optimizer."""

from __future__ import annotations

import math

import pytest

from repro.core.constants import (
    ALPHA_EDF_LP,
    ALPHA_EDF_PARTITIONED,
    ALPHA_EDF_PRIOR,
    ALPHA_RMS_LP,
    ALPHA_RMS_PARTITIONED,
    ALPHA_RMS_PRIOR,
    EDF_LP_CONSTANTS,
    RMS_LP_CONSTANTS,
    alpha_frontier,
    best_constants_for_alpha,
    conditions,
    constants_valid,
    edf_conditions,
    f_im,
    minimal_alpha,
    rms_conditions,
)


class TestHeadlineAlphas:
    def test_partitioned_alphas(self):
        assert ALPHA_EDF_PARTITIONED == 2.0
        assert ALPHA_RMS_PARTITIONED == pytest.approx(1 + math.sqrt(2))

    def test_lp_alphas_match_paper(self):
        assert ALPHA_EDF_LP == 2.98
        assert ALPHA_RMS_LP == 3.34

    def test_prior_work_alphas(self):
        assert ALPHA_EDF_PRIOR == 3.0
        assert ALPHA_RMS_PRIOR == pytest.approx(2 + math.sqrt(2))

    def test_improvements_are_strict(self):
        # the paper's contribution: each new bound beats the prior one
        assert ALPHA_EDF_PARTITIONED < ALPHA_EDF_PRIOR
        assert ALPHA_EDF_LP < ALPHA_EDF_PRIOR
        assert ALPHA_RMS_PARTITIONED < ALPHA_RMS_PRIOR
        assert ALPHA_RMS_LP < ALPHA_RMS_PRIOR


class TestPaperConstants:
    def test_edf_constants_as_printed(self):
        pc = EDF_LP_CONSTANTS
        assert (pc.alpha, pc.c_s, pc.c_f) == (2.98, 2.868, 28.412)
        assert (pc.f_w, pc.f_f) == (0.811, 0.125)

    def test_rms_constants_as_printed(self):
        pc = RMS_LP_CONSTANTS
        assert (pc.alpha, pc.c_s, pc.c_f) == (3.34, 2.00, 13.25)
        assert (pc.f_w, pc.f_f) == (0.72, 0.1956)

    def test_edf_conditions_exceed_one(self):
        conds = edf_conditions(EDF_LP_CONSTANTS)
        for name, value in conds.items():
            assert value > 1.0, f"{name} = {value}"

    def test_edf_condition_margins_match_paper(self):
        # the paper states the fast-case expression evaluates to ~1.005;
        # exact arithmetic on its constants gives 1.0005 — we verify the
        # computed values are just above 1 and below 1.01.
        conds = edf_conditions(EDF_LP_CONSTANTS)
        for value in conds.values():
            assert 1.0 < value < 1.01

    def test_rms_conditions_exceed_one(self):
        conds = rms_conditions(RMS_LP_CONSTANTS)
        for name, value in conds.items():
            assert value > 1.0, f"{name} = {value}"
        # paper: ~1.004 (fast-case), ~1.003 (split)
        assert conds["fast-case"] == pytest.approx(1.0034, abs=2e-3)
        assert conds["split"] == pytest.approx(1.004, abs=2e-3)

    def test_constants_valid(self):
        assert constants_valid(EDF_LP_CONSTANTS, "edf")
        assert constants_valid(RMS_LP_CONSTANTS, "rms")

    def test_smaller_alpha_breaks_validity(self):
        import dataclasses

        weakened = dataclasses.replace(EDF_LP_CONSTANTS, alpha=2.5)
        assert not constants_valid(weakened, "edf")

    def test_side_constraints(self):
        import dataclasses

        bad_cs = dataclasses.replace(EDF_LP_CONSTANTS, c_s=1.5)
        assert not constants_valid(bad_cs, "edf")
        bad_fw = dataclasses.replace(EDF_LP_CONSTANTS, f_w=1.5)
        assert not constants_valid(bad_fw, "edf")


class TestFim:
    def test_edf_value(self):
        # with the paper's EDF constants f_im ~ 0.828
        v = f_im(2.98, 2.868, 0.125)
        assert v == pytest.approx(0.828, abs=2e-3)

    def test_positive_in_valid_region(self):
        assert f_im(2.98, 2.868, 0.125) > 0
        assert f_im(3.34, 2.0, 0.1956) > 0

    def test_invalid_cs(self):
        with pytest.raises(ValueError):
            f_im(2.0, 0.9, 0.1)

    def test_dispatch(self):
        assert conditions(EDF_LP_CONSTANTS, "edf") == edf_conditions(EDF_LP_CONSTANTS)
        with pytest.raises(ValueError):
            conditions(EDF_LP_CONSTANTS, "bogus")  # type: ignore[arg-type]


class TestOptimizer:
    def test_edf_minimum_matches_paper(self):
        alpha, pc = minimal_alpha("edf", grid=80)
        assert alpha == pytest.approx(2.98, abs=0.01)
        assert constants_valid(pc, "edf")
        # the optimal constants land near the printed ones
        assert pc.c_s == pytest.approx(2.868, abs=0.1)
        assert pc.f_w == pytest.approx(0.811, abs=0.05)

    def test_rms_minimum_matches_paper(self):
        alpha, pc = minimal_alpha("rms", grid=80)
        assert alpha == pytest.approx(3.34, abs=0.015)
        assert constants_valid(pc, "rms")
        assert pc.c_s == pytest.approx(2.0, abs=0.1)

    def test_best_constants_slack_consistent(self):
        pc, slack = best_constants_for_alpha(3.2, "edf", grid=60)
        assert slack > 1.0  # 3.2 > 2.98, so feasible with margin
        conds = edf_conditions(pc)
        assert conds["slow-case"] == pytest.approx(slack, rel=1e-6)

    def test_infeasible_below_technique_floor(self):
        _, slack = best_constants_for_alpha(2.5, "edf", grid=60)
        assert slack <= 1.0

    def test_alpha_rejects_invalid(self):
        with pytest.raises(ValueError):
            best_constants_for_alpha(1.0, "edf")

    def test_frontier_minimum_near_paper_cf(self):
        pts = alpha_frontier("edf", [8.0, 28.412, 160.0], tol=5e-3)
        by_cf = dict(pts)
        # the paper's c_f beats both a much smaller and much larger choice
        assert by_cf[28.412] < by_cf[8.0]
        assert by_cf[28.412] <= by_cf[160.0] + 1e-3
