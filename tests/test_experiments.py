"""Every experiment runs once at quick scale; its table is diffed
against the committed golden and checked for the properties its artifact
promises.

These are deliberately the slowest tests in the suite.  The golden
``results/quick/eNN.txt`` is the byte-exact stdout of ``python -m repro
experiment eNN --scale quick`` at the default seed, and that command is
how a golden is regenerated after an intended change.  The property
assertions (the bounds hold, the curves are ordered) say which part of a
changed table is a regression rather than a new number.
"""

from __future__ import annotations

import difflib
import functools
import re
from pathlib import Path

import pytest

from repro.experiments import all_experiments, get_experiment

QUICK = {"scale": "quick"}
GOLDEN_DIR = Path(__file__).resolve().parent.parent / "results" / "quick"


@functools.cache
def run(eid):
    """The experiment's quick result, computed at most once per session;
    tests only read it."""
    return get_experiment(eid)(**QUICK)


def _mask_timings(text):
    """E06 prints wall-clock times, so they cannot be golden.

    Rule, applied to both sides: every decimal number becomes ``#`` (the
    ``ms`` and ``us/(n*m)`` columns and the spread figure in the note;
    ``n`` and ``m`` are integers), then every run of spaces and dashes
    becomes one space (the column widths and the rule line follow the
    timings).  The title, the ``n``/``m`` columns, the row count and the
    note's text still compare.
    """
    return re.sub(r"[ -]+", " ", re.sub(r"\d+\.\d+", "#", text))


@pytest.mark.parametrize("eid", list(all_experiments()))
def test_table_matches_golden(eid):
    expected = (GOLDEN_DIR / f"{eid}.txt").read_text()
    actual = run(eid).render() + "\n"
    if eid == "e06":
        expected, actual = _mask_timings(expected), _mask_timings(actual)
    if actual != expected:
        diff = difflib.unified_diff(
            expected.splitlines(keepends=True),
            actual.splitlines(keepends=True),
            fromfile=f"results/quick/{eid}.txt",
            tofile=f"{eid} --scale quick",
        )
        pytest.fail("".join(diff), pytrace=False)


class TestRegistry:
    def test_all_registered(self):
        ids = list(all_experiments())
        # e18-e21 are benchmark artifacts, not registry experiments
        assert ids == [f"e{k:02d}" for k in range(1, 18)] + ["e22", "e23"]

    def test_table_has_one_row_per_module(self):
        """A module missing from the table could never be run."""
        import repro.experiments
        from repro.experiments.base import EXPERIMENTS

        package = Path(repro.experiments.__file__).parent
        on_disk = sorted(p.stem for p in package.glob("e[0-9][0-9]_*.py"))
        named = [module for module, _ in EXPERIMENTS.values()]
        assert sorted(named) == on_disk
        assert all(module.startswith(eid + "_") for eid, (module, _) in EXPERIMENTS.items())

    def test_runner_is_the_module_run(self):
        import importlib

        from repro.experiments.base import EXPERIMENTS

        for eid, (module, _) in EXPERIMENTS.items():
            assert get_experiment(eid) is importlib.import_module(
                f"repro.experiments.{module}"
            ).run

    def test_result_archiving_roundtrip(self, tmp_path):
        import json

        from repro.experiments import result_from_dict

        res = run("e01")
        path = tmp_path / "e01.json"
        path.write_text(json.dumps(res.to_dict()))
        back = result_from_dict(json.loads(path.read_text()))
        assert back.experiment_id == res.experiment_id
        assert back.rows == res.rows
        assert back.render() == res.render()

    def test_unknown_id(self):
        with pytest.raises(KeyError):
            get_experiment("e99")


class TestE01Constants:
    def test_tables(self):
        res = run("e01")
        assert len(res.rows) == 4
        conds = res.extra_tables["Proof-inequality values (must exceed 1)"]
        assert all(row["all > 1"] for row in conds)
        opt = res.extra_tables["Free-constant re-optimization"]
        for row in opt:
            assert row["re-optimized alpha"] == pytest.approx(
                row["paper alpha"], abs=0.02
            )


class TestE02AcceptEDF:
    def test_curve_ordering(self):
        res = run("e02")
        for row in res.rows:
            # FF(a=2) and LP dominate exact; exact dominates FF(a=1)
            assert row["FF-EDF(a=2)"] >= row["exact-partitioned"] - 1e-9
            assert row["LP(any)"] >= row["exact-partitioned"] - 1e-9
            assert row["exact-partitioned"] >= row["FF-EDF(a=1)"] - 1e-9
        # and the alpha=1 curve collapses at the capacity wall
        assert res.rows[-1]["FF-EDF(a=1)"] <= res.rows[0]["FF-EDF(a=1)"]


class TestE03AcceptRMS:
    def test_admission_ordering(self):
        res = run("e03")
        for row in res.rows:
            assert row["FF-RMS-RTA(a=1)"] >= row["FF-RMS-hyp(a=1)"] - 1e-9
            assert row["FF-RMS-hyp(a=1)"] >= row["FF-RMS-LL(a=1)"] - 1e-9


class TestE04E05Speedup:
    def test_edf_bounds_respected(self):
        res = run("e04")
        for row in res.rows:
            assert row["bound respected"]
            assert row["max a*"] <= row["bound"] + 1e-2

    def test_rms_bounds_respected(self):
        res = run("e05")
        for row in res.rows:
            assert row["bound respected"]
        # the LL-admission penalty: the median alpha* against the
        # partitioned adversary is strictly above 1
        partitioned = next(r for r in res.rows if r["adversary"] == "partitioned")
        assert partitioned["median a*"] > 1.0


class TestE06Runtime:
    def test_rows_cover_grid(self):
        res = run("e06")
        assert len(res.rows) == 6  # 3 task counts x 2 machine counts
        assert all(row["ms"] > 0 for row in res.rows)


class TestE07Heterogeneity:
    def test_alpha_under_bound(self):
        res = run("e07")
        for row in res.rows:
            assert row["max alpha*"] <= 2.0 + 1e-2
            # LP weakly dominates first-fit acceptance (the column names
            # carry the utilization point, so resolve them by prefix)
            ff = next(v for k, v in row.items() if k.startswith("FF-EDF accept"))
            lp = next(v for k, v in row.items() if k.startswith("LP accept"))
            assert lp >= ff - 1e-9


class TestE08Ablation:
    def test_paper_strategy_at_top(self):
        res = run("e08")
        # the paper's strategy must be within the best acceptance rate
        best = max(row["acceptance"] for row in res.rows)
        paper_row = next(r for r in res.rows if "paper" in r["strategy"])
        assert paper_row["acceptance"] == pytest.approx(best, abs=0.05)
        # increasing utilization onto fast-first is the worst corner
        worst = min(res.rows, key=lambda r: r["acceptance"])
        assert "util-asc" in worst["strategy"]


class TestE09Gap:
    def test_edf_dominates_rms_ll(self):
        res = run("e09")
        for row in res.rows:
            assert row["FF-EDF accept"] >= row["FF-RMS-LL accept"] - 1e-9
            assert row["FF-RMS-RTA accept"] >= row["FF-RMS-LL accept"] - 1e-9

    def test_ll_bound_column(self):
        res = run("e09")
        assert res.rows[0]["LL bound n(2^(1/n)-1)"] == pytest.approx(1.0)
        # and it decreases toward ln 2
        bounds = [row["LL bound n(2^(1/n)-1)"] for row in res.rows]
        assert bounds == sorted(bounds, reverse=True)


class TestE10AdversaryGap:
    def test_bounds_respected_where_applicable(self):
        res = run("e10")
        for row in res.rows:
            if "bound respected" in row:
                assert row["bound respected"]
        assert sum(row["count"] for row in res.rows) > 0


class TestE11Baselines:
    def test_no_false_rejections(self):
        res = run("e11")
        for row in res.rows:
            if row["test"] in ("ours(a=2)", "AT[2](a=3)", "PTAS(eps=.25)"):
                assert row["false rejections"] == 0


class TestE12Frontier:
    def test_global_optimum_matches_paper(self):
        res = run("e12")
        opt = res.extra_tables["Global optimum over all constants"]
        for row in opt:
            assert row["global min alpha"] == pytest.approx(row["paper"], abs=0.02)

    def test_frontier_minimum_location(self):
        res = run("e12")
        edf = {row["c_f"]: row["min alpha (EDF)"] for row in res.rows}
        assert edf[28.412] <= edf[4.0]
        assert edf[28.412] <= edf[160.0] + 5e-3


class TestE14HardInstances:
    def test_lower_bounds_stay_below_upper_bounds(self):
        res = run("e14")
        for row in res.rows:
            assert row["searched max alpha*"] <= row["upper bound (theorem)"] + 2e-3
            # first-fit is provably not optimal: hardness above 1 exists
            assert row["searched max alpha*"] > 1.0
            assert row["remaining gap to bound"] >= -2e-3


class TestE15Anomalies:
    def test_rates_well_formed(self):
        res = run("e15")
        for row in res.rows:
            assert row["non-monotone profiles"] <= row["instances with a transition"]


class TestE16Migration:
    def test_family_signatures(self):
        res = run("e16")
        by_family = {row["family"]: row for row in res.rows}
        dhall = by_family["Dhall (2 light + heavy)"]
        # partitioning handles every Dhall instance; global EDF drops some
        assert dhall["partitioned FF-EDF clean"] == 1.0
        assert dhall["global EDF clean"] < 1.0
        thirds = by_family["chunky thirds (3 x u~0.6)"]
        # LP-feasible yet both concrete schedulers fail
        assert thirds["LP feasible"] == 1.0
        assert thirds["partitioned FF-EDF clean"] == 0.0
        assert thirds["global EDF clean"] == 0.0
        # executing an accepted partition never misses
        rand = by_family["random near-capacity"]
        assert rand["LP feasible"] >= rand["partitioned FF-EDF clean"]


class TestE17Breakdown:
    def test_admission_ordering_in_breakdown(self):
        res = run("e17")
        means = {row["test"]: row["mean breakdown U/S"] for row in res.rows}
        assert means["FF-RMS-LL"] <= means["FF-RMS-hyp"] + 1e-9
        assert means["FF-RMS-hyp"] <= means["FF-RMS-RTA"] + 1e-9
        assert means["FF-RMS-RTA"] <= means["FF-EDF"] + 1e-9
        assert means["FF-EDF"] <= means["exact-partitioned"] + 1e-9
        # everything breaks down somewhere in (0, 1]
        for row in res.rows:
            assert 0.0 < row["mean breakdown U/S"] <= 1.0 + 1e-9


class TestE22AcceptDeadline:
    def test_dominance_order_holds_pointwise(self):
        # theorem order on every grid point: exact QPA >= k=4
        # approximation >= Han-Zhao (k=1); Chen's FP test never beats the
        # exact EDF partitioner either
        res = run("e22")
        assert len(res.rows) == 24  # 4 dr_min values x 6 U/S points
        for row in res.rows:
            assert row["FF-QPA"] >= row["approx(k=4)"] - 1e-9
            assert row["approx(k=4)"] >= row["Han-Zhao"] - 1e-9
            assert row["FF-QPA"] >= row["Chen-DM"] - 1e-9

    def test_tighter_deadlines_never_help(self):
        # acceptance at dr_min=1.0 (implicit) dominates dr_min=0.4 for
        # the exact test at every utilization point
        res = run("e22")
        by_dr = {}
        for row in res.rows:
            by_dr.setdefault(row["dr_min"], {})[row["U/S"]] = row["FF-QPA"]
        for us, rate in by_dr[1.0].items():
            assert rate >= by_dr[0.4][us] - 1e-9


class TestE23SpeedupDeadline:
    def test_alphas_under_published_bounds(self):
        res = run("e23")
        assert len(res.rows) == 12  # 4 dr_min values x 3 testers
        for row in res.rows:
            assert row["max alpha"] <= row["bound"] + 1e-2
            assert row["mean alpha"] <= row["max alpha"] + 1e-9

    def test_exact_test_needs_no_speedup_on_certified_instances(self):
        # the instances carry a density certificate at speed 1, so the
        # exact QPA partitioner must accept them without augmentation
        res = run("e23")
        for row in res.rows:
            if row["tester"] == "FF-QPA":
                assert row["max alpha"] == pytest.approx(1.0)


class TestE13Simulation:
    def test_zero_misses_on_accepted_rows(self):
        res = run("e13")
        control = res.rows[-1]
        assert control["deadline misses"] > 0  # overload control
        for row in res.rows[:-1]:
            assert row["deadline misses"] == 0
            assert row["validator errors"] == 0

    def test_render_includes_notes(self):
        out = run("e13").render()
        assert "e13" in out
        assert "overload" in out
