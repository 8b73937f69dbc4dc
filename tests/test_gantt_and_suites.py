"""Tests for the Gantt renderer and the named workload suites."""

from __future__ import annotations

import pytest

from repro.core.bounds import rms_rta_feasible
from repro.core.model import Task
from repro.sim.gantt import render_gantt
from repro.sim.trace import Trace
from repro.sim.uniprocessor import simulate_taskset_on_machine
from repro.workloads.suites import (
    AUTOMOTIVE_PERIOD_SHARES,
    automotive_suite,
    avionics_suite,
)


class TestGantt:
    def test_renders_rows_per_task(self):
        tasks = [Task(2, 6, name="ctrl"), Task(2, 8, name="log")]
        trace = simulate_taskset_on_machine(tasks, 1.0, "edf", horizon=24)
        art = render_gantt(trace, tasks, width=48)
        lines = art.splitlines()
        assert len(lines) == 3  # two tasks + axis
        assert lines[0].startswith("ctrl")
        assert "#" in lines[0]
        assert "0" in lines[-1] and "24" in lines[-1]

    def test_busy_fraction_roughly_matches(self):
        tasks = [Task(3, 6)]
        trace = simulate_taskset_on_machine(tasks, 1.0, "edf", horizon=24)
        art = render_gantt(trace, tasks, width=24)
        row = art.splitlines()[0]
        body = row.split("|")[1]
        assert body.count("#") == 12  # 50% utilization over 24 buckets

    def test_miss_marker(self):
        tasks = [Task(5, 6), Task(3, 7)]  # overload
        trace = simulate_taskset_on_machine(tasks, 1.0, "edf", horizon=42)
        art = render_gantt(trace, tasks, width=40)
        assert "!" in art
        assert "miss" in art

    def test_empty_trace(self):
        trace = Trace(
            speeds=(1.0,),
            horizon=0.0,
            policy_name="edf",
            on_miss="continue",
            segments=(),
            jobs=(),
        )
        assert render_gantt(trace, []) == "(empty trace)"

    def test_width_validation(self):
        tasks = [Task(1, 4)]
        trace = simulate_taskset_on_machine(tasks, 1.0, "edf", horizon=8)
        with pytest.raises(ValueError):
            render_gantt(trace, tasks, width=4)


class TestAvionicsSuite:
    def test_structure(self):
        ts = avionics_suite()
        assert len(ts) == 12
        assert ts.total_utilization == pytest.approx(0.6)
        assert set(t.period for t in ts) == {5.0, 10.0, 20.0, 40.0}

    def test_harmonic_periods(self):
        ts = avionics_suite()
        periods = sorted(set(t.period for t in ts))
        for a, b in zip(periods, periods[1:]):
            assert b % a == 0

    def test_rms_schedulable_on_unit_machine(self):
        # harmonic + U=0.6: comfortably RMS-schedulable
        ts = avionics_suite()
        assert rms_rta_feasible(list(ts), 1.0)

    def test_simulates_cleanly_to_hyperperiod(self):
        ts = avionics_suite()
        trace = simulate_taskset_on_machine(list(ts), 1.0, "rms")
        assert trace.horizon == 40.0
        assert not trace.any_miss

    def test_utilization_knob(self):
        ts = avionics_suite(utilization_per_group=0.2)
        assert ts.total_utilization == pytest.approx(0.8)
        with pytest.raises(ValueError):
            avionics_suite(utilization_per_group=0.3)


class TestAutomotiveSuite:
    def test_periods_from_menu(self, rng):
        ts = automotive_suite(rng, 100)
        assert set(t.period for t in ts) <= set(AUTOMOTIVE_PERIOD_SHARES)

    def test_total_utilization(self, rng):
        ts = automotive_suite(rng, 30, total_utilization=2.5)
        assert ts.total_utilization == pytest.approx(2.5)

    def test_period_distribution_shape(self, rng):
        ts = automotive_suite(rng, 4000)
        counts = {}
        for t in ts:
            counts[t.period] = counts.get(t.period, 0) + 1
        # 10 ms (with the folded angle-sync share) should be the mode
        assert max(counts, key=counts.get) == 10.0
        # the rare 200 ms bin stays rare
        assert counts.get(200.0, 0) < counts[10.0] / 5

    def test_invalid_n(self, rng):
        with pytest.raises(ValueError):
            automotive_suite(rng, 0)
