"""Tests for the event-queue primitive, the collector handling of the
schedule loop and the validator, and the hyperperiod helpers."""

from __future__ import annotations

import dataclasses
import gc
import math

import pytest

from repro.core.model import Task
from repro.sim.engine import EventQueue, run_schedule
from repro.sim.hyperperiod import default_horizon, hyperperiod
from repro.sim.jobs import PeriodicSource
from repro.sim.policies import SchedulingPolicy
from repro.sim.validators import validate_trace


class TestEventQueue:
    def test_orders_by_time(self):
        q: EventQueue[str] = EventQueue()
        q.push(3.0, "c")
        q.push(1.0, "a")
        q.push(2.0, "b")
        assert [q.pop()[1] for _ in range(3)] == ["a", "b", "c"]

    def test_fifo_on_ties(self):
        q: EventQueue[str] = EventQueue()
        for name in "abc":
            q.push(1.0, name)
        assert [q.pop()[1] for _ in range(3)] == ["a", "b", "c"]

    def test_peek_time(self):
        q: EventQueue[int] = EventQueue()
        assert math.isinf(q.peek_time())
        q.push(5.0, 1)
        assert q.peek_time() == 5.0
        assert len(q) == 1

    def test_bool_and_len(self):
        q: EventQueue[int] = EventQueue()
        assert not q
        q.push(1.0, 0)
        assert q and len(q) == 1
        q.pop()
        assert not q


TASKS = [Task(wcet=1, period=4), Task(wcet=2, period=6), Task(wcet=3, period=12)]


def _schedule(policy="edf", horizon=1200.0):
    sources = [PeriodicSource(task, k) for k, task in enumerate(TASKS)]
    return run_schedule(TASKS, [1.0, 0.5], policy, sources, horizon)


class _FailingPolicy(SchedulingPolicy):
    name = "failing"

    def key(self, job, tasks):
        raise RuntimeError("no key")


class TestCollectorPause:
    """``run_schedule`` pauses the cyclic garbage collector for its loop
    and hands the caller's setting back however the loop ends."""

    @pytest.fixture(autouse=True)
    def _restore_collector(self):
        enabled = gc.isenabled()
        yield
        if enabled:
            gc.enable()
        else:
            gc.disable()

    @pytest.mark.parametrize("enabled", [True, False])
    def test_state_restored_after_return(self, enabled):
        gc.enable() if enabled else gc.disable()
        _schedule()
        assert gc.isenabled() is enabled

    @pytest.mark.parametrize("enabled", [True, False])
    def test_state_restored_after_raise(self, enabled):
        gc.enable() if enabled else gc.disable()
        with pytest.raises(RuntimeError, match="no key"):
            _schedule(_FailingPolicy())
        assert gc.isenabled() is enabled

    @pytest.mark.parametrize("enabled", [True, False])
    def test_validator_restores_state(self, enabled):
        """The validator pauses the collector too, on a clean audit and on
        a trace whose policy it cannot order."""
        gc.enable() if enabled else gc.disable()
        trace = _schedule(horizon=120.0)
        assert validate_trace(trace, TASKS) == []
        assert gc.isenabled() is enabled
        with pytest.raises(KeyError, match="failing"):
            validate_trace(dataclasses.replace(trace, policy_name="failing"), TASKS)
        assert gc.isenabled() is enabled

    def test_run_leaves_no_cyclic_garbage(self):
        """Nothing the loop allocates waits for the paused collector:
        reference counting frees the whole trace once it is dropped."""
        gc.enable()
        gc.collect()
        trace = _schedule(horizon=12_000.0)
        assert len(trace.jobs) == 6000
        del trace
        assert gc.collect() == 0


class TestHyperperiod:
    def test_integer_periods(self):
        assert hyperperiod([4, 6, 10]) == 60.0

    def test_single(self):
        assert hyperperiod([7]) == 7.0

    def test_non_integer_returns_none(self):
        assert hyperperiod([4.5, 6]) is None

    def test_float_that_is_integer_ok(self):
        assert hyperperiod([4.0, 8.0]) == 8.0

    def test_cap(self):
        assert hyperperiod([9973, 9967, 9949], cap=10_000) is None

    def test_empty(self):
        assert hyperperiod([]) is None

    def test_nonpositive_returns_none(self):
        assert hyperperiod([0]) is None


class TestDefaultHorizon:
    def test_uses_hyperperiod(self):
        tasks = [Task(1, 4), Task(1, 6)]
        assert default_horizon(tasks) == 12.0

    def test_falls_back_to_factor(self):
        tasks = [Task(1, 4.5), Task(1, 6.1)]
        assert default_horizon(tasks, factor=10.0) == pytest.approx(61.0)

    def test_empty(self):
        assert default_horizon([]) == 0.0
