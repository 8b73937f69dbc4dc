"""Discrete-event schedule simulator: jobs, policies, traces, validator."""

from .engine import TIME_EPS, EventQueue
from .gantt import render_gantt
from .global_sched import simulate_global
from .hyperperiod import default_horizon, hyperperiod
from .jobs import Job, JobSource, PeriodicSource, SporadicSource
from .multiprocessor import PartitionedSimulation, simulate_partitioned
from .policies import EDFPolicy, RMSPolicy, SchedulingPolicy, policy_by_name
from .trace import JobRecord, Segment, Trace
from .uniprocessor import simulate_taskset_on_machine, simulate_uniprocessor
from .validators import validate_trace

__all__ = [
    "TIME_EPS",
    "EventQueue",
    "render_gantt",
    "simulate_global",
    "default_horizon",
    "hyperperiod",
    "Job",
    "JobSource",
    "PeriodicSource",
    "SporadicSource",
    "PartitionedSimulation",
    "simulate_partitioned",
    "EDFPolicy",
    "RMSPolicy",
    "SchedulingPolicy",
    "policy_by_name",
    "JobRecord",
    "Segment",
    "Trace",
    "simulate_taskset_on_machine",
    "simulate_uniprocessor",
    "validate_trace",
]
