"""Parallel campaign execution with a serial-identical contract.

The runner fans pure per-trial functions out to a process pool in chunks
and reduces the records back **in trial order**, so ``jobs=1`` and
``jobs=N`` produce bit-identical results whenever the per-trial function
is deterministic in its trial item: ``(seed, params)`` and whatever the
caller drew from them before the fan-out (an acceptance sweep hands out
each trial's task set, drawn once in the parent).  See
:mod:`repro.runner.executor` for the execution model and
:mod:`repro.runner.telemetry` for throughput reporting.
"""

from .executor import (
    CampaignRun,
    RunStats,
    TrialError,
    WorkerStats,
    default_chunk_size,
    resolve_jobs,
    run_trials,
)
from .telemetry import Telemetry, active_telemetry, telemetry

__all__ = [
    "CampaignRun",
    "RunStats",
    "TrialError",
    "WorkerStats",
    "default_chunk_size",
    "resolve_jobs",
    "run_trials",
    "Telemetry",
    "active_telemetry",
    "telemetry",
]
