"""E9 / Figure 6 — the EDF-vs-RMS acceptance gap vs tasks per machine.

Theorem II.3's bound ``n (2^{1/n} - 1)`` decays from 1 (one task) to
ln 2 (many tasks): the more tasks share a machine, the more capacity the
Liu–Layland admission forfeits relative to EDF's exact ``sum w <= s``.
This experiment sweeps tasks-per-machine at fixed utilization and traces
the widening gap, alongside the theoretical LL bound value.
"""

from __future__ import annotations

from ..analysis.acceptance import acceptance_sweep, ff_tester
from ..core.bounds import liu_layland_bound
from ..workloads.platforms import identical_platform
from .base import DEFAULT_SEED, ExperimentResult, Scale, experiment_result

TASKS_PER_MACHINE = (1, 2, 4, 8, 16)


def run(
    seed: int = DEFAULT_SEED,
    scale: Scale = "full",
    jobs: int | None = 1,
    backend: str | None = None,
) -> ExperimentResult:
    m = 4
    platform = identical_platform(m)
    samples = 30 if scale == "quick" else 300
    stress = 0.72  # just above ln 2: separates LL from EDF sharply
    rows = []
    for k in TASKS_PER_MACHINE:
        n = k * m
        curve = acceptance_sweep(
            seed,
            platform,
            {
                "FF-EDF": ff_tester("edf", 1.0),
                "FF-RMS-LL": ff_tester("rms-ll", 1.0),
                "FF-RMS-RTA": ff_tester("rms-rta", 1.0),
            },
            n_tasks=n,
            normalized_utilizations=(stress,),
            samples=samples,
            jobs=jobs,
            name=f"e09/gap/{k}",
            backend=backend,
        )
        rows.append(
            {
                "tasks/machine": k,
                "LL bound n(2^(1/n)-1)": liu_layland_bound(k),
                "FF-EDF accept": curve.rates["FF-EDF"][0],
                "FF-RMS-LL accept": curve.rates["FF-RMS-LL"][0],
                "FF-RMS-RTA accept": curve.rates["FF-RMS-RTA"][0],
            }
        )
    return experiment_result(
        "e09",
        rows=rows,
        notes=(
            f"m={m} identical machines, U/S={stress}, {samples} task sets "
            "per point. The LL column is the per-machine utilization the "
            "paper's RMS admission certifies; the RTA column shows how much "
            "of the LL-vs-EDF gap is analysis pessimism rather than true "
            "fixed-priority loss."
        ),
    )
