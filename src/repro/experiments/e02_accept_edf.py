"""E2 / Figure 1 — EDF acceptance ratio vs normalized utilization.

Schedulability curves on a geometric 4-machine platform: the §III
first-fit EDF test at alpha=1 (what it can actually place) and at the
Theorem I.1 alpha=2 (its acceptance guarantee band), against the exact
partitioned adversary and the §II LP (any-schedule) oracle.

Expected shape: LP >= exact >= FF(alpha=1) pointwise; FF(alpha=1) tracks
exact closely until utilization nears capacity; everything accepted by
FF at alpha=1 is genuinely schedulable as-is.
"""

from __future__ import annotations

from ..analysis.acceptance import (
    acceptance_sweep,
    exact_edf_tester,
    ff_tester,
    lp_tester,
)
from ..workloads.platforms import geometric_platform
from .base import DEFAULT_SEED, ExperimentResult, Scale, experiment_result

GRID = (0.60, 0.70, 0.80, 0.85, 0.90, 0.925, 0.95, 0.975, 1.0)


def run(
    seed: int = DEFAULT_SEED,
    scale: Scale = "full",
    jobs: int | None = 1,
    backend: str | None = None,
) -> ExperimentResult:
    platform = geometric_platform(4, 8.0)
    samples = 40 if scale == "quick" else 400
    curve = acceptance_sweep(
        seed,
        platform,
        {
            "FF-EDF(a=1)": ff_tester("edf", 1.0),
            "FF-EDF(a=2)": ff_tester("edf", 2.0),
            "exact-partitioned": exact_edf_tester(),
            "LP(any)": lp_tester(),
        },
        n_tasks=16,
        normalized_utilizations=GRID,
        samples=samples,
        jobs=jobs,
        name="e02/accept-edf",
        backend=backend,
    )
    return experiment_result(
        "e02",
        rows=curve.as_rows(),
        notes=(
            f"Platform: 4 machines, geometric speeds ratio 8; n=16 tasks "
            f"(UUniFast); {samples} task sets per point. FF-EDF(a=2) is the "
            "Theorem I.1 acceptance band: everything the exact partitioned "
            "adversary can schedule must be accepted there."
        ),
    )
