"""E3 / Figure 2 — RMS acceptance ratio vs normalized utilization.

Same sweep as E2 for the RMS side, additionally quantifying the pessimism
of the paper's Liu–Layland admission (Theorem II.3) against the
hyperbolic bound and exact response-time analysis on each machine, and
against the exact partitioned-RMS adversary (RTA ground truth).

Expected shape: RTA >= hyperbolic >= LL pointwise (strictly ordered
sufficiency), all below the EDF curves of E2 at equal utilization.
"""

from __future__ import annotations

from ..analysis.acceptance import (
    acceptance_sweep,
    exact_rms_tester,
    ff_tester,
)
from ..workloads.platforms import geometric_platform
from .base import DEFAULT_SEED, ExperimentResult, Scale, experiment_result

GRID = (0.40, 0.50, 0.60, 0.65, 0.70, 0.75, 0.80, 0.90, 1.0)


def run(
    seed: int = DEFAULT_SEED,
    scale: Scale = "full",
    jobs: int | None = 1,
    backend: str | None = None,
) -> ExperimentResult:
    platform = geometric_platform(4, 8.0)
    samples = 30 if scale == "quick" else 300
    curve = acceptance_sweep(
        seed,
        platform,
        {
            "FF-RMS-LL(a=1)": ff_tester("rms-ll", 1.0),
            "FF-RMS-hyp(a=1)": ff_tester("rms-hyperbolic", 1.0),
            "FF-RMS-RTA(a=1)": ff_tester("rms-rta", 1.0),
            "FF-RMS-LL(a=2.41)": ff_tester("rms-ll", 2.4142135623730951),
            "exact-partitioned-RMS": exact_rms_tester(),
        },
        n_tasks=16,
        normalized_utilizations=GRID,
        samples=samples,
        jobs=jobs,
        name="e03/accept-rms",
        backend=backend,
    )
    return experiment_result(
        "e03",
        rows=curve.as_rows(),
        notes=(
            f"Platform: 4 machines, geometric speeds ratio 8; n=16 tasks; "
            f"{samples} task sets per point. Admission ordering LL <= "
            "hyperbolic <= RTA quantifies the pessimism of the paper's "
            "Liu-Layland choice; FF-RMS-LL(a=2.41) is the Theorem I.2 "
            "acceptance band."
        ),
    )
