"""E17 / Table 10 — breakdown utilization distributions.

One number per instance per test: the normalized utilization at which
acceptance breaks when the instance is scaled up.  Complements the
acceptance curves (E2/E3) with a shape-free comparison of the single-
machine admissions inside the partitioner, against the exact partitioned
adversary's own breakdown.

Expected ordering (all on the same instance shapes):
``LL <= hyperbolic <= RTA <= EDF`` among first-fit admissions, and
``FF-EDF <= exact`` (first-fit's packing loss).  The EDF-to-LL median gap
is the operational cost of static priorities that Theorem I.2/I.4 pay
analytically.
"""

from __future__ import annotations

from ..analysis.acceptance import exact_edf_tester, ff_tester
from ..analysis.breakdown import breakdown_utilizations
from ..workloads.platforms import geometric_platform
from .base import DEFAULT_SEED, ExperimentResult, Scale, experiment_result


def run(
    seed: int = DEFAULT_SEED, scale: Scale = "full", jobs: int | None = 1
) -> ExperimentResult:
    platform = geometric_platform(4, 8.0)
    samples = 20 if scale == "quick" else 150
    study = breakdown_utilizations(
        seed,
        platform,
        {
            "FF-EDF": ff_tester("edf"),
            "FF-RMS-LL": ff_tester("rms-ll"),
            "FF-RMS-hyp": ff_tester("rms-hyperbolic"),
            "FF-RMS-RTA": ff_tester("rms-rta"),
            "exact-partitioned": exact_edf_tester(),
        },
        n_tasks=16,
        samples=samples,
        jobs=jobs,
        name="e17/breakdown",
    )
    rows = []
    for name in study.samples:
        s = study.summary(name)
        rows.append(
            {
                "test": name,
                "mean breakdown U/S": s.mean,
                "median": s.median,
                "min": s.minimum,
                "max": s.maximum,
            }
        )
    rows.sort(key=lambda r: -r["mean breakdown U/S"])
    return experiment_result(
        "e17",
        rows=rows,
        notes=(
            f"4 machines geometric ratio 8, n=16, {samples} shared instance "
            "shapes scaled from 30% of capacity until each test rejects. "
            "The FF-EDF-to-FF-RMS-LL median gap is the capacity cost of the "
            "paper's static-priority variant; FF-EDF-to-exact is first-fit's "
            "packing loss (small on random shapes, cf. E14 for adversarial)."
        ),
    )
