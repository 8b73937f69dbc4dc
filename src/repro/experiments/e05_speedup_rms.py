"""E5 / Figure 4 — empirical speedup-factor distribution, RMS.

RMS analogue of E4: Theorem I.2 bounds the partitioned-adversary sample
by 1+sqrt2 ~ 2.414, Theorem I.4 bounds the LP-adversary sample by 3.34.
RMS's Liu–Layland admission inflates alpha* relative to EDF by up to
1/ln2 ~ 1.44 even on friendly instances — visible in the medians.
"""

from __future__ import annotations

from ..analysis.speedup import empirical_speedup_study
from ..workloads.platforms import geometric_platform
from .base import DEFAULT_SEED, ExperimentResult, Scale, experiment_result
from .e04_speedup_edf import _study_rows


def run(
    seed: int = DEFAULT_SEED, scale: Scale = "full", jobs: int | None = 1
) -> ExperimentResult:
    platform = geometric_platform(4, 8.0)
    samples = 20 if scale == "quick" else 200
    studies = [
        empirical_speedup_study(
            seed,
            platform,
            scheduler="rms",
            adversary="partitioned",
            samples=samples,
            load=0.99,
            jobs=jobs,
            name="e05/rms/partitioned",
        ),
        empirical_speedup_study(
            seed,
            platform,
            scheduler="rms",
            adversary="any",
            samples=max(10, samples // 2),
            load=0.98,
            n_tasks=2 * len(platform),
            jobs=jobs,
            name="e05/rms/any",
        ),
    ]
    rows, cdf_rows = _study_rows(studies)
    return experiment_result(
        "e05",
        rows=rows,
        extra_tables={"alpha* CDF quantiles": cdf_rows},
        notes=(
            "Same protocol as E4 with RMS Liu-Layland admission. Measured "
            "alpha* sits above the EDF values of E4 (the LL-bound penalty) "
            "but below the 2.414 / 3.34 theorem bounds."
        ),
    )
