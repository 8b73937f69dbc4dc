"""E4 / Figure 3 — empirical speedup-factor distribution, EDF.

On instances certified feasible for each adversary class, measure the
minimum speed augmentation at which first-fit EDF succeeds.  Theorem I.1
bounds the partitioned-adversary sample by 2; Theorem I.3 bounds the
LP-adversary sample by 2.98.  The CDF table gives the distribution shape;
`bound respected` is the reproduction's headline check.
"""

from __future__ import annotations

from ..analysis.speedup import empirical_speedup_study
from ..analysis.stats import empirical_cdf
from ..workloads.platforms import geometric_platform
from .base import DEFAULT_SEED, ExperimentResult, Scale, experiment_result


def _study_rows(studies) -> tuple[list[dict], list[dict]]:
    rows, cdf_rows = [], []
    for study in studies:
        rows.append(
            {
                "adversary": study.adversary,
                "bound": study.bound,
                "mean a*": study.summary.mean,
                "median a*": study.summary.median,
                "p95 a*": study.summary.p95,
                "max a*": study.summary.maximum,
                "bound respected": study.bound_respected,
                "tightness (max/bound)": study.tightness,
            }
        )
        xs, ys = empirical_cdf(study.alphas)
        for q in (0.25, 0.5, 0.75, 0.9, 0.99, 1.0):
            k = min(int(q * len(xs)), len(xs) - 1)
            cdf_rows.append(
                {"adversary": study.adversary, "quantile": q, "alpha*": float(xs[k])}
            )
    return rows, cdf_rows


def run(
    seed: int = DEFAULT_SEED, scale: Scale = "full", jobs: int | None = 1
) -> ExperimentResult:
    platform = geometric_platform(4, 8.0)
    samples = 20 if scale == "quick" else 200
    studies = [
        empirical_speedup_study(
            seed,
            platform,
            scheduler="edf",
            adversary="partitioned",
            samples=samples,
            load=0.99,
            jobs=jobs,
            name="e04/edf/partitioned",
        ),
        empirical_speedup_study(
            seed,
            platform,
            scheduler="edf",
            adversary="any",
            samples=max(10, samples // 2),
            load=0.98,
            n_tasks=2 * len(platform),  # chunky: the LP's advantage regime
            jobs=jobs,
            name="e04/edf/any",
        ),
    ]
    rows, cdf_rows = _study_rows(studies)
    return experiment_result(
        "e04",
        rows=rows,
        extra_tables={"alpha* CDF quantiles": cdf_rows},
        notes=(
            "Instances: partitioned — constructive witness at 99% per-machine "
            "fill; any — chunky RandFixedSum at 98% LP stress, LP-verified. The "
            "bounds (2 / 2.98) are worst-case: random near-capacity instances "
            "concentrate far below them, which is itself a finding — the "
            "analyses price adversarial structure random workloads lack."
        ),
    )
