"""E14 / Table 7 — adversarial lower bounds on the algorithm's ratio.

Random instances need speedups barely above 1 (E4/E5); the theorems
price adversarial structure.  This experiment *searches* for that
structure (restart hill-climbing over witnessed partitioned-feasible
instances, maximizing first-fit's minimum augmentation) and reports the
hardest instances found — empirical lower bounds on the algorithm's true
approximation factor, bracketing it together with the theorems' upper
bounds (2 for EDF, 1+sqrt2 for RMS).

An extension beyond the paper: the paper proves upper bounds only; the
search quantifies how much of the remaining gap is real.
"""

from __future__ import annotations

import numpy as np

from ..analysis.hard_instances import search_hard_instance
from ..analysis.speedup import empirical_speedup_study
from ..core.constants import ALPHA_EDF_PARTITIONED, ALPHA_RMS_PARTITIONED
from ..workloads.platforms import geometric_platform
from .base import DEFAULT_SEED, ExperimentResult, Scale, experiment_result


def run(seed: int = DEFAULT_SEED, scale: Scale = "full") -> ExperimentResult:
    rng = np.random.default_rng(seed)
    platform = geometric_platform(4, 8.0)
    if scale == "quick":
        iterations, restarts, random_samples = 40, 2, 20
    else:
        iterations, restarts, random_samples = 300, 6, 150
    bounds = {"edf": ALPHA_EDF_PARTITIONED, "rms": ALPHA_RMS_PARTITIONED}
    rows = []
    for scheduler in ("edf", "rms"):
        random_study = empirical_speedup_study(
            rng,
            platform,
            scheduler=scheduler,  # type: ignore[arg-type]
            adversary="partitioned",
            samples=random_samples,
            load=1.0,
        )
        hard = search_hard_instance(
            rng,
            platform,
            scheduler,  # type: ignore[arg-type]
            iterations=iterations,
            restarts=restarts,
        )
        rows.append(
            {
                "scheduler": scheduler,
                "upper bound (theorem)": bounds[scheduler],
                "random max alpha*": random_study.summary.maximum,
                "searched max alpha*": hard.alpha,
                "search gain": hard.alpha - random_study.summary.maximum,
                "remaining gap to bound": bounds[scheduler] - hard.alpha,
                "hard instance n": len(hard.taskset),
            }
        )
    return experiment_result(
        "e14",
        rows=rows,
        notes=(
            f"Platform: 4 machines, geometric ratio 8; hill-climb with "
            f"{restarts} restarts x {iterations} mutations over witnessed "
            "partitioned-feasible instances (per-machine fill 1.0). "
            "'searched max alpha*' is a constructive lower bound on "
            "first-fit's approximation factor; the theorems are upper "
            "bounds. At full scale the search typically beats random "
            "sampling; the remaining gap quantifies how far the proved "
            "worst case sits from what even directed search finds."
        ),
    )
