"""E15 / Table 8 — first-fit packing-anomaly scan.

First-fit is not formally monotone in the speed augmentation: extra
capacity reroutes early tasks and can, in principle, strand a later one
(the classic bin-packing anomaly family).  The theorems are careful to
never compare verdicts across alphas — and our min-alpha search treats
monotonicity as something to *verify*, not assume.

This experiment scans random near-capacity instances' success profiles
over a fine alpha grid and reports how often non-monotone profiles occur,
per admission test.  A nonzero rate justifies the library's design; a
zero rate at scale is evidence the anomaly is rare enough to ignore in
measurement practice (the bracket search stays correct either way).
"""

from __future__ import annotations

import numpy as np

from ..analysis.ratio import alpha_success_profile
from ..workloads.builder import generate_taskset
from ..workloads.platforms import geometric_platform
from .base import DEFAULT_SEED, ExperimentResult, Scale, experiment_result


def _is_monotone(profile: np.ndarray) -> bool:
    seen_true = False
    for v in profile:
        if seen_true and not v:
            return False
        seen_true = seen_true or bool(v)
    return True


def run(seed: int = DEFAULT_SEED, scale: Scale = "full") -> ExperimentResult:
    rng = np.random.default_rng(seed)
    platform = geometric_platform(4, 8.0)
    instances = 60 if scale == "quick" else 500
    grid_points = 40 if scale == "quick" else 120
    alphas = np.linspace(1.0, 3.0, grid_points)
    rows = []
    example: str | None = None
    for test in ("edf", "rms-ll"):
        anomalies = 0
        scanned = 0
        for _ in range(instances):
            stress = float(rng.uniform(0.95, 1.6))
            taskset = generate_taskset(
                rng,
                12,
                stress * platform.total_speed,
                u_max=1.5 * platform.fastest_speed,
            )
            profile = alpha_success_profile(taskset, platform, test, alphas)
            if not profile.any() or profile.all():
                continue  # no transition inside the grid: uninformative
            scanned += 1
            if not _is_monotone(profile):
                anomalies += 1
                if example is None:
                    edge = alphas[int(np.argmax(profile))]
                    example = (
                        f"{test}: success at alpha~{edge:.3f} followed by a "
                        f"later failure"
                    )
        rows.append(
            {
                "admission": test,
                "instances with a transition": scanned,
                "non-monotone profiles": anomalies,
                "anomaly rate": anomalies / scanned if scanned else float("nan"),
            }
        )
    return experiment_result(
        "e15",
        rows=rows,
        notes=(
            f"{instances} instances per admission test, {grid_points}-point "
            "alpha grid on [1, 3], near-capacity stress. "
            + (example or "No anomaly observed at this scale")
            + ". The min-alpha search brackets from a verified failure to a "
            "verified success, so its results are correct regardless."
        ),
    )
