"""E10 / Table 4 — the partitioned-vs-any adversary gap.

The paper's central question: how much of the classic factor 3 [2] is the
price of partitioning versus analysis slack?  This experiment collects
instances first-fit EDF rejects at alpha=1, classifies each by what the
adversaries can do (exact partitioned / LP), and reports the minimum
augmentation that would have sufficed per class.

Theorem-implied structure: every FF-rejected instance that is
partitioned-feasible has alpha* <= 2 (Thm I.1); every LP-feasible one has
alpha* <= 2.98 (Thm I.3); and LP-feasible-but-partition-infeasible
instances witness the genuine partitioning gap.

Execution: draws are per-trial-seeded (one :class:`Trial` per draw) and
dispatched through :func:`repro.runner.run_trials` in fixed-size rounds,
stopping after the first round that reaches the rejection target —
whole rounds only, so ``jobs=1`` and ``jobs=N`` classify the *same*
draws and the table is bit-identical for every ``--jobs`` value.
"""

from __future__ import annotations

import functools
from typing import Any

import numpy as np

from ..analysis.ratio import min_alpha_first_fit
from ..analysis.stats import summarize
from ..baselines.exact import exact_partitioned_edf_feasible
from ..core.lp import lp_feasible
from ..core.model import Platform
from ..core.partition import first_fit_partition
from ..runner import run_trials
from ..workloads.builder import generate_taskset
from ..workloads.campaigns import Campaign, Trial, campaign_seed
from ..workloads.platforms import geometric_platform
from .base import DEFAULT_SEED, ExperimentResult, Scale, experiment_result


def _classify_draw(platform: Platform, trial: Trial) -> dict[str, Any] | None:
    """One draw: None if FF-EDF(alpha=1) accepts, else its class + alpha*."""
    rng = trial.rng()
    stress = rng.uniform(0.9, 1.1)
    taskset = generate_taskset(
        rng,
        14,
        stress * platform.total_speed,
        u_max=platform.fastest_speed,
    )
    if first_fit_partition(taskset, platform, "edf", alpha=1.0).success:
        return None
    part = exact_partitioned_edf_feasible(taskset, platform)
    lp = lp_feasible(taskset, platform)
    if part is True:
        bucket = "partitioned-feasible"
    elif lp:
        bucket = "LP-only-feasible"
    else:
        bucket = "fully-infeasible"
    alpha_star = min_alpha_first_fit(taskset, platform, "edf").alpha
    return {"bucket": bucket, "alpha_star": alpha_star}


def run(
    seed: int = DEFAULT_SEED, scale: Scale = "full", jobs: int | None = 1
) -> ExperimentResult:
    platform = geometric_platform(4, 8.0)
    target_rejected = 40 if scale == "quick" else 300
    max_draws = target_rejected * 60

    trials = list(
        Campaign(
            name="e10/adversary-gap",
            grid={"n_tasks": [14]},
            replications=max_draws,
            base_seed=campaign_seed(seed),
        )
    )
    fn = functools.partial(_classify_draw, platform)
    round_size = target_rejected
    records: list[dict[str, Any] | None] = []
    for start in range(0, max_draws, round_size):
        chunk = trials[start : start + round_size]
        records.extend(
            run_trials(fn, chunk, jobs=jobs, label="e10/adversary-gap")
        )
        if sum(r is not None for r in records) >= target_rejected:
            break
    draws = len(records)

    classes: dict[str, list[float]] = {
        "partitioned-feasible": [],
        "LP-only-feasible": [],
        "fully-infeasible": [],
    }
    for record in records:
        if record is not None:
            classes[record["bucket"]].append(record["alpha_star"])

    rows = []
    bounds = {
        "partitioned-feasible": 2.0,
        "LP-only-feasible": 2.98,
        "fully-infeasible": float("nan"),
    }
    for bucket, alphas in classes.items():
        row: dict = {"class": bucket, "count": len(alphas), "bound": bounds[bucket]}
        if alphas:
            s = summarize(alphas)
            row.update(
                {"mean alpha*": s.mean, "max alpha*": s.maximum}
            )
            if not np.isnan(bounds[bucket]):
                row["bound respected"] = s.maximum <= bounds[bucket] + 2e-3
        rows.append(row)
    return experiment_result(
        "e10",
        rows=rows,
        notes=(
            f"{draws} draws around capacity (U/S in [0.9, 1.1]) on a "
            "4-machine geometric platform; only FF-EDF(alpha=1) rejections "
            "are classified. 'LP-only' instances are schedulable with "
            "migration but by no partition — the gap the paper's two "
            "adversary models separate."
        ),
    )
