"""E23 — empirical speedup factors on the deadline-ratio axis.

Protocol of E4/E5 extended to constrained deadlines: generate instances
*certified* partitioned-EDF feasible at speed 1 (density witness, see
:func:`repro.workloads.builder.constrained_feasible_instance`), then
measure the minimum augmentation at which each constrained-deadline
tester accepts — the exact QPA admission under the paper's §III
first-fit, and the Han–Zhao and Chen baselines in their native
deadline-monotonic shape.  The related-work speedup bounds cap the
baselines' columns (2.5556 for Han–Zhao's linearized dbf, 2.84306 for
Chen's FBB-FFD test); the measured max/mean per deadline-ratio band are
the pinned regression numbers, the analogue of the paper's
2 / 2.41 / 2.98 / 3.34 table.
"""

from __future__ import annotations

import functools
import math

from ..analysis.ratio import min_alpha_first_fit
from ..baselines.chen_fp_dbf import CHEN_DM_SPEEDUP, ChenFPAdmissionTest
from ..baselines.han_zhao import HAN_ZHAO_SPEEDUP, HanZhaoAdmissionTest
from ..core.constants import ALPHA_EDF_PARTITIONED
from ..core.model import Platform
from ..runner import run_trials
from ..workloads.builder import constrained_feasible_instance
from ..workloads.campaigns import Campaign, Trial, campaign_seed
from ..workloads.platforms import geometric_platform
from .base import DEFAULT_SEED, ExperimentResult, Scale, experiment_result

#: deadline-ratio bands: ratios drawn uniform on [dr_min, 1]
DR_MINS = (1.0, 0.8, 0.6, 0.4)

#: tester name -> (admission test factory, first-fit task order, bound)
TESTERS = {
    "FF-QPA": ("edf-dbf", "util-desc", ALPHA_EDF_PARTITIONED),
    "Han-Zhao": (HanZhaoAdmissionTest, "deadline-asc", HAN_ZHAO_SPEEDUP),
    "Chen-DM": (ChenFPAdmissionTest, "deadline-asc", CHEN_DM_SPEEDUP),
}


def _speedup_trial(
    trial: Trial,
    *,
    platform: Platform,
    load: float,
    tasks_per_machine: int,
    tol: float,
) -> dict[str, float]:
    """One sample: a certified constrained-feasible draw, one min-alpha
    search per tester.  Pure in (trial.seed, trial.params)."""
    rng = trial.rng()
    dr_min = trial.params["dr_min"]
    inst = constrained_feasible_instance(
        rng,
        platform,
        load=load,
        tasks_per_machine=tasks_per_machine,
        dr_min=dr_min,
        dr_max=1.0,
    )
    out: dict[str, float] = {}
    for name, (test, order, _) in TESTERS.items():
        resolved = test if isinstance(test, str) else test()
        out[name] = float(
            min_alpha_first_fit(
                inst.taskset,
                platform,
                resolved,
                tol=tol,
                task_order=order,  # type: ignore[arg-type]
            ).alpha
        )
    return out


def run(
    seed: int = DEFAULT_SEED,
    scale: Scale = "full",
    jobs: int | None = 1,
    backend: str | None = None,
) -> ExperimentResult:
    del backend  # the min-alpha search is inherently scalar
    platform = geometric_platform(4, 8.0)
    samples = 12 if scale == "quick" else 100
    campaign = Campaign(
        name="e23/speedup-deadline",
        grid={"dr_min": DR_MINS},
        replications=samples,
        base_seed=campaign_seed(seed),
    )
    fn = functools.partial(
        _speedup_trial,
        platform=platform,
        load=0.95,
        tasks_per_machine=4,
        tol=1e-3,
    )
    run_ = run_trials(fn, campaign, jobs=jobs, label="e23/speedup-deadline")
    records = iter(run_.records)
    rows = []
    for dr_min in DR_MINS:
        chunk = [next(records) for _ in range(samples)]
        for name, (_, _, bound) in TESTERS.items():
            alphas = [r[name] for r in chunk]
            rows.append(
                {
                    "dr_min": dr_min,
                    "tester": name,
                    "max alpha": max(alphas),
                    "mean alpha": math.fsum(alphas) / len(alphas),
                    "bound": bound,
                }
            )
    return experiment_result(
        "e23",
        rows=rows,
        notes=(
            f"Platform: 4 machines, geometric speeds ratio 8; 4 tasks per "
            f"machine, per-machine density 0.95 (UUniFast witness), "
            f"deadline ratios uniform on [dr_min, 1]; {samples} instances "
            "per band, min-alpha search tol 1e-3. Bounds: 2 is Theorem "
            "I.1's implicit-deadline reference for first-fit with exact "
            f"admission; {HAN_ZHAO_SPEEDUP} is Han-Zhao's factor for the "
            f"linearized dbf under DM first-fit; {CHEN_DM_SPEEDUP} is "
            "Chen's factor for the FBB-FFD linear test. Instances are "
            "feasible at speed 1 by the density certificate, so every "
            "alpha here is an empirical speedup sample."
        ),
    )
