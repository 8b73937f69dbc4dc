"""E22 — constrained-deadline acceptance across the deadline-ratio axis.

Schedulability curves for the constrained-deadline test family on a
geometric 4-machine platform, swept over the deadline-ratio band
``[dr_min, 1]``: the exact processor-demand admission (``edf-dbf``, the
QPA walk) under the paper's §III first-fit, the Han–Zhao linearized-dbf
baseline and Chen's FBB-FFD linear bound (both in their native
deadline-monotonic shape), and the k=4 approximate dbf.  The
``dr_min=1`` row is the implicit-deadline control where ``edf-dbf``
degenerates to the utilization test.

Expected shape: QPA >= approx(k=4) >= Han–Zhao pointwise (coarser
approximations reject more), Chen's fixed-priority test is the most
conservative, and every curve drops as deadlines tighten (``dr_min``
falls) at fixed utilization — demand concentrates in shorter windows.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis.acceptance import acceptance_sweep, ff_tester
from ..baselines.chen_fp_dbf import chen_partition
from ..baselines.han_zhao import han_zhao_partition
from ..core.model import Platform, TaskSet
from ..workloads.platforms import geometric_platform
from .base import DEFAULT_SEED, ExperimentResult, Scale, experiment_result

GRID = (0.40, 0.50, 0.60, 0.70, 0.80, 0.90)

#: deadline-ratio bands swept: ratios drawn uniform on [dr_min, 1]
DR_MINS = (1.0, 0.8, 0.6, 0.4)


@dataclass(frozen=True)
class HanZhaoTester:
    """Acceptance predicate for the Han–Zhao DM first-fit baseline."""

    alpha: float = 1.0

    def __call__(self, taskset: TaskSet, platform: Platform) -> bool:
        return han_zhao_partition(taskset, platform, alpha=self.alpha).success


@dataclass(frozen=True)
class ChenTester:
    """Acceptance predicate for Chen's DM first-fit FBB-FFD baseline."""

    alpha: float = 1.0

    def __call__(self, taskset: TaskSet, platform: Platform) -> bool:
        return chen_partition(taskset, platform, alpha=self.alpha).success


def run(
    seed: int = DEFAULT_SEED,
    scale: Scale = "full",
    jobs: int | None = 1,
    backend: str | None = None,
) -> ExperimentResult:
    platform = geometric_platform(4, 8.0)
    samples = 40 if scale == "quick" else 400
    rows = []
    for dr_min in DR_MINS:
        curve = acceptance_sweep(
            seed,
            platform,
            {
                "FF-QPA": ff_tester("edf-dbf", 1.0),
                "approx(k=4)": ff_tester("edf-dbf-approx", 1.0),
                "Han-Zhao": HanZhaoTester(),
                "Chen-DM": ChenTester(),
            },
            n_tasks=16,
            normalized_utilizations=GRID,
            samples=samples,
            jobs=jobs,
            name=f"e22/accept-deadline/dr{dr_min}",
            backend=backend,
            dr_dist="implicit" if dr_min == 1.0 else "uniform",
            dr_min=dr_min,
            dr_max=1.0,
        )
        for row in curve.as_rows():
            rows.append({"dr_min": dr_min, **row})
    return experiment_result(
        "e22",
        rows=rows,
        notes=(
            f"Platform: 4 machines, geometric speeds ratio 8; n=16 tasks "
            f"(UUniFast), deadline ratios uniform on [dr_min, 1]; {samples} "
            "task sets per point. FF-QPA is the exact processor-demand "
            "admission under the paper's util-desc first-fit; approx(k=4) "
            "its 4-step approximation; Han-Zhao and Chen-DM run in their "
            "native deadline-monotonic shape. dr_min=1.0 is the implicit "
            "control row."
        ),
    )
