"""E8 / Table 3 — ordering and fit-rule ablation.

The §III algorithm fixes three choices: tasks by decreasing utilization,
machines by increasing speed, first-fit placement.  This ablation runs
the full 3x2x3 strategy cube on the same instance stream and reports
acceptance at alpha=1 — measuring how much each choice buys in practice
(the paper justifies them analytically; the load bounds of §IV.A need
big-tasks-first onto slow-machines-first).
"""

from __future__ import annotations

import numpy as np

from ..baselines.heuristics import all_strategies, run_strategy
from ..workloads.builder import generate_taskset
from ..workloads.platforms import geometric_platform
from .base import DEFAULT_SEED, ExperimentResult, Scale, experiment_result


def run(seed: int = DEFAULT_SEED, scale: Scale = "full") -> ExperimentResult:
    rng = np.random.default_rng(seed)
    platform = geometric_platform(4, 8.0)
    samples = 60 if scale == "quick" else 600
    stress = 0.9
    instances = [
        generate_taskset(
            rng,
            16,
            stress * platform.total_speed,
            u_max=platform.fastest_speed,
        )
        for _ in range(samples)
    ]
    rows = []
    for strategy in all_strategies():
        accepted = sum(
            1
            for taskset in instances
            if run_strategy(strategy, taskset, platform, "edf", alpha=1.0).success
        )
        rows.append(
            {
                "strategy": strategy.label
                + ("  <- paper" if strategy.label == "util-desc/speed-asc/first" else ""),
                "acceptance": accepted / samples,
            }
        )
    rows.sort(key=lambda r: -r["acceptance"])
    return experiment_result(
        "e08",
        rows=rows,
        notes=(
            f"EDF admission, alpha=1, U/S={stress}, n=16, {samples} shared "
            "instances. Decreasing-utilization task order dominates; the "
            "machine order and fit rule matter less at alpha=1 but "
            "decreasing order is what the worst-case analysis relies on."
        ),
    )
