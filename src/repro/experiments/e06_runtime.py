"""E6 / Table 2 — runtime scaling of the first-fit test.

All four theorems claim O(nm) time (after the O(n log n) sort).  This
experiment times the partitioner across an n x m grid on near-capacity
instances; a flat ``us/(n*m)`` column confirms the bound.
"""

from __future__ import annotations

import numpy as np

from ..analysis.runtime import runtime_scaling
from .base import DEFAULT_SEED, ExperimentResult, Scale, experiment_result


def run(seed: int = DEFAULT_SEED, scale: Scale = "full") -> ExperimentResult:
    rng = np.random.default_rng(seed)
    if scale == "quick":
        task_counts = (64, 256, 1024)
        machine_counts = (2, 8)
        repeats = 3
    else:
        task_counts = (64, 128, 256, 512, 1024, 2048, 4096)
        machine_counts = (2, 4, 8, 16, 32, 64)
        repeats = 7
    points = runtime_scaling(
        rng,
        task_counts=task_counts,
        machine_counts=machine_counts,
        repeats=repeats,
    )
    rows = [
        {
            "n": p.n_tasks,
            "m": p.m_machines,
            "ms": p.seconds * 1e3,
            "us/(n*m)": p.seconds_per_nm * 1e6,
        }
        for p in points
    ]
    norm = [p.seconds_per_nm for p in points]
    spread = max(norm) / min(norm) if min(norm) > 0 else float("inf")
    return experiment_result(
        "e06",
        rows=rows,
        notes=(
            f"Max/min spread of the normalized column: {spread:.2f}x. "
            "A bounded spread (no growth with n or m) is the O(nm) claim; "
            "small-n points pay fixed Python overheads, so the spread is "
            "dominated by the smallest grid cells."
        ),
    )
