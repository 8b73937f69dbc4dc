"""E13 / Table 6 — end-to-end simulation cross-validation.

Closes the loop between the analytical tests and actual execution:

* every accepted partition, simulated to the hyperperiod on the
  alpha-augmented platform under synchronous periodic release (the
  critical instant), must show **zero** deadline misses — for both EDF
  and RMS admission (Theorems II.2/II.3 made operational);
* sporadic releases (random extra gaps) are only easier: zero misses;
* negative control: deliberately overloaded machines must miss.

Every trace passes the independent validator before counting.
"""

from __future__ import annotations

import numpy as np

from ..core.model import Task, TaskSet
from ..core.partition import first_fit_partition
from ..sim.multiprocessor import simulate_partitioned
from ..sim.validators import validate_trace
from ..workloads.builder import partitioned_feasible_instance
from ..workloads.platforms import geometric_platform
from .base import DEFAULT_SEED, ExperimentResult, Scale, experiment_result


def run(seed: int = DEFAULT_SEED, scale: Scale = "full") -> ExperimentResult:
    rng = np.random.default_rng(seed)
    platform = geometric_platform(3, 4.0)
    instances = 10 if scale == "quick" else 60
    rows = []
    for policy, test, alpha in (
        ("edf", "edf", 1.0),
        ("edf", "edf", 2.0),
        ("rms", "rms-ll", 1.0),
        ("rms", "rms-ll", 2.4142135623730951),
    ):
        accepted = jobs = misses = validator_errors = 0
        for _ in range(instances):
            # load 0.65: below the 3-task Liu-Layland bound (~0.78), so the
            # RMS alpha=1 row also exercises accepted partitions
            inst = partitioned_feasible_instance(
                rng,
                platform,
                load=0.65,
                tasks_per_machine=3,
                integer_periods=True,
                p_min=4,
                p_max=24,
            )
            result = first_fit_partition(inst.taskset, platform, test, alpha=alpha)
            if not result.success:
                continue
            accepted += 1
            for release in ("periodic", "sporadic"):
                sim = simulate_partitioned(
                    inst.taskset,
                    platform,
                    result,
                    policy,  # type: ignore[arg-type]
                    alpha=alpha,
                    release=release,  # type: ignore[arg-type]
                    rng=rng,
                )
                jobs += sim.total_jobs
                misses += sim.total_misses
                for trace in sim.traces:
                    validator_errors += len(validate_trace(trace, inst.taskset.tasks))
        rows.append(
            {
                "policy": policy,
                "admission": test,
                "alpha": alpha,
                "accepted": f"{accepted}/{instances}",
                "jobs simulated": jobs,
                "deadline misses": misses,
                "validator errors": validator_errors,
            }
        )

    # Negative control: a machine loaded beyond capacity must miss.
    overload = TaskSet([Task(6, 10, "hog"), Task(4, 8, "hog2")])  # U = 1.1
    sim = simulate_partitioned(
        overload,
        geometric_platform(1, 1.0),
        [0, 0],
        "edf",
        horizon=80.0,
    )
    rows.append(
        {
            "policy": "edf",
            "admission": "(overload control)",
            "alpha": 1.0,
            "accepted": "-",
            "jobs simulated": sim.total_jobs,
            "deadline misses": sim.total_misses,
            "validator errors": sum(
                len(validate_trace(t, overload.tasks)) for t in sim.traces
            ),
        }
    )
    return experiment_result(
        "e13",
        rows=rows,
        notes=(
            "Integer periods, per-machine hyperperiod horizons; synchronous "
            "periodic + sporadic releases. Expected: zero misses and zero "
            "validator errors on every accepted row; misses > 0 on the "
            "overload control."
        ),
    )
