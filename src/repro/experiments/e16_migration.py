"""E16 / Table 9 — migration vs partitioning, executed.

The paper's two adversary classes differ by migration.  This experiment
makes the difference operational by *running* schedules (synchronous
periodic releases to the hyperperiod):

* partitioned first-fit EDF (the paper's algorithm, alpha = 1);
* global EDF with free migration (fastest-machine-first);
* the LP oracle (what an ideal migratory scheduler could do).

Three instance families expose the three regimes: random near-capacity
sets, Dhall-style (m light + one heavy, global EDF's classic failure),
and chunky thirds (three u~2/3 tasks per two machines — partitioned-
infeasible, LP-feasible, and *also* beyond global EDF, showing the LP
adversary is strictly stronger than any concrete policy we run).

Caveat: global-EDF "clean" means no miss under synchronous periodic
release — a demonstration, not a certificate (synchronous release is not
necessarily global EDF's worst case).
"""

from __future__ import annotations

import math

import numpy as np

from ..core.lp import lp_feasible
from ..core.model import Platform, Task, TaskSet
from ..core.partition import first_fit_partition
from ..sim.global_sched import simulate_global
from ..sim.jobs import PeriodicSource
from ..sim.multiprocessor import simulate_partitioned
from ..workloads.builder import generate_taskset
from .base import DEFAULT_SEED, ExperimentResult, Scale, experiment_result


def _global_clean(taskset: TaskSet, speeds: list[float]) -> bool:
    tasks = list(taskset)
    try:
        horizon = float(math.lcm(*(int(round(t.period)) for t in tasks)))
    except ValueError:
        horizon = 40.0
    horizon = min(horizon, 5000.0)
    sources = [PeriodicSource(t, i) for i, t in enumerate(tasks)]
    trace = simulate_global(tasks, speeds, "edf", sources, horizon)
    return not trace.any_miss


def _partitioned_clean(taskset: TaskSet, platform: Platform) -> bool:
    result = first_fit_partition(taskset, platform, "edf")
    if not result.success:
        return False
    sim = simulate_partitioned(
        taskset, platform, result, "edf", stop_on_first_miss=True
    )
    return not sim.any_miss


def _random_family(rng: np.random.Generator, count: int) -> list[TaskSet]:
    out = []
    for _ in range(count):
        stress = float(rng.uniform(0.85, 1.0))
        out.append(
            generate_taskset(
                rng,
                6,
                stress * 2.0,
                u_max=0.95,
                p_min=4,
                p_max=16,
                integer_periods=True,
            )
        )
    return out


def _dhall_family(rng: np.random.Generator, count: int) -> list[TaskSet]:
    out = []
    for _ in range(count):
        eps = float(rng.uniform(0.02, 0.12))
        out.append(
            TaskSet(
                [
                    Task(1.0, 10.0, name="light0"),
                    Task(1.0, 10.0, name="light1"),
                    Task(12.0 * (1 - eps), 12.0, name="heavy"),
                ]
            )
        )
    return out


def _thirds_family(rng: np.random.Generator, count: int) -> list[TaskSet]:
    out = []
    for _ in range(count):
        u = float(rng.uniform(0.55, 0.66))
        p = float(rng.integers(9, 16))
        out.append(TaskSet([Task.from_utilization(u, p) for _ in range(3)]))
    return out


def run(seed: int = DEFAULT_SEED, scale: Scale = "full") -> ExperimentResult:
    rng = np.random.default_rng(seed)
    count = 15 if scale == "quick" else 100
    platform = Platform.from_speeds([1.0, 1.0])
    speeds = [1.0, 1.0]
    rows = []
    for family, builder in (
        ("random near-capacity", _random_family),
        ("Dhall (2 light + heavy)", _dhall_family),
        ("chunky thirds (3 x u~0.6)", _thirds_family),
    ):
        instances = builder(rng, count)
        part = sum(_partitioned_clean(ts, platform) for ts in instances)
        glob = sum(_global_clean(ts, speeds) for ts in instances)
        lp = sum(lp_feasible(ts, platform) for ts in instances)
        rows.append(
            {
                "family": family,
                "instances": len(instances),
                "partitioned FF-EDF clean": part / count,
                "global EDF clean": glob / count,
                "LP feasible": lp / count,
            }
        )
    return experiment_result(
        "e16",
        rows=rows,
        notes=(
            "Two unit machines; synchronous periodic release to the "
            "hyperperiod. Dhall instances: partitioning wins (global EDF "
            "strands the heavy task). Chunky thirds: the LP is feasible "
            "but BOTH concrete schedulers fail — partitioning for packing "
            "reasons, global EDF for non-optimality — illustrating why the "
            "paper's strongest adversary is the LP, not a policy."
        ),
    )
