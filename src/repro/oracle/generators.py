"""Instance generation for the differential oracle.

Two kinds of instances feed the fuzzer:

* **randomized** draws reusing the :mod:`repro.workloads` generators
  (UUniFast task sets on identical/geometric/random platforms over a
  wide stress range, including infeasible overloads), and
* **adversarial boundary mutants**: a random draw is rescaled so that
  the quantity an admission test compares sits *exactly on* the test's
  threshold — total utilization on the EDF capacity, on the Liu–Layland
  bound, the hyperbolic product on 2, or the instance total on the
  platform capacity — then nudged by a few multiples of the comparison
  tolerance :data:`~repro.core.model.EPS` so draws land on every side of
  the tolerance window.  These are precisely the instances where
  incremental/one-shot float drift or inconsistent tolerance conventions
  flip verdicts.

Everything is a pure function of the supplied ``numpy`` Generator, so a
trial is reproducible from its seed alone.
"""

from __future__ import annotations

import math

import numpy as np

from ..core.bounds import liu_layland_bound
from ..core.model import Platform, Task, TaskSet
from ..workloads.builder import generate_taskset
from ..workloads.platforms import (
    geometric_platform,
    identical_platform,
    random_platform,
)

__all__ = [
    "PROFILES",
    "draw_platform",
    "draw_instance",
    "scale_total_to",
    "scale_hyperbolic_to",
    "boundary_nudges",
]

#: Multiplicative nudges applied after scaling onto a threshold: exact
#: boundary, inside/outside the EPS tolerance window, and clearly beyond
#: it.  (EPS is 1e-9; 5e-10 lands inside the window, 2e-9/8e-9 outside.)
_NUDGES = (0.0, -5e-10, 5e-10, -2e-9, 2e-9, -8e-9, 8e-9)


def boundary_nudges() -> tuple[float, ...]:
    """The menu of relative offsets used by the boundary profiles."""
    return _NUDGES


def scale_total_to(taskset: TaskSet, target: float) -> TaskSet:
    """Rescale every wcet so total utilization lands on ``target``."""
    total = taskset.total_utilization
    if total <= 0 or target <= 0:
        raise ValueError("need positive utilizations and target")
    return taskset.scaled(target / total)


def scale_hyperbolic_to(
    taskset: TaskSet, speed: float, target: float = 2.0
) -> TaskSet:
    """Rescale so ``prod (w_i/speed + 1)`` lands on ``target`` (bisection)."""
    if len(taskset) == 0:
        raise ValueError("need at least one task")

    def product(factor: float) -> float:
        prod = 1.0
        for t in taskset:
            prod *= factor * t.utilization / speed + 1.0
        return prod

    lo, hi = 0.0, 1.0
    while product(hi) < target:
        hi *= 2.0
        if hi > 1e9:  # pragma: no cover - utilizations are positive
            raise RuntimeError("hyperbolic scaling diverged")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if product(mid) < target:
            lo = mid
        else:
            hi = mid
    return taskset.scaled(hi)


def draw_platform(rng: np.random.Generator, *, max_machines: int = 3) -> Platform:
    """A small platform of one of the evaluation's shapes."""
    m = int(rng.integers(1, max_machines + 1))
    shape = int(rng.integers(0, 3))
    if shape == 0 or m == 1:
        return identical_platform(m, speed=float(rng.uniform(0.5, 2.0)))
    if shape == 1:
        return geometric_platform(m, ratio=float(rng.uniform(1.5, 8.0)))
    return random_platform(rng, m, min_speed=0.5, max_speed=4.0)


def _base_taskset(
    rng: np.random.Generator, platform: Platform, *, n: int, stress: float
) -> TaskSet:
    target = stress * platform.total_speed
    # Cap per-task utilization at the fastest speed only when the cap
    # leaves the rejection sampler comfortable headroom; tight or
    # impossible caps (few tasks on a heterogeneous platform) fall back
    # to the uncapped draw — over-utilized tasks are legitimate fuzz
    # input, every check handles infeasible instances.
    u_max = platform.fastest_speed
    if target <= 0.75 * n * u_max:
        return generate_taskset(rng, n, target, u_max=u_max)
    return generate_taskset(rng, n, target)


def _uniform(rng: np.random.Generator) -> tuple[TaskSet, Platform]:
    """Random instance over a wide stress range (including overloads)."""
    platform = draw_platform(rng)
    n = int(rng.integers(1, 9))
    stress = float(rng.uniform(0.2, 1.15))
    return _base_taskset(rng, platform, n=n, stress=stress), platform


def _tiny(rng: np.random.Generator) -> tuple[TaskSet, Platform]:
    """Few tasks, coarse parameters — the exact adversaries' home turf."""
    platform = identical_platform(
        int(rng.integers(1, 3)), speed=float(rng.integers(1, 4))
    )
    n = int(rng.integers(1, 4))
    tasks = []
    for i in range(n):
        period = float(rng.integers(2, 17))
        wcet = float(rng.integers(1, max(2, int(period))))
        tasks.append(Task(wcet=wcet, period=period, name=f"tau{i}"))
    return TaskSet(tasks), platform


def _nudge(rng: np.random.Generator) -> float:
    return 1.0 + _NUDGES[int(rng.integers(0, len(_NUDGES)))]


def _boundary_edf(rng: np.random.Generator) -> tuple[TaskSet, Platform]:
    """Total utilization pushed onto one machine's EDF capacity."""
    platform = identical_platform(1, speed=float(rng.uniform(0.5, 2.0)))
    n = int(rng.integers(1, 9))
    taskset = _base_taskset(rng, platform, n=n, stress=0.8)
    target = platform[0].speed * _nudge(rng)
    return scale_total_to(taskset, target), platform


def _boundary_rms_ll(rng: np.random.Generator) -> tuple[TaskSet, Platform]:
    """Total utilization pushed onto the Liu–Layland bound."""
    platform = identical_platform(1, speed=float(rng.uniform(0.5, 2.0)))
    n = int(rng.integers(1, 9))
    taskset = _base_taskset(rng, platform, n=n, stress=0.6)
    target = liu_layland_bound(n) * platform[0].speed * _nudge(rng)
    return scale_total_to(taskset, target), platform


def _boundary_rms_hyperbolic(
    rng: np.random.Generator,
) -> tuple[TaskSet, Platform]:
    """Hyperbolic product pushed onto 2 (then tolerance-nudged)."""
    platform = identical_platform(1, speed=float(rng.uniform(0.5, 2.0)))
    n = int(rng.integers(1, 9))
    taskset = _base_taskset(rng, platform, n=n, stress=0.6)
    scaled = scale_hyperbolic_to(taskset, platform[0].speed, target=2.0)
    return scaled.scaled(_nudge(rng)), platform


def _boundary_capacity(rng: np.random.Generator) -> tuple[TaskSet, Platform]:
    """Multi-machine: total utilization pushed onto total platform speed."""
    platform = draw_platform(rng)
    n = int(rng.integers(max(2, len(platform)), 10))
    taskset = _base_taskset(rng, platform, n=n, stress=0.9)
    target = platform.total_speed * _nudge(rng)
    taskset = scale_total_to(taskset, target)
    if taskset.max_utilization > platform.fastest_speed:
        # keep the single-task necessary condition satisfiable sometimes
        if rng.integers(0, 2):
            taskset = taskset.scaled(
                platform.fastest_speed / taskset.max_utilization
            )
    return taskset, platform


def _constrained(rng: np.random.Generator) -> tuple[TaskSet, Platform]:
    """Constrained-deadline instances across the deadline-ratio axis.

    Per-task ``d_i/p_i`` ratios drawn uniform or log-uniform on a range
    whose lower end varies per trial, at stresses spanning feasible to
    overloaded — the home turf of the ``edf-dbf``/``han-zhao``/
    ``chen-dm`` family and the constrained lattice checks.
    """
    platform = draw_platform(rng)
    n = int(rng.integers(1, 7))
    stress = float(rng.uniform(0.3, 1.1))
    dr_min = float(rng.uniform(0.3, 0.9))
    dr_dist = "uniform" if rng.integers(0, 2) else "loguniform"
    return (
        generate_taskset(
            rng,
            n,
            stress * platform.total_speed,
            dr_dist=dr_dist,  # type: ignore[arg-type]
            dr_min=dr_min,
            dr_max=1.0,
        ),
        platform,
    )


def _boundary_qpa(rng: np.random.Generator) -> tuple[TaskSet, Platform]:
    """Machine speed pushed onto the exact processor-demand threshold.

    Small integer-parameter constrained sets, with the (single) machine
    speed set to ``max_t dbf(t)/t`` over the demand points in one
    hyperperiod — the critical speed ``s*`` at which the set is exactly
    feasible — then tolerance-nudged.  Lands QPA's fixed-point iteration
    exactly on the ``dbf(t) <= s t`` boundary at step points ``d + k p``,
    where the pre-PR-8 absolute-EPS floor/gate bugs lived.
    """
    from ..core.dbf import dbf_series, demand_points

    n = int(rng.integers(1, 4))
    tasks = []
    for i in range(n):
        period = float(rng.integers(2, 13))
        deadline = float(rng.integers(1, int(period) + 1))
        wcet = float(rng.integers(1, max(2, int(deadline) + 1)))
        tasks.append(
            Task(wcet=wcet, period=period, deadline=deadline, name=f"tau{i}")
        )
    taskset = TaskSet(tasks)
    # integer periods <= 12 => hyperperiod <= lcm(2..12) = 27720
    hyper = math.lcm(*(int(t.period) for t in tasks))
    horizon = float(max(hyper, max(int(t.deadline) for t in tasks)))
    points = demand_points(tasks, horizon)
    crit = max(d / t for d, t in zip(dbf_series(tasks, points), points))
    speed = max(crit, 1e-6) * _nudge(rng)
    return taskset, identical_platform(1, speed=speed)


#: Profile name -> generator.  Order is part of the fuzzer's determinism
#: contract: a trial's profile is chosen by index into this mapping.
PROFILES: dict[str, object] = {
    "uniform": _uniform,
    "tiny": _tiny,
    "boundary-edf": _boundary_edf,
    "boundary-rms-ll": _boundary_rms_ll,
    "boundary-rms-hyperbolic": _boundary_rms_hyperbolic,
    "boundary-capacity": _boundary_capacity,
    "constrained": _constrained,
    "boundary-qpa": _boundary_qpa,
}


def draw_instance(
    rng: np.random.Generator, profile: str
) -> tuple[TaskSet, Platform]:
    """Draw one instance from the named profile."""
    try:
        gen = PROFILES[profile]
    except KeyError:
        raise KeyError(
            f"unknown profile {profile!r}; known: {sorted(PROFILES)}"
        ) from None
    taskset, platform = gen(rng)  # type: ignore[operator]
    if math.fsum(t.utilization for t in taskset) <= 0:  # pragma: no cover
        raise RuntimeError("generated an empty instance")
    return taskset, platform
