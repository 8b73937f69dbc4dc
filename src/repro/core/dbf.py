"""Demand bound functions and exact EDF tests for constrained deadlines.

The paper treats implicit deadlines, where EDF schedulability on a
speed-``s`` machine collapses to ``sum w_i <= s`` (Theorem II.2).  For
*constrained* (``d <= p``) or arbitrary deadlines, the exact uniprocessor
EDF condition is the processor-demand criterion (Baruah, Rosier & Howell):

    for all t > 0:   dbf(t) <= s * t

with the demand bound function

    dbf(t) = sum_i max(0, floor((t - d_i) / p_i) + 1) * c_i.

It suffices to check the (finitely many) step points up to a bound ``L``
(the "synchronous busy interval" bound ``L_a``), and Zhang & Burns' QPA
iteration checks far fewer points in practice.  Both are implemented and
cross-checked against each other and the simulator in the test suite.

This module is the substrate for extending the paper's partitioner to
constrained deadlines: :class:`EDFDemandBoundTest` plugs the exact QPA
test into the §III first-fit loop in place of the utilization test
(pseudo-polynomial per probe rather than O(1) — the price of exactness,
cf. the approximate demand-bound approach of [7]).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .bounds import AdmissionTest, MachineState, _NeumaierSum
from .model import EPS, Task, leq, lt, tol_floor

__all__ = [
    "dbf",
    "dbf_taskset",
    "dbf_series",
    "demand_points",
    "demand_bound_horizon",
    "edf_demand_feasible",
    "qpa_edf_feasible",
    "EDFDemandBoundTest",
    "ProfileCacheStats",
    "profile_cache_stats",
    "reset_profile_cache",
]


def dbf(task: Task, t: float) -> float:
    """Demand of one sporadic task over any interval of length ``t``:
    the work of all jobs that can both arrive and be due inside it.

    Both boundary decisions are scale-aware (:func:`~.model.lt` /
    :func:`~.model.tol_floor`): at ``t = d + k*p`` the ``k+1``-th job
    counts no matter how large ``t``, ``d`` or ``k`` are — an absolute
    ``EPS`` nudge stops rescuing exact crossovers once the division
    error exceeds ``1e-9``.
    """
    if lt(t, task.deadline):
        return 0.0
    jobs = tol_floor((t - task.deadline) / task.period) + 1
    return jobs * task.wcet


def dbf_taskset(tasks: Iterable[Task], t: float) -> float:
    """Total demand bound of a task set at interval length ``t``.

    The exactly rounded per-task sum ``math.fsum(dbf(task, t) for task
    in tasks)``, evaluated on the set's :class:`_DemandProfile`.
    """
    return dbf_series(tasks, (t,))[0]


def dbf_series(tasks: Iterable[Task], times: Iterable[float]) -> list[float]:
    """``[dbf_taskset(tasks, t) for t in times]``, with the set's demand
    profile built once for the whole walk."""
    tasks = tuple(tasks)
    if not tasks:
        return [0.0 for _ in times]
    prof = _profile(tasks, None)
    return [prof.dbf(t) for t in times]


def _rational_hyperperiod(
    periods: Sequence[float], *, cap: float = 1e7
) -> float | None:
    """lcm of the periods as rationals (limit-denominator 1e6), or None
    when irrational-looking or beyond ``cap``."""
    from fractions import Fraction

    acc = Fraction(0)
    for p in periods:
        f = Fraction(p).limit_denominator(10**6)
        if abs(float(f) - p) > 1e-9 * max(1.0, p):
            return None
        if acc == 0:
            acc = f
        else:
            acc = Fraction(
                math.lcm(acc.numerator, f.numerator),
                math.gcd(acc.denominator, f.denominator),
            )
        if acc > cap:
            return None
    return float(acc)


class _DemandProfile:
    """Memoized demand machinery for one task set.

    The constrained-deadline first-fit loop can probe the *same*
    candidate task set on several machines of different speeds;
    everything speed-independent (the step parameters, the hyperperiod)
    is computed once here, and the speed-dependent horizon, step-point
    sets and QPA verdicts are memoized per query.  A profile lives in
    the :data:`ProfileMemo` of the call that reuses it, and dies with
    it.  All sums go through ``math.fsum`` (exactly rounded,
    order-independent), so memoized answers are bit-identical to the
    formulas they replace.
    """

    __slots__ = (
        "tasks",
        "steps",
        "d_min",
        "d_max",
        "total_u",
        "slack_numerator",
        "_hyperperiod",
        "_hyperperiod_ready",
        "_horizons",
        "_points",
        "_qpa",
    )

    def __init__(self, tasks: tuple[Task, ...]):
        self.tasks = tasks
        #: ``(deadline, period)`` per task: the dbf step grid QPA walks
        self.steps = tuple((t.deadline, t.period) for t in tasks)
        self.d_min = min(t.deadline for t in tasks)
        self.d_max = max(t.deadline for t in tasks)
        self.total_u = math.fsum(t.utilization for t in tasks)
        # B == 0 means every deadline >= its period (see horizon()).
        self.slack_numerator = math.fsum(
            max(0.0, t.period - t.deadline) * t.utilization for t in tasks
        )
        self._hyperperiod: float | None = None
        self._hyperperiod_ready = False
        self._horizons: dict[float, float | None] = {}
        self._points: dict[tuple[float, int], list[float]] = {}
        self._qpa: dict[float, bool] = {}

    def dbf(self, t: float) -> float:
        """Total demand bound at interval length ``t``: the exactly
        rounded sum of the scalar :func:`dbf` over the tasks.

        One definition serves every caller, so there is nothing to keep
        bit-identical with.  Per call this costs ~1 µs per task, against
        9-19 µs for a numpy walk over parameter arrays at any size up to
        64 tasks (2-vCPU host): the walk only wins past ~16 tasks.  E22
        quick makes 136 k calls on profiles of 1-13 tasks, 99.9% of them
        at 11 or fewer, so no size selector earns its branch.  It also
        keeps numpy out of every process that only runs scalar tests.
        """
        return math.fsum([dbf(task, t) for task in self.tasks])

    def hyperperiod(self) -> float | None:
        if not self._hyperperiod_ready:
            self._hyperperiod = _rational_hyperperiod(
                [t.period for t in self.tasks]
            )
            self._hyperperiod_ready = True
        return self._hyperperiod

    def horizon(self, speed: float) -> float | None:
        """Memoized :func:`demand_bound_horizon` for this task set."""
        if speed in self._horizons:
            return self._horizons[speed]
        result = self._horizon(speed)
        self._horizons[speed] = result
        return result

    def _horizon(self, speed: float) -> float | None:
        if self.total_u > speed * (1.0 + EPS):
            return None
        if leq(self.slack_numerator, 0.0):
            return self.d_max
        slack = speed - self.total_u
        la = self.slack_numerator / slack if slack > EPS * speed else math.inf
        hp = self.hyperperiod()
        hp_bound = hp if hp is not None else math.inf
        bound = min(la, hp_bound)
        if math.isinf(bound):
            return None  # degenerate: conservative rejection (see docstring)
        return max(self.d_max, bound)

    def points(self, horizon: float, max_points: int) -> list[float]:
        """Memoized sorted dbf step points in ``(0, horizon]``."""
        key = (horizon, max_points)
        if key not in self._points:
            self._points[key] = demand_points(
                self.tasks, horizon, max_points=max_points
            )
        return self._points[key]


#: Demand profiles one call reuses, keyed by the name-free ``(wcet,
#: period, deadline)`` triples of each candidate set (names do not affect
#: the mathematics).  The call that probes the same sets repeatedly — one
#: partitioning run, or one oracle check walking a set across speeds —
#: owns the dict and hands it down; the profiles die with it.
ProfileMemo = dict[tuple[tuple[float, float, float], ...], _DemandProfile]

_PROFILE_HITS = 0
_PROFILE_MISSES = 0


@dataclass(frozen=True)
class ProfileCacheStats:
    """Snapshot of the demand-profile lookup counters.

    A hit is a profile found in the caller's memo; a miss is one built,
    whether for a memo or for a standalone call.
    """

    hits: int
    misses: int

    @property
    def hit_ratio(self) -> float:
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0


def profile_cache_stats() -> ProfileCacheStats:
    """Current demand-profile lookup counters (per process)."""
    return ProfileCacheStats(hits=_PROFILE_HITS, misses=_PROFILE_MISSES)


def reset_profile_cache() -> None:
    """Zero the lookup counters (test and benchmark isolation)."""
    global _PROFILE_HITS, _PROFILE_MISSES
    _PROFILE_HITS = _PROFILE_MISSES = 0


def _profile(tasks: tuple[Task, ...], memo: ProfileMemo | None) -> _DemandProfile:
    """The profile of ``tasks`` from ``memo``, built (and stored there)
    on a miss; without a memo it is built for the one call."""
    global _PROFILE_HITS, _PROFILE_MISSES
    key = tuple((t.wcet, t.period, t.deadline) for t in tasks)
    if memo is not None:
        prof = memo.get(key)
        if prof is not None:
            _PROFILE_HITS += 1
            return prof
    _PROFILE_MISSES += 1
    prof = _DemandProfile(tasks)
    if memo is not None:
        memo[key] = prof
    return prof


def demand_bound_horizon(tasks: Sequence[Task], speed: float) -> float | None:
    """A finite check horizon for the processor-demand criterion.

    Two valid bounds are combined (the smaller wins):

    * ``L_a = sum_i max(0, p_i - d_i) u_i / (speed - U)`` — beyond it the
      linear upper bound on dbf sits below ``speed * t`` (needs slack);
    * the hyperperiod ``H`` — ``dbf(t) - speed*t`` cannot attain a new
      maximum after one hyperperiod when ``U <= speed``, so a violation
      anywhere implies one in ``(0, H]``.

    Returns None when the set is trivially infeasible (``U > speed``) —
    or, *conservatively*, in the degenerate case ``U == speed`` with
    constrained deadlines and an uncomputable hyperperiod (irrational or
    astronomically large periods): there the test errs on rejection.
    """
    if not tasks:
        raise ValueError("demand_bound_horizon needs a non-empty task set")
    return _profile(tuple(tasks), None).horizon(speed)


def demand_points(
    tasks: Sequence[Task], horizon: float, *, max_points: int = 1_000_000
) -> list[float]:
    """All dbf step points (``d_i + k p_i``) in ``(0, horizon]``, sorted.

    Raises
    ------
    RuntimeError
        if the point set would exceed ``max_points`` (pick QPA instead).
    """
    points: set[float] = set()
    for task in tasks:
        # step points are generated multiplicatively (d + k*p), not by a
        # running t += p: the additive walk accretes one rounding error
        # per step and can drift off the true grid over long horizons
        count = 0
        t = task.deadline
        while leq(t, horizon):
            points.add(t)
            count += 1
            t = task.deadline + count * task.period
            if len(points) > max_points:
                raise RuntimeError(
                    f"more than {max_points} demand points up to {horizon}; "
                    "use qpa_edf_feasible"
                )
    return sorted(points)


def edf_demand_feasible(
    tasks: Sequence[Task], speed: float = 1.0, *, max_points: int = 1_000_000
) -> bool:
    """Exact EDF test by exhaustive processor-demand checking.

    Reference implementation (clear, slower); :func:`qpa_edf_feasible`
    is the production variant.  Both must agree — the suite enforces it.
    """
    if speed <= 0:
        raise ValueError("speed must be positive")
    if not tasks:
        return True
    prof = _profile(tuple(tasks), None)
    horizon = prof.horizon(speed)
    if horizon is None:
        return False
    for t in prof.points(horizon, max_points):
        if not leq(prof.dbf(t), speed * t):
            return False
    return True


def qpa_edf_feasible(
    tasks: Sequence[Task],
    speed: float = 1.0,
    *,
    memo: ProfileMemo | None = None,
) -> bool:
    """Zhang & Burns' Quick Processor-demand Analysis on a speed-``s``
    machine.

    Iterates ``t <- h(t)`` (where ``h(t) = dbf(t)/s``) downward from just
    below the ``L_a`` bound, jumping to the next lower deadline at fixed
    points; the set is schedulable iff the iteration exits below the
    smallest deadline without finding ``h(t) > t``.

    A caller that probes one set at several speeds passes a ``memo``;
    the set's profile and per-speed verdicts are then built once.
    """
    if speed <= 0:
        raise ValueError("speed must be positive")
    if not tasks:
        return True
    prof = _profile(tuple(tasks), memo)
    verdict = prof._qpa.get(speed)
    if verdict is None:
        verdict = prof._qpa[speed] = _qpa_uncached(prof, speed)
    return verdict


def _qpa_uncached(prof: _DemandProfile, speed: float) -> bool:
    horizon = prof.horizon(speed)
    if horizon is None:
        return False
    d_min = prof.d_min
    step_params = prof.steps

    def largest_deadline_below(x: float) -> float:
        best = 0.0
        for deadline, period in step_params:
            if lt(deadline, x):
                # largest step point d + k p strictly below x; tol_floor
                # may land on or past x at an exact crossover, so walk k
                # down until the point is tolerantly below
                k = tol_floor((x - deadline) / period)
                k = max(0, k)
                cand = deadline + k * period
                while not lt(cand, x) and k > 0:
                    k -= 1
                    cand = deadline + k * period
                if lt(cand, x):
                    best = max(best, cand)
        return best

    # Canonical QPA loop (Zhang & Burns 2009, Alg. 1), with h(t) =
    # dbf(t)/speed:
    #   t = max{step point < L}
    #   while h(t) <= t and h(t) > d_min:
    #       t = h(t)                 if h(t) < t
    #       t = max{step point < t}  otherwise
    #   feasible iff h(t) <= d_min
    t = largest_deadline_below(horizon * (1.0 + EPS))
    if t <= 0:
        return True
    guard = 0
    max_iter = 1_000_000
    h = prof.dbf(t) / speed
    while leq(h, t) and h > d_min + EPS * max(1.0, d_min):
        guard += 1
        if guard > max_iter:  # pragma: no cover - convergence safety net
            return edf_demand_feasible(prof.tasks, speed)
        if h < t * (1.0 - EPS):
            t = h
        else:
            t = largest_deadline_below(t)
            if t <= 0:
                return True
        h = prof.dbf(t) / speed
    return leq(h, d_min)


class _DBFState(MachineState):
    __slots__ = ("_tasks", "_load", "_memo")

    def __init__(self, speed: float, memo: ProfileMemo | None = None):
        super().__init__(speed)
        self._tasks: list[Task] = []
        self._load = _NeumaierSum()
        self._memo = memo

    def admits(self, task: Task) -> bool:
        return qpa_edf_feasible(
            self._tasks + [task], self.speed, memo=self._memo
        )

    def add(self, task: Task) -> None:
        self._tasks.append(task)
        self._load.add(task.utilization)

    @property
    def load(self) -> float:
        return self._load.total

    @property
    def count(self) -> int:
        return len(self._tasks)


class EDFDemandBoundTest(AdmissionTest):
    """Exact EDF admission for constrained/arbitrary deadlines (QPA).

    Plugs into :func:`repro.core.partition.partition` like any admission
    test; for implicit-deadline sets it agrees exactly with the paper's
    utilization test (property-tested).  Pseudo-polynomial per probe.
    The machine states of one partitioning run share one
    :data:`ProfileMemo`, so a candidate set probed on machines of
    different speeds has its demand profile built once; the memo dies
    with the run.
    """

    name = "edf-dbf"

    def open(self, speed: float) -> MachineState:
        return _DBFState(speed)

    def open_machines(self, speeds: Sequence[float]) -> list[MachineState]:
        memo: ProfileMemo = {}
        return [_DBFState(speed, memo) for speed in speeds]

    def feasible(self, tasks: Sequence[Task], speed: float) -> bool:
        return qpa_edf_feasible(tasks, speed)


# Make "edf-dbf" resolvable by name in the partitioner, like the built-ins.
from .bounds import ADMISSION_TESTS as _REGISTRY  # noqa: E402

_REGISTRY.setdefault("edf-dbf", EDFDemandBoundTest())
