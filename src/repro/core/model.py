"""Task, task-set, machine and platform models.

The paper's setting (§II): a sporadic implicit-deadline task set
``tau_1 .. tau_n`` where task ``tau_i`` releases jobs with worst-case
execution requirement ``c_i`` (work, measured on a unit-speed machine) at
least ``p_i`` time units apart; each job must finish within ``p_i`` of its
release.  Tasks are scheduled on ``m`` *related* (uniform) machines with
speeds ``s_1 <= ... <= s_m``: a machine of speed ``s`` performs ``s`` units
of work per unit of time.

The central derived quantity is the *utilization* ``w_i = c_i / p_i`` of a
task: the long-run fraction of a unit-speed machine the task demands.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

__all__ = [
    "EPS",
    "leq",
    "geq",
    "lt",
    "close",
    "tol_floor",
    "Task",
    "TaskSet",
    "Machine",
    "Platform",
]

#: Relative tolerance used in every feasibility comparison in the library.
#: Schedulability conditions are closed inequalities (``<=``); floating
#: point noise must not flip a boundary instance, so all comparisons go
#: through :func:`leq` / :func:`geq`.
EPS: float = 1e-9


def leq(a: float, b: float, *, eps: float = EPS) -> bool:
    """Tolerant ``a <= b`` (relative to magnitude, absolute near zero)."""
    # the tolerance helper itself is the one place a bare <= is the point
    return a <= b + eps * max(1.0, abs(a), abs(b))  # repro: noqa[REP001]


def geq(a: float, b: float, *, eps: float = EPS) -> bool:
    """Tolerant ``a >= b``."""
    return leq(b, a, eps=eps)


def lt(a: float, b: float, *, eps: float = EPS) -> bool:
    """Tolerant strict ``a < b`` — the negation of :func:`geq`.

    True only when ``a`` is below ``b`` by more than the scale-aware
    tolerance, so a boundary pair (``a`` within noise of ``b``) counts as
    *not* less.  Use this for open-interval gates (e.g. "no job of the
    task fits in an interval shorter than its deadline") where the closed
    side must win at the boundary.
    """
    return not leq(b, a, eps=eps)


def close(a: float, b: float, *, eps: float = EPS) -> bool:
    """Tolerant equality."""
    return leq(a, b, eps=eps) and leq(b, a, eps=eps)


def tol_floor(x: float, *, eps: float = EPS) -> float:
    """``floor`` with scale-aware snap-up at integer boundaries.

    ``math.floor(q + EPS)`` (the pre-PR-8 idiom) stops rescuing exact
    integers once ``|q|`` is large enough that the division error
    exceeds the absolute constant; scaling the nudge by
    ``max(1, |x|)`` keeps the rescue working at every magnitude while
    still never rounding a genuinely interior value up.
    """
    return math.floor(x + eps * max(1.0, abs(x)))


@dataclass(frozen=True, slots=True)
class Task:
    """A sporadic task.

    The paper's model is *implicit-deadline* (each job is due one period
    after release) — that is the default here and what the four theorem
    tests require.  An explicit ``deadline`` different from the period is
    supported for the constrained/arbitrary-deadline extensions
    (:mod:`repro.core.dbf`) and the simulator.

    Parameters
    ----------
    wcet:
        Worst-case execution requirement ``c_i`` of each job, expressed as
        work on a unit-speed machine.  Must be positive.
    period:
        Minimum inter-release separation ``p_i``.  Must be positive.
    name:
        Optional human-readable label.
    deadline:
        Relative deadline; ``None`` (default) means implicit (= period).
    """

    wcet: float
    period: float
    name: str = ""
    deadline: float = None  # type: ignore[assignment]  # normalized below

    def __post_init__(self) -> None:
        if not (self.wcet > 0 and math.isfinite(self.wcet)):
            raise ValueError(f"wcet must be positive and finite, got {self.wcet}")
        if not (self.period > 0 and math.isfinite(self.period)):
            raise ValueError(f"period must be positive and finite, got {self.period}")
        if self.deadline is None:
            object.__setattr__(self, "deadline", self.period)
        elif not (self.deadline > 0 and math.isfinite(self.deadline)):
            raise ValueError(
                f"deadline must be positive and finite, got {self.deadline}"
            )

    @property
    def utilization(self) -> float:
        """``w_i = c_i / p_i`` — demand as a fraction of a unit-speed machine."""
        return self.wcet / self.period

    @property
    def density(self) -> float:
        """``c_i / min(d_i, p_i)`` — the constrained-deadline analogue of
        utilization (equals it for implicit deadlines)."""
        return self.wcet / min(self.deadline, self.period)

    @property
    def is_implicit(self) -> bool:
        """Does the deadline equal the period (the paper's model)?"""
        # exact equality is intentional: both fields come from the same
        # construction (from_utilization copies period into deadline), so
        # this is a structural predicate, not an arithmetic comparison
        return self.deadline == self.period  # repro: noqa[REP001]

    @classmethod
    def from_utilization(
        cls, utilization: float, period: float, name: str = ""
    ) -> "Task":
        """Build an implicit-deadline task with the given utilization."""
        if not (utilization > 0 and math.isfinite(utilization)):
            raise ValueError(f"utilization must be positive, got {utilization}")
        return cls(wcet=utilization * period, period=period, name=name)

    def scaled(self, factor: float) -> "Task":
        """Return a copy whose wcet (hence utilization) is scaled by ``factor``."""
        return Task(
            wcet=self.wcet * factor,
            period=self.period,
            name=self.name,
            deadline=self.deadline,
        )


class TaskSet(Sequence[Task]):
    """An immutable ordered collection of :class:`Task`.

    Indexing is positional and stable: all partitioning and LP code refers
    to tasks by their index in the task set.
    """

    __slots__ = ("_tasks", "__weakref__")  # weakref: kernel buffer entries

    def __init__(self, tasks: Iterable[Task]):
        self._tasks: tuple[Task, ...] = tuple(tasks)
        for t in self._tasks:
            if not isinstance(t, Task):
                raise TypeError(f"TaskSet items must be Task, got {type(t)!r}")

    # -- Sequence protocol -------------------------------------------------
    def __len__(self) -> int:
        return len(self._tasks)

    def __iter__(self) -> Iterator[Task]:
        return iter(self._tasks)

    def __getitem__(self, index):  # type: ignore[override]
        if isinstance(index, slice):
            return TaskSet(self._tasks[index])
        return self._tasks[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TaskSet):
            return NotImplemented
        return self._tasks == other._tasks

    def __hash__(self) -> int:
        return hash(self._tasks)

    def __repr__(self) -> str:
        return (
            f"TaskSet(n={len(self)}, total_utilization="
            f"{self.total_utilization:.4f})"
        )

    # -- Aggregates ---------------------------------------------------------
    @property
    def tasks(self) -> tuple[Task, ...]:
        return self._tasks

    @property
    def total_utilization(self) -> float:
        """``sum_i w_i``."""
        return math.fsum(t.utilization for t in self._tasks)

    @property
    def max_utilization(self) -> float:
        """``max_i w_i`` (0 for an empty set)."""
        return max((t.utilization for t in self._tasks), default=0.0)

    @property
    def utilizations(self) -> tuple[float, ...]:
        return tuple(t.utilization for t in self._tasks)

    @property
    def total_density(self) -> float:
        """``sum_i c_i / min(d_i, p_i)`` (equals total utilization when
        all deadlines are implicit)."""
        return math.fsum(t.density for t in self._tasks)

    @property
    def is_implicit(self) -> bool:
        """Do all tasks have implicit deadlines (the paper's model)?"""
        return all(t.is_implicit for t in self._tasks)

    @property
    def periods(self) -> tuple[float, ...]:
        return tuple(t.period for t in self._tasks)

    # -- Transformations ----------------------------------------------------
    def sorted_by_utilization(self, *, descending: bool = True) -> "TaskSet":
        """Tasks reordered by utilization (paper's algorithm sorts descending).

        Ties are broken by original position, making the order deterministic.
        """
        order = self.order_by_utilization(descending=descending)
        return TaskSet(self._tasks[i] for i in order)

    def order_by_utilization(self, *, descending: bool = True) -> list[int]:
        """Indices of tasks sorted by utilization, stable on ties."""
        idx = list(range(len(self._tasks)))
        idx.sort(key=lambda i: self._tasks[i].utilization, reverse=descending)
        return idx

    def scaled(self, factor: float) -> "TaskSet":
        """Scale every task's wcet by ``factor``."""
        return TaskSet(t.scaled(factor) for t in self._tasks)

    def subset(self, indices: Iterable[int]) -> "TaskSet":
        """Tasks at the given positions, in the given order."""
        return TaskSet(self._tasks[i] for i in indices)

    def without(self, index: int) -> "TaskSet":
        """Copy with the task at ``index`` removed."""
        n = len(self._tasks)
        if not -n <= index < n:
            raise IndexError(index)
        index %= n
        return TaskSet(self._tasks[:index] + self._tasks[index + 1 :])

    def extended(self, extra: Iterable[Task]) -> "TaskSet":
        """Copy with ``extra`` tasks appended."""
        return TaskSet(self._tasks + tuple(extra))


@dataclass(frozen=True, slots=True)
class Machine:
    """A single machine of the related-machines platform."""

    speed: float
    name: str = ""

    def __post_init__(self) -> None:
        if not (self.speed > 0 and math.isfinite(self.speed)):
            raise ValueError(f"speed must be positive and finite, got {self.speed}")


class Platform(Sequence[Machine]):
    """An ordered set of related machines.

    Machines are stored **sorted by non-decreasing speed** — the order the
    paper's first-fit algorithm consumes them in (§III step 2).  Indexing
    is positional within that sorted order.
    """

    __slots__ = ("_machines",)

    def __init__(self, machines: Iterable[Machine]):
        ms = tuple(machines)
        for m in ms:
            if not isinstance(m, Machine):
                raise TypeError(f"Platform items must be Machine, got {type(m)!r}")
        if len(ms) == 0:
            raise ValueError("Platform needs at least one machine")
        self._machines: tuple[Machine, ...] = tuple(
            sorted(ms, key=lambda m: m.speed)
        )

    # -- Sequence protocol -------------------------------------------------
    def __len__(self) -> int:
        return len(self._machines)

    def __iter__(self) -> Iterator[Machine]:
        return iter(self._machines)

    def __getitem__(self, index):  # type: ignore[override]
        if isinstance(index, slice):
            return Platform(self._machines[index])
        return self._machines[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Platform):
            return NotImplemented
        return self._machines == other._machines

    def __hash__(self) -> int:
        return hash(self._machines)

    def __repr__(self) -> str:
        return f"Platform(m={len(self)}, speeds={[round(s, 4) for s in self.speeds]})"

    # -- Aggregates ---------------------------------------------------------
    @property
    def machines(self) -> tuple[Machine, ...]:
        return self._machines

    @property
    def speeds(self) -> tuple[float, ...]:
        """Machine speeds in non-decreasing order."""
        return tuple(m.speed for m in self._machines)

    @property
    def total_speed(self) -> float:
        """Aggregate capacity ``sum_j s_j``."""
        return math.fsum(m.speed for m in self._machines)

    @property
    def fastest_speed(self) -> float:
        return self._machines[-1].speed

    @property
    def slowest_speed(self) -> float:
        return self._machines[0].speed

    @property
    def heterogeneity_ratio(self) -> float:
        """``s_max / s_min`` — 1.0 for identical machines."""
        return self.fastest_speed / self.slowest_speed

    # -- Constructors ---------------------------------------------------------
    @classmethod
    def identical(cls, m: int, speed: float = 1.0) -> "Platform":
        """``m`` machines of equal speed."""
        if m < 1:
            raise ValueError("need at least one machine")
        return cls(Machine(speed, name=f"m{j}") for j in range(m))

    @classmethod
    def from_speeds(cls, speeds: Iterable[float]) -> "Platform":
        """Platform with the given speeds (any order; stored sorted)."""
        return cls(Machine(s, name=f"m{j}") for j, s in enumerate(speeds))

    def scaled(self, alpha: float) -> "Platform":
        """Platform with every speed multiplied by ``alpha`` (speed augmentation)."""
        if alpha <= 0:
            raise ValueError("alpha must be positive")
        return Platform(
            Machine(m.speed * alpha, name=m.name) for m in self._machines
        )
