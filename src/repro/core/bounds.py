"""Single-machine schedulability tests and admission-test objects.

The paper's algorithm (§III) assigns a task to the first machine that
passes a *single-machine feasibility test* with the machine's (speed-
augmented) speed:

* EDF (Theorem II.2, Liu & Layland): a set ``S`` is schedulable on a
  speed-``s`` machine iff ``sum_{i in S} w_i <= s``.  For implicit
  deadlines this utilization test is exact.
* RMS (Theorem II.3, Liu & Layland): ``S`` is schedulable if
  ``sum_{i in S} w_i <= |S| (2^{1/|S|} - 1) s``; the bound decreases to
  ``ln 2`` as ``|S| -> inf``.  This test is sufficient, not necessary.

Beyond the paper we also provide the hyperbolic bound (Bini & Buttazzo)
and exact response-time analysis (:mod:`repro.core.rta`) so the exact
partitioned-RMS adversary and the pessimism study (experiment E3) can be
built.

Admission tests are exposed in two forms:

* plain functions ``*_feasible(tasks, speed)`` for one-shot checks, and
* :class:`AdmissionTest` objects that keep per-machine incremental state,
  which is what makes the first-fit partitioner run in ``O(nm)`` overall
  for the O(1)-state tests, matching the paper's complexity claim.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from importlib import import_module
from typing import Iterable, Sequence

from .model import Task, leq
from .rta import rms_response_times

__all__ = [
    "liu_layland_bound",
    "edf_utilization_feasible",
    "rms_liu_layland_feasible",
    "rms_hyperbolic_feasible",
    "rms_rta_feasible",
    "MachineState",
    "AdmissionTest",
    "EDFUtilizationTest",
    "RMSLiuLaylandTest",
    "RMSHyperbolicTest",
    "RMSResponseTimeTest",
    "admission_test",
    "ADMISSION_TESTS",
    "ADMISSION_TEST_MODULES",
    "ADMISSION_TEST_NAMES",
]

LN2 = math.log(2.0)


def liu_layland_bound(n: int) -> float:
    """The Liu–Layland RMS utilization bound ``n (2^{1/n} - 1)``.

    ``liu_layland_bound(1) == 1``; the bound decreases monotonically to
    ``ln 2 ~= 0.6931`` as ``n`` grows.  ``n == 0`` returns 1.0 (an empty
    machine accepts anything that fits alone).
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if n == 0:
        return 1.0
    return n * (2.0 ** (1.0 / n) - 1.0)


def _total_utilization(tasks: Iterable[Task]) -> float:
    return math.fsum(t.utilization for t in tasks)


def edf_utilization_feasible(tasks: Sequence[Task], speed: float) -> bool:
    """Theorem II.2: EDF schedules ``tasks`` on a speed-``speed`` machine
    iff their total utilization is at most ``speed`` (exact test)."""
    return leq(_total_utilization(tasks), speed)


def rms_liu_layland_feasible(tasks: Sequence[Task], speed: float) -> bool:
    """Theorem II.3: sufficient RMS test ``sum w_i <= n (2^{1/n}-1) s``."""
    n = len(tasks)
    if n == 0:
        return True
    return leq(_total_utilization(tasks), liu_layland_bound(n) * speed)


def rms_hyperbolic_feasible(tasks: Sequence[Task], speed: float) -> bool:
    """Bini–Buttazzo hyperbolic bound: ``prod (w_i/s + 1) <= 2``.

    Sufficient for RMS; strictly dominates the Liu–Layland bound (accepts
    every LL-accepted set and more).  Not part of the paper's algorithm —
    used for the pessimism study (E3).

    The early exit uses the same relative-tolerance :func:`leq` as the
    final verdict: the factors are all >= 1, so once a partial product
    fails ``leq(prod, 2.0)`` the full product fails it too, and the exit
    can never flip a verdict the complete product would accept.
    """
    prod = 1.0
    for t in tasks:
        prod *= t.utilization / speed + 1.0
        if not leq(prod, 2.0):
            return False
    return True


def rms_rta_feasible(tasks: Sequence[Task], speed: float) -> bool:
    """Exact RMS test via response-time analysis (implicit deadlines,
    preemptive, rate-monotonic priorities)."""
    return rms_response_times(tasks, speed) is not None


# ---------------------------------------------------------------------------
# Incremental admission tests for the partitioner
# ---------------------------------------------------------------------------


class _NeumaierSum:
    """Compensated (Neumaier) accumulator for per-machine load.

    The one-shot set tests sum utilizations with ``math.fsum``; if the
    incremental states accumulated with plain ``+=`` the two paths could
    drift apart by enough floating-point noise to flip a verdict on a
    boundary instance — the partitioner would then accept a set that
    ``verify_partition`` rejects (or vice versa).  Neumaier summation
    keeps the running total within one rounding of the exact sum, far
    inside the :data:`~repro.core.model.EPS` comparison tolerance, so the
    incremental and one-shot verdicts always agree.
    """

    __slots__ = ("_sum", "_comp")

    def __init__(self) -> None:
        self._sum = 0.0
        self._comp = 0.0

    def add(self, x: float) -> None:
        # the compensated accumulator is the primitive REP004 points at;
        # its own error-term updates are the one legitimate bare +=
        s = self._sum + x
        if abs(self._sum) >= abs(x):
            self._comp += (self._sum - s) + x  # repro: noqa[REP004]
        else:
            self._comp += (x - s) + self._sum  # repro: noqa[REP004]
        self._sum = s

    def peek(self, x: float) -> float:
        """The compensated total if ``x`` were added (state unchanged)."""
        s = self._sum + x
        if abs(self._sum) >= abs(x):
            comp = self._comp + ((self._sum - s) + x)
        else:
            comp = self._comp + ((x - s) + self._sum)
        return s + comp

    @property
    def total(self) -> float:
        return self._sum + self._comp


class MachineState(ABC):
    """Incremental per-machine schedulability state.

    One state is opened per machine with the machine's *effective*
    (possibly speed-augmented) speed; the partitioner asks :meth:`admits`
    for each candidate and calls :meth:`add` when it assigns a task.
    """

    __slots__ = ("speed",)

    def __init__(self, speed: float):
        if speed <= 0:
            raise ValueError("machine speed must be positive")
        self.speed = speed

    @abstractmethod
    def admits(self, task: Task) -> bool:
        """Would the machine remain schedulable with ``task`` added?"""

    @abstractmethod
    def add(self, task: Task) -> None:
        """Commit ``task`` to the machine.  Caller checks :meth:`admits` first."""

    @property
    @abstractmethod
    def load(self) -> float:
        """Total utilization currently assigned."""

    @property
    @abstractmethod
    def count(self) -> int:
        """Number of tasks currently assigned."""


class AdmissionTest(ABC):
    """Factory for :class:`MachineState`, plus a one-shot set test."""

    #: short identifier used in results/CLI
    name: str = ""

    @abstractmethod
    def open(self, speed: float) -> MachineState:
        """New empty machine state for a machine of effective speed ``speed``."""

    def open_machines(self, speeds: Sequence[float]) -> list[MachineState]:
        """One empty state per effective speed, for one partitioning run.

        A test whose probes can share work across the machines of a run
        overrides this to hand its states one memo that lives as long as
        the run; by default each state is opened on its own.
        """
        return [self.open(speed) for speed in speeds]

    @abstractmethod
    def feasible(self, tasks: Sequence[Task], speed: float) -> bool:
        """One-shot test of a complete set on a speed-``speed`` machine."""


class _EDFState(MachineState):
    __slots__ = ("_load", "_count")

    def __init__(self, speed: float):
        super().__init__(speed)
        self._load = _NeumaierSum()
        self._count = 0

    def admits(self, task: Task) -> bool:
        return leq(self._load.peek(task.utilization), self.speed)

    def add(self, task: Task) -> None:
        self._load.add(task.utilization)
        self._count += 1

    @property
    def load(self) -> float:
        return self._load.total

    @property
    def count(self) -> int:
        return self._count


class EDFUtilizationTest(AdmissionTest):
    """Theorem II.2 admission: ``load + w <= speed``.  O(1) per query."""

    name = "edf"

    def open(self, speed: float) -> MachineState:
        return _EDFState(speed)

    def feasible(self, tasks: Sequence[Task], speed: float) -> bool:
        return edf_utilization_feasible(tasks, speed)


class _RMSLLState(MachineState):
    __slots__ = ("_load", "_count")

    def __init__(self, speed: float):
        super().__init__(speed)
        self._load = _NeumaierSum()
        self._count = 0

    def admits(self, task: Task) -> bool:
        bound = liu_layland_bound(self._count + 1) * self.speed
        return leq(self._load.peek(task.utilization), bound)

    def add(self, task: Task) -> None:
        self._load.add(task.utilization)
        self._count += 1

    @property
    def load(self) -> float:
        return self._load.total

    @property
    def count(self) -> int:
        return self._count


class RMSLiuLaylandTest(AdmissionTest):
    """Theorem II.3 admission: ``load + w <= (k+1)(2^{1/(k+1)}-1) speed``.

    This is the admission rule the paper's RMS algorithm uses (§III).
    O(1) per query.
    """

    name = "rms-ll"

    def open(self, speed: float) -> MachineState:
        return _RMSLLState(speed)

    def feasible(self, tasks: Sequence[Task], speed: float) -> bool:
        return rms_liu_layland_feasible(tasks, speed)


class _RMSHyperbolicState(MachineState):
    __slots__ = ("_product", "_load", "_count")

    def __init__(self, speed: float):
        super().__init__(speed)
        self._product = 1.0
        self._load = _NeumaierSum()
        self._count = 0

    def admits(self, task: Task) -> bool:
        return leq(self._product * (task.utilization / self.speed + 1.0), 2.0)

    def add(self, task: Task) -> None:
        self._product *= task.utilization / self.speed + 1.0
        self._load.add(task.utilization)
        self._count += 1

    @property
    def load(self) -> float:
        return self._load.total

    @property
    def count(self) -> int:
        return self._count


class RMSHyperbolicTest(AdmissionTest):
    """Hyperbolic-bound admission: ``prod (w_i/s + 1) <= 2``.  O(1) per query."""

    name = "rms-hyperbolic"

    def open(self, speed: float) -> MachineState:
        return _RMSHyperbolicState(speed)

    def feasible(self, tasks: Sequence[Task], speed: float) -> bool:
        return rms_hyperbolic_feasible(tasks, speed)


class _RMSRTAState(MachineState):
    __slots__ = ("_tasks", "_load")

    def __init__(self, speed: float):
        super().__init__(speed)
        self._tasks: list[Task] = []
        self._load = _NeumaierSum()

    def admits(self, task: Task) -> bool:
        return rms_rta_feasible(self._tasks + [task], self.speed)

    def add(self, task: Task) -> None:
        self._tasks.append(task)
        self._load.add(task.utilization)

    @property
    def load(self) -> float:
        return self._load.total

    @property
    def count(self) -> int:
        return len(self._tasks)


class RMSResponseTimeTest(AdmissionTest):
    """Exact RMS admission via response-time analysis.

    Pseudo-polynomial per query (not O(1)); provided for the exact
    partitioned-RMS adversary and the pessimism study, not as part of the
    paper's O(nm) algorithm.
    """

    name = "rms-rta"

    def open(self, speed: float) -> MachineState:
        return _RMSRTAState(speed)

    def feasible(self, tasks: Sequence[Task], speed: float) -> bool:
        return rms_rta_feasible(tasks, speed)


#: Registry of admission tests by name.
ADMISSION_TESTS: dict[str, AdmissionTest] = {
    t.name: t
    for t in (
        EDFUtilizationTest(),
        RMSLiuLaylandTest(),
        RMSHyperbolicTest(),
        RMSResponseTimeTest(),
    )
}


#: Admission tests defined outside this module, each with the module
#: that registers it into :data:`ADMISSION_TESTS` when imported.
#: :func:`admission_test` imports that module on first use, so a name
#: resolves in every process, whatever the process imported before.
ADMISSION_TEST_MODULES: dict[str, str] = {
    "edf-dbf": "repro.core.dbf",
    "edf-dbf-approx": "repro.core.dbf_approx",
    "han-zhao": "repro.baselines.han_zhao",
    "chen-dm": "repro.baselines.chen_fp_dbf",
}

#: Every name :func:`admission_test` resolves without a caller's own
#: registration — the set the service accepts for ``/v1/partition``.
ADMISSION_TEST_NAMES: tuple[str, ...] = tuple(
    sorted({*ADMISSION_TESTS, *ADMISSION_TEST_MODULES})
)


def admission_test(name: str) -> AdmissionTest:
    """Look up an admission test by name (one of
    :data:`ADMISSION_TEST_NAMES`, or any test registered since)."""
    if name not in ADMISSION_TESTS and name in ADMISSION_TEST_MODULES:
        import_module(ADMISSION_TEST_MODULES[name])
    try:
        return ADMISSION_TESTS[name]
    except KeyError:
        known = sorted({*ADMISSION_TESTS, *ADMISSION_TEST_MODULES})
        raise KeyError(f"unknown admission test {name!r}; known: {known}") from None
