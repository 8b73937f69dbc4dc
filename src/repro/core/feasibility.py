"""The paper's four approximate feasibility tests (Theorems I.1–I.4).

An *alpha-approximate feasibility test* answers:

* **accepted** — the task set is schedulable (by the stated partitioned
  scheduler) on machines running ``alpha`` times faster than specified;
  the returned partition, with EDF/RMS per machine, is a witness.
* **rejected** — *no* scheduler of the adversary class can meet all
  deadlines on the machines at their original speeds.

The scheduler/adversary combinations and their alphas:

==========  ============  ===========================  ======
Theorem     per-machine   adversary                    alpha
==========  ============  ===========================  ======
I.1         EDF           partitioned (any per-mach.)  2
I.2         RMS (LL)      partitioned                  1+sqrt2
I.3         EDF           any (the §II LP)             2.98
I.4         RMS (LL)      any (the §II LP)             3.34
==========  ============  ===========================  ======

All four run the same §III first-fit algorithm, differing only in the
admission test and speed augmentation.  On rejection versus a partitioned
adversary, the report carries an independently checkable
:class:`~repro.core.certificates.FailureCertificate`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

from .certificates import (
    FailureCertificate,
    partitioned_infeasibility_certificate,
)
from .constants import (
    ALPHA_EDF_LP,
    ALPHA_EDF_PARTITIONED,
    ALPHA_RMS_LP,
    ALPHA_RMS_PARTITIONED,
)
from .model import Platform, TaskSet
from .partition import PartitionResult, first_fit_partition

__all__ = [
    "Scheduler",
    "Adversary",
    "theorem_alpha",
    "FeasibilityReport",
    "feasibility_test",
    "edf_test_vs_partitioned",
    "edf_test_vs_any",
    "rms_test_vs_partitioned",
    "rms_test_vs_any",
]

Scheduler = Literal["edf", "rms"]
Adversary = Literal["partitioned", "any"]

_ALPHAS: dict[tuple[Scheduler, Adversary], tuple[float, str]] = {
    ("edf", "partitioned"): (ALPHA_EDF_PARTITIONED, "I.1"),
    ("rms", "partitioned"): (ALPHA_RMS_PARTITIONED, "I.2"),
    ("edf", "any"): (ALPHA_EDF_LP, "I.3"),
    ("rms", "any"): (ALPHA_RMS_LP, "I.4"),
}

_TEST_NAME: dict[Scheduler, str] = {"edf": "edf", "rms": "rms-ll"}


def theorem_alpha(scheduler: Scheduler, adversary: Adversary) -> float:
    """The speed augmentation proved sufficient for the combination."""
    try:
        return _ALPHAS[(scheduler, adversary)][0]
    except KeyError:
        raise ValueError(
            f"unknown combination scheduler={scheduler!r} adversary={adversary!r}"
        ) from None


@dataclass(frozen=True)
class FeasibilityReport:
    """Outcome of one approximate feasibility test."""

    accepted: bool
    scheduler: Scheduler
    adversary: Adversary
    alpha: float
    theorem: str
    partition: PartitionResult
    #: partitioned-infeasibility evidence (rejections only; always built,
    #: but only guaranteed to certify at the partitioned-adversary alphas)
    certificate: FailureCertificate | None

    @property
    def guarantee(self) -> str:
        """Human-readable statement of what the verdict proves."""
        if self.accepted:
            return (
                f"schedulable: the returned partition meets all deadlines with "
                f"{self.scheduler.upper()} per machine once each machine runs "
                f"{self.alpha:g}x faster (Theorem {self.theorem})"
            )
        who = (
            "no partitioned scheduler"
            if self.adversary == "partitioned"
            else "no scheduler at all (even migratory)"
        )
        return (
            f"infeasible: {who} can meet all deadlines on the machines at "
            f"their original speeds (Theorem {self.theorem})"
        )


#: The error every theorem entry point raises on a constrained task set —
#: one string, so service error bodies cannot drift between the scalar
#: and kernel paths.
_IMPLICIT_ERROR = (
    "the theorem tests require implicit deadlines (the paper's model); "
    "for constrained deadlines partition with the 'edf-dbf' admission "
    "test instead"
)


def feasibility_test(
    taskset: TaskSet,
    platform: Platform,
    scheduler: Scheduler = "edf",
    adversary: Adversary = "partitioned",
    *,
    alpha: float | None = None,
) -> FeasibilityReport:
    """Run the §III first-fit test for the given theorem configuration.

    Parameters
    ----------
    alpha:
        Override the speed augmentation (defaults to the theorem's value).
        The approximation guarantee only holds at or above the theorem's
        alpha; smaller values are useful for empirical-ratio experiments.
    """
    if not taskset.is_implicit:
        raise ValueError(_IMPLICIT_ERROR)
    a, theorem = _ALPHAS[(scheduler, adversary)]
    if alpha is not None:
        if alpha <= 0:
            raise ValueError("alpha must be positive")
        a = alpha
    return _first_fit_report(taskset, platform, scheduler, adversary, a, theorem)


def _first_fit_report(
    taskset: TaskSet,
    platform: Platform,
    scheduler: Scheduler,
    adversary: Adversary,
    alpha: float,
    theorem: str,
) -> FeasibilityReport:
    """:func:`feasibility_test` past its checks: ``taskset`` is implicit
    and ``alpha`` is the resolved augmentation.  The batch kernels'
    ``scalar`` backend runs it per instance, having checked the whole
    batch first."""
    result = first_fit_partition(
        taskset, platform, _TEST_NAME[scheduler], alpha=alpha
    )
    certificate: FailureCertificate | None = None
    if not result.success:
        certificate = partitioned_infeasibility_certificate(
            taskset, platform, result
        )
    return FeasibilityReport(
        accepted=result.success,
        scheduler=scheduler,
        adversary=adversary,
        alpha=alpha,
        theorem=theorem,
        partition=result,
        certificate=certificate,
    )


def edf_test_vs_partitioned(
    taskset: TaskSet, platform: Platform
) -> FeasibilityReport:
    """Theorem I.1: 2-approximate EDF test vs a partitioned adversary."""
    return feasibility_test(taskset, platform, "edf", "partitioned")


def edf_test_vs_any(taskset: TaskSet, platform: Platform) -> FeasibilityReport:
    """Theorem I.3: 2.98-approximate EDF test vs any adversary."""
    return feasibility_test(taskset, platform, "edf", "any")


def rms_test_vs_partitioned(
    taskset: TaskSet, platform: Platform
) -> FeasibilityReport:
    """Theorem I.2: (1+sqrt2)-approximate RMS test vs a partitioned adversary."""
    return feasibility_test(taskset, platform, "rms", "partitioned")


def rms_test_vs_any(taskset: TaskSet, platform: Platform) -> FeasibilityReport:
    """Theorem I.4: 3.34-approximate RMS test vs any adversary."""
    return feasibility_test(taskset, platform, "rms", "any")
