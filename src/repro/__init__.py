"""repro — partitioned feasibility tests for sporadic tasks on
heterogeneous (related) machines.

Reproduction of *Ahuja, Lu, Moseley, "Partitioned Feasibility Tests for
Sporadic Tasks on Heterogeneous Machines" (IPPS 2016)*: the §III first-fit
partitioner, the four approximate feasibility tests (Theorems I.1–I.4),
the §II feasibility LP, exact adversaries, a discrete-event schedule
simulator, synthetic workload generators, and the E01–E17, E22 and E23
evaluation suite (19 experiments).

Quickstart::

    from repro import TaskSet, Task, Platform, edf_test_vs_partitioned

    tasks = TaskSet([Task(wcet=2, period=10), Task(wcet=6, period=8)])
    platform = Platform.from_speeds([1.0, 2.0])
    report = edf_test_vs_partitioned(tasks, platform)
    print(report.guarantee)
"""

from typing import TYPE_CHECKING

from ._lazy import lazy_exports

if TYPE_CHECKING:
    from .core import (
        ALPHA_EDF_LP,
        ALPHA_EDF_PARTITIONED,
        ALPHA_RMS_LP,
        ALPHA_RMS_PARTITIONED,
        FeasibilityReport,
        Machine,
        PartitionResult,
        Platform,
        Task,
        TaskSet,
        edf_test_vs_any,
        edf_test_vs_partitioned,
        feasibility_test,
        first_fit_partition,
        lp_feasible,
        lp_stress,
        rms_test_vs_any,
        rms_test_vs_partitioned,
    )

__version__ = "1.0.0"

__all__ = [
    "ALPHA_EDF_LP",
    "ALPHA_EDF_PARTITIONED",
    "ALPHA_RMS_LP",
    "ALPHA_RMS_PARTITIONED",
    "FeasibilityReport",
    "Machine",
    "PartitionResult",
    "Platform",
    "Task",
    "TaskSet",
    "edf_test_vs_any",
    "edf_test_vs_partitioned",
    "feasibility_test",
    "first_fit_partition",
    "lp_feasible",
    "lp_stress",
    "rms_test_vs_any",
    "rms_test_vs_partitioned",
    "__version__",
]

#: the core names, resolved on first access: ``import repro.experiments``
#: and ``repro list`` load none of ``repro.core``
__getattr__ = lazy_exports(
    __name__, {name: "core" for name in __all__ if name != "__version__"}
)
