"""The paper's primary contribution: models, tests, partitioner, analysis.

See :mod:`repro.core.feasibility` for the four headline theorem tests.
"""

from .bounds import (
    ADMISSION_TESTS,
    AdmissionTest,
    EDFUtilizationTest,
    MachineState,
    RMSHyperbolicTest,
    RMSLiuLaylandTest,
    RMSResponseTimeTest,
    admission_test,
    edf_utilization_feasible,
    liu_layland_bound,
    rms_hyperbolic_feasible,
    rms_liu_layland_feasible,
    rms_rta_feasible,
)
from .certificates import (
    FailureCertificate,
    MachineClasses,
    classify_machines,
    corollary_iv3_holds,
    corollary_v3_holds,
    edf_load_bounds_hold,
    partitioned_infeasibility_certificate,
    rms_load_bounds_hold,
)
from .constants import (
    ALPHA_EDF_LP,
    ALPHA_EDF_PARTITIONED,
    ALPHA_EDF_PRIOR,
    ALPHA_RMS_LP,
    ALPHA_RMS_PARTITIONED,
    ALPHA_RMS_PRIOR,
    EDF_LP_CONSTANTS,
    RMS_LP_CONSTANTS,
    ProofConstants,
    alpha_frontier,
    best_constants_for_alpha,
    conditions,
    constants_valid,
    edf_conditions,
    minimal_alpha,
    rms_conditions,
)
from .dbf import (
    EDFDemandBoundTest,
    dbf,
    dbf_taskset,
    demand_bound_horizon,
    demand_points,
    edf_demand_feasible,
    qpa_edf_feasible,
)
from .dbf_approx import (
    EDFApproxDemandTest,
    approx_dbf,
    edf_approx_demand_feasible,
)
from .feasibility import (
    FeasibilityReport,
    edf_test_vs_any,
    edf_test_vs_partitioned,
    feasibility_test,
    rms_test_vs_any,
    rms_test_vs_partitioned,
    theorem_alpha,
)
from .lp import (
    check_lp_solution,
    lp_feasible,
    lp_stress,
    verify_lemma_ii1,
)
from .model import EPS, Machine, Platform, Task, TaskSet
from .partition import (
    PartitionResult,
    first_fit_partition,
    partition,
    verify_partition,
)
from .rta import rms_response_times, rms_rta_schedulable

__all__ = [name for name in dir() if not name.startswith("_")]
