"""Measurement machinery: acceptance sweeps, min-alpha search, speedup
studies, runtime scaling, statistics.

Each public name is imported from its submodule on first access, so a
process that needs one submodule (an E22 pool worker needs only
:mod:`~repro.analysis.acceptance`) loads none of the others.
"""

from .._lazy import lazy_exports

#: public name -> the submodule that defines it
_EXPORTS = {
    "AcceptanceCurve": "acceptance",
    "Tester": "acceptance",
    "acceptance_sweep": "acceptance",
    "exact_edf_tester": "acceptance",
    "exact_rms_tester": "acceptance",
    "ff_tester": "acceptance",
    "lp_tester": "acceptance",
    "BreakdownStudy": "breakdown",
    "breakdown_utilizations": "breakdown",
    "HardInstance": "hard_instances",
    "search_hard_instance": "hard_instances",
    "TaskSlack": "sensitivity",
    "critical_tasks": "sensitivity",
    "ff_acceptance": "sensitivity",
    "per_task_slack": "sensitivity",
    "system_scaling_margin": "sensitivity",
    "MinAlphaResult": "ratio",
    "alpha_success_profile": "ratio",
    "min_alpha_first_fit": "ratio",
    "RuntimePoint": "runtime",
    "runtime_scaling": "runtime",
    "SpeedupStudy": "speedup",
    "empirical_speedup_study": "speedup",
    "Summary": "stats",
    "bootstrap_ci": "stats",
    "empirical_cdf": "stats",
    "summarize": "stats",
}
__getattr__ = lazy_exports(__name__, _EXPORTS)

__all__ = list(_EXPORTS)
